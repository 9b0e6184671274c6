"""The names the benchmark replaces by module attribute still exist and are still called.

``bench/workloads.py`` swaps ``cutchoose.solver.grid_search`` to keep each
hit list, and ``bench/tracing.py`` wraps every function named in its
``LAYERS``. A renamed or inlined function breaks only a traced benchmark
run, so these checks keep the hooks in step with the package.
"""

import importlib
import importlib.util
from pathlib import Path

import cutchoose as cc
import cutchoose.solver as solver_module

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_verify_uniqueness_takes_hits_from_module_grid_search(monkeypatch):
    planted = cc.GridHit(cc.make_cutter(1, 0, 0), cc.TParams(1.0, 0.0, -1.0), 0.0)
    seen = []

    def grid_search(config):
        seen.append(config)
        return [planted]

    monkeypatch.setattr(solver_module, "grid_search", grid_search)
    config = cc.GridSearchConfig(simplex_step=1 / 3, t_step=1.0, residual_tol=1e-9)
    report = cc.verify_uniqueness(config, family_tol=1e-9)
    assert seen == [config]
    assert report.n_hits == 1
    assert report.worst_offender is planted
    assert not report.passed


def test_traced_layer_names_exist():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # stdlib imports only
    for layer, names in tracing.LAYERS.items():
        module = importlib.import_module(f"cutchoose.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"cutchoose.{layer}.{name}"
