"""One benchmark process: set up, run the workload, check every output.

Started by run.py in a fresh interpreter from the root of a checkout. It
prints ``READY <json>`` once set-up is done (import, input generation and a
warm-up call); with ``--setup-only`` it stops there. Otherwise it runs the
workload's iterations and the side mix for ``--seconds``, checks every op,
and prints ``RESULT <json>`` with the samples, the op counts and the
failures.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path.cwd()
sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]

_t1 = time.perf_counter()
import numpy  # noqa: E402

_t2 = time.perf_counter()
import cutchoose  # noqa: E402

_t3 = time.perf_counter()

from workloads import Journal, Workload, nominal_points  # noqa: E402

MIN_ITERATIONS = 2
# Untraced runs interleave side-mix passes with the timed iterations, so that
# side-mix time is about this share of iteration time. Spread over the whole
# run, the side-mix figures see the same machine as the workload's own.
SIDE_SHARE = 0.8


def _rate(pairs: list[tuple[float, float]]) -> tuple[float, list[float]]:
    """Total work over total seconds, and the per-call rates."""
    return sum(w for w, _ in pairs) / sum(s for _, s in pairs), [w / s for w, s in pairs]


def e2e_samples(main: Journal, side: Journal, walls: list[float], peak_rss_mb: float) -> dict:
    """Value and samples of every end-to-end metric but setup_s.

    A metric comes from the workload's own iterations when they produce it,
    and from the side mix otherwise. The machine's speed moves in bursts of
    seconds, so a run's share of fast time varies: totals and means follow
    that share smoothly, where a median or a pooled percentile would jump
    between the fast and the slow cluster.
    """

    def pick(attr: str) -> Journal:
        return main if getattr(main, attr) else side

    grids = _rate([(nominal_points(n, m) / 1e6, s) for n, m, _, _, s in pick("grids").grids])
    sims = _rate([(rounds / 1e6, s) for _, rounds, _, _, s in pick("sims").sims])
    sweeps = _rate([(_rows(op), s) for op, _, _, s in pick("sweeps").sweeps])
    passes = pick("cli_passes").cli_passes
    p50 = [statistics.median(p) * 1e3 for p in passes]
    p90 = [statistics.quantiles(p, n=10, method="inclusive")[8] * 1e3 for p in passes]
    procs = [s * 1e3 for _, _, _, s in pick("procs").procs]
    return {
        "wall_s": (statistics.fmean(walls), walls),
        "peak_rss_mb": (peak_rss_mb, [peak_rss_mb]),
        "grid_mpoints_per_s": grids,
        "sim_mrounds_per_s": sims,
        "cli_p50_ms": (statistics.fmean(p50), p50),
        "cli_p90_ms": (statistics.fmean(p90), p90),
        "sweep_rows_per_s": sweeps,
        "cli_process_ms": (statistics.fmean(procs), procs),
    }


def _rows(op: Any) -> int:
    lo, hi, step = op.spec["t_range"]
    return int((hi - lo) / step) + 1


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if not Path(cutchoose.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
        print(f"cutchoose imported from {cutchoose.__file__}, not from ./src", file=sys.stderr)
        return 2
    workload = Workload(args.workload, args.seed, ROOT)
    workload.warm_up()
    imports = {"numpy_s": _t2 - _t1, "cutchoose_s": _t3 - _t2}
    print("READY " + json.dumps(imports), flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    main_journal, side_journal = Journal(), Journal()
    walls: list[float] = []
    traced_walls: list[float] = []
    side_seconds = 0.0
    peak_rss_mb = 0.0
    start = time.perf_counter()
    while True:
        if tracer is None and side_seconds < SIDE_SHARE * sum(walls):
            t = time.perf_counter()
            workload.side(side_journal)
            side_seconds += time.perf_counter() - t
        else:
            t = time.perf_counter()
            workload.iteration(main_journal)
            walls.append(time.perf_counter() - t)
            if len(walls) == 1:  # before any side-mix work
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if tracer is not None:
                t = time.perf_counter()
                tracer.segment("iteration", lambda: workload.iteration(main_journal))
                traced_walls.append(time.perf_counter() - t)
        done = len(walls) >= MIN_ITERATIONS and (tracer is not None or side_seconds > 0)
        if done and time.perf_counter() - start >= args.seconds:
            break
    if tracer is not None:
        tracer.segment("side", lambda: workload.side(side_journal))

    from checks import Checker

    checker = Checker()
    checker.journal(main_journal)
    checker.journal(side_journal)

    result: dict = {
        "numpy": numpy.__version__,
        "iterations": len(walls),
        "traced_iterations": len(traced_walls),
        "cli_ops": len(main_journal.cli) + len(side_journal.cli),
    }
    if tracer is None:
        metrics = e2e_samples(main_journal, side_journal, walls, peak_rss_mb)
        result["metrics"] = {k: {"value": v, "samples": s} for k, (v, s) in metrics.items()}
    else:
        from tracing import layer_metrics

        stats, same_counts = tracer.pass_stats()
        per_layer = {**layer_metrics(stats), **tracer.memory_peaks()}
        per_layer["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(walls) - 1.0
        result["metrics"] = {k: {"value": v, "samples": [v]} for k, v in per_layer.items()}
        checker.record("traced iterations repeat their counts", None if same_counts else "counts differ")
        spans = ROOT / "bench" / "out" / f"spans-{args.workload}.json"
        tracer.write(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
    result.update(attempted=checker.attempted, failed=len(checker.failures), failures=checker.failures)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
