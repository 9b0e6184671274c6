"""Output checks. Every op the benchmark runs is checked here, and each
failure counts toward ``failed``.

The expected values come from the library called directly on the values the
inputs spell, from the exact-rational oracle in ``tests/oracles.py``, and
from the closed-form facts the package documents. A failure that matches a
defect listed in the ROADMAP is tagged with that defect.
"""

from __future__ import annotations

import csv
import importlib
import io
import json
import math
from fractions import Fraction
from typing import Any

import numpy as np

import oracles  # tests/oracles.py, put on sys.path by the worker

from workloads import TIGHT_TOL, CliOp, Journal, SimCase

strategies = importlib.import_module("cutchoose.strategies")
diet = importlib.import_module("cutchoose.diet")
solver = importlib.import_module("cutchoose.solver")
simulate_mod = importlib.import_module("cutchoose.simulate")
election = importlib.import_module("cutchoose.election")

REPORT_KEYS = {"command", "inputs", "results", "versions"}
SEQUENTIAL_ROUNDS = 2000
# Float residuals of O(1) inputs are within ~1e-15 of the exact ones, so only
# points this close to residual_tol can have their verdict flipped by rounding.
BOUNDARY_BAND = 1e-9

DEFECT_GRID_BOUNDARY = "grid verdict decided by float rounding at residual_tol"
DEFECT_SWEEP_CLAMP = "sweep emits duplicate or clamped rows outside [-1, 1]"


class Checker:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[dict[str, str]] = []
        self._verified: dict[tuple, tuple[int | None, str]] = {}
        self._first_sim: dict[tuple, Any] = {}
        self._first_hits: dict[tuple, list] = {}
        self._sequential_done: set[SimCase] = set()

    def record(self, what: str, problem: str | None, defect: str | None = None) -> None:
        self.attempted += 1
        if problem is not None:
            entry = {"op": what, "problem": problem}
            if defect:
                entry["defect"] = defect
            self.failures.append(entry)

    # ------------------------------------------------------------ grids

    def grid(self, n: int, m: int, report: Any, hits: list) -> None:
        problem, defect = _grid_report_problem(n, m, report, hits), None
        key, found = (n, m), _hit_tuples(hits)
        if problem is None and key in self._first_hits:
            if found != self._first_hits[key]:
                problem = "rerun hits differ"
        elif problem is None:  # the first good run of a grid: re-check its hits exactly
            self._first_hits[key] = found
            for hit in hits:
                lam, om = oracles.residuals_exact(hit.cutter, hit.t_params)
                if max(abs(r) for r in lam + om) > Fraction(TIGHT_TOL):
                    problem, defect = "hit whose exact residual exceeds residual_tol", DEFECT_GRID_BOUNDARY
                    break
        self.record(f"verify_uniqueness n={n} m={m}", problem, defect)

    # ------------------------------------------------------------ simulation

    def sim(self, case: SimCase, rounds: int, result: Any, convergence: Any) -> None:
        what = f"simulate {case.label} rounds={rounds}"
        key = (case, rounds)
        problem = None
        if not convergence.passed:
            problem = "check_convergence failed"
        elif key in self._first_sim and _sim_tuple(result) != self._first_sim[key]:
            problem = "rerun counts differ"
        self._first_sim.setdefault(key, _sim_tuple(result))
        self.record(what, problem)

    def sequential(self, case: SimCase) -> None:
        """A short run must equal round-by-round play_round bit for bit."""
        result = simulate_mod.simulate(case.cutter, case.chooser, SEQUENTIAL_ROUNDS, case.seed)
        source = np.random.Generator(np.random.PCG64(case.seed))
        rejected, chosen, leftover = [0] * 3, [0] * 3, [0] * 3
        for i in range(SEQUENTIAL_ROUNDS):
            record = simulate_mod.play_round(case.cutter, case.chooser, source, i)
            rejected[record.rejected] += 1
            chosen[record.chosen] += 1
            leftover[record.leftover] += 1
        same = (
            result.counts_rejected == tuple(rejected)
            and result.counts_omega == tuple(chosen)
            and result.counts_lambda == tuple(leftover)
        )
        self.record(f"simulate vs play_round {case.label}", None if same else "differs from sequential play")

    # ------------------------------------------------------------ cli

    def cli(self, op: CliOp, status: int | None, text: str) -> None:
        what = " ".join(op.argv)
        seen = self._verified.get(op.key)
        if seen is not None:
            self.record(what, None if seen == (status, text) else "rerun output differs")
            return
        try:
            problem, defect = _cli_problem(op, status, text)
        except Exception as exc:  # a malformed report must count, not crash the run
            problem, defect = f"unreadable report: {exc!r}", None
        if problem is None:
            self._verified[op.key] = (status, text)
        self.record(what, problem, defect)

    def proc(self, op: CliOp, returncode: int, stdout: str) -> None:
        seen = self._verified.get(op.key)
        problem = None
        if seen is None:
            problem = "in-process run of this argv was not verified"
        elif (returncode, stdout) != seen:
            problem = "subprocess output differs from the in-process report"
        self.record("python -m cutchoose " + " ".join(op.argv), problem)

    def journal(self, journal: Journal) -> None:
        for n, m, report, hits, _ in journal.grids:
            self.grid(n, m, report, hits)
        for case, rounds, result, convergence, _ in journal.sims:
            self.sim(case, rounds, result, convergence)
            if case not in self._sequential_done:
                self._sequential_done.add(case)
                self.sequential(case)
        for op, status, text, _ in journal.cli + journal.sweeps:
            self.cli(op, status, text)
        for op, returncode, stdout, _ in journal.procs:
            self.proc(op, returncode, stdout)


def _hit_tuples(hits: list) -> list[tuple]:
    return [(h.cutter.p, h.t_params.t, h.max_abs_residual) for h in hits]


def _sim_tuple(result: Any) -> tuple:
    return (result.counts_lambda, result.counts_omega, result.counts_rejected)


def _grid_report_problem(n: int, m: int, report: Any, hits: list) -> str | None:
    # Only the uniform cutter with equal t's is fair, so a tight grid hits
    # exactly its m + 1 diagonal points when 3 | n, and nothing otherwise.
    expected = m + 1 if n % 3 == 0 else 0
    if not report.passed or report.n_offenders:
        return f"verdict failed with {report.n_offenders} offenders"
    if report.n_hits != expected or len(hits) != expected:
        return f"{report.n_hits} hits, expected {expected}"
    for hit in hits:
        t0, t1, t2 = hit.t_params.t
        if not (t0 == t1 == t2) or any(abs(p - 1 / 3) > 1e-15 for p in hit.cutter.p):
            return f"hit off the fair family: {hit!r}"
    return None


# ---------------------------------------------------------------- expected reports


def _cutter(spec: dict) -> Any:
    if "cutter" in spec:
        return strategies.make_cutter(*spec["cutter"])
    return strategies.make_cutter(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


def _chooser(spec: dict) -> Any:
    if "chooser" in spec:
        return strategies.make_chooser(*spec["chooser"])
    return strategies.from_t_params(strategies.TParams(*spec["t"]))


def _class_dict(preference_class: Any) -> dict:
    order = preference_class.order
    return {"kind": preference_class.kind.value, "order": list(order) if order else None}


def _class_label(preference_class: Any) -> str:
    if preference_class.order is None:
        return preference_class.kind.value
    return preference_class.kind.value + ":" + ">".join(str(f) for f in preference_class.order)


def _family_dict(family: Any) -> dict:
    return {
        "cutter": list(family.cutter.p),
        "t_range": list(family.t_range),
        "description": family.description,
    }


def _expected(op: CliOp) -> tuple[int, dict]:
    """Exit status and ``results`` the library gives for the op's values."""
    spec = op.spec
    if op.cmd == "diet":
        profile = diet.diet_profile(_cutter(spec), _chooser(spec))
        report = diet.fairness_residual(profile, spec.get("tolerance", 1e-9))
        return 0, {
            "lambda": list(profile.lam),
            "omega": list(profile.omega),
            "lambda_residuals": list(report.lambda_residuals),
            "omega_residuals": list(report.omega_residuals),
            "max_abs_residual": report.max_abs_residual,
            "tolerance": report.tolerance,
            "is_fair": report.is_fair,
        }
    if op.cmd == "classify":
        chooser = _chooser(spec)
        relation, preference_class = strategies.classify_preferences(chooser, spec.get("eps", 0.0))
        return 0, {
            "chooser": {f"c{k}{j}": v for (k, j), v in sorted(chooser.as_table().items())},
            "relation": {
                "eps": relation.eps,
                "verdicts": [
                    {"pair": list(pair), "verdict": relation.verdicts[i].value, "winner": relation.winner(i)}
                    for i, pair in enumerate(strategies.PREFERENCE_PAIRS)
                ],
            },
            "classification": _class_dict(preference_class),
        }
    if op.cmd == "solve":
        family = solver.solve_joint()
        worst = max(
            solver.residual_system(family.cutter, strategies.TParams(t, t, t)).max_abs
            for t in np.linspace(-1.0, 1.0, 21)
        )
        return 0, {**_family_dict(family), "self_check": {"n_samples": 21, "max_abs_residual": worst}}
    if op.cmd == "feasible":
        tol = spec.get("tol", 1e-9)
        result = solver.solve_chooser_given_cutter(_cutter(spec), tol)
        payload: dict[str, Any] = {"feasible": result.feasible, "tol": tol}
        if result.feasible:
            payload["family"] = _family_dict(result.family)
        else:
            payload["certificate"] = result.certificate
            payload["witness_food"] = result.witness_food
            payload["witness_pair_sum"] = result.witness_pair_sum
        return 0, payload
    if op.cmd == "simulate":
        r = simulate_mod.simulate(_cutter(spec), _chooser(spec), spec["n_rounds"], spec["seed"])
        return 0, {
            "n_rounds": r.n_rounds,
            "seed": r.seed,
            "generator": r.generator,
            "counts_lambda": list(r.counts_lambda),
            "counts_omega": list(r.counts_omega),
            "counts_rejected": list(r.counts_rejected),
            "empirical_lambda": list(r.empirical_lambda),
            "empirical_omega": list(r.empirical_omega),
        }
    if op.cmd == "verify-uniqueness":
        grid = solver.GridSearchConfig(spec["simplex_step"], spec["t_step"], spec["residual_tol"])
        report = solver.verify_uniqueness(grid, spec["family_tol"])
        worst = report.worst_offender
        return (0 if report.passed else 3), {
            "passed": report.passed,
            "no_hits": report.no_hits,
            "n_hits": report.n_hits,
            "n_offenders": report.n_offenders,
            "worst_distance": report.worst_distance,
            "worst_offender": None
            if worst is None
            else {"cutter": list(worst.cutter.p), "t": list(worst.t_params.t), "max_abs_residual": worst.max_abs_residual},
            "family_tol": report.family_tol,
            "grid": {"simplex_step": grid.simplex_step, "t_step": grid.t_step, "residual_tol": grid.residual_tol},
        }
    if op.cmd == "election":
        report = election.to_election_report(_cutter(spec), _chooser(spec), spec.get("labels", ("A", "B", "C")))
        return 0, {
            "labels": list(report.labels),
            "phase1_elimination_dist": list(report.phase1_elimination_dist),
            "phase2_winner_dist": list(report.phase2_winner_dist),
            "phase2_loser_dist": list(report.phase2_loser_dist),
            "preference_class": _class_dict(report.preference_class),
        }
    raise ValueError(f"no expected report for {op.cmd!r}")


def _canonical(value: Any) -> str:
    # repr-based JSON text, so -0.0 and 0.0 differ: "equal" means bit for bit.
    return json.dumps(value, sort_keys=True)


def _cli_problem(op: CliOp, status: int | None, text: str) -> tuple[str | None, str | None]:
    if op.cmd == "sweep":
        return _sweep_problem(op, status, text)
    expected_status, expected = _expected(op)
    if status != expected_status:
        return f"exit status {status}, expected {expected_status}", None
    report = json.loads(text)
    if set(report) != REPORT_KEYS:
        return f"top-level keys {sorted(report)}", None
    if report["command"] != op.cmd:
        return f"command {report['command']!r}", None
    if _canonical(report["results"]) != _canonical(expected):
        return "results differ from the library's", None
    if op.cmd == "verify-uniqueness":
        n, m = op.spec["divisions"]
        by_float, exact = hit_counts(n, m, op.spec["residual_tol"])
        n_hits = report["results"]["n_hits"]
        if n_hits != exact:
            # Matching the float count means rounding decided a boundary point.
            return f"n_hits {n_hits}, exact count {exact}", DEFECT_GRID_BOUNDARY if n_hits == by_float else None
    return None, None


def hit_counts(n: int, m: int, tol: float) -> tuple[int, int]:
    """Grid points whose residual max-norm is <= tol: (in floats, exactly).

    Floats decide every point farther than BOUNDARY_BAND from tol; the exact
    count decides the rest in rationals with tests/oracles.residuals_exact.
    """
    cutters = [
        strategies.make_cutter(i / n, j / n, (n - i - j) / n) for i in range(n + 1) for j in range(n + 1 - i)
    ]
    axis = [(2 * i - m) / m for i in range(m + 1)]
    ts = np.array([(a, b, c) for a in axis for b in axis for c in axis])
    p = np.array([c.p for c in cutters])
    u = p[:, None, :] * ts[None, :, :]
    rhs = 2.0 / 3.0 - (p.sum(axis=1, keepdims=True) - p)
    v = np.roll(u, -2, axis=2) - np.roll(u, -1, axis=2)  # (u2 - u1, u0 - u2, u1 - u0)
    worst = np.maximum(np.abs(v - rhs[:, None, :]), np.abs(-v - rhs[:, None, :])).max(axis=2)
    near = np.abs(worst - tol) <= BOUNDARY_BAND
    by_float = int(np.count_nonzero(worst <= tol))
    exact = by_float - int(np.count_nonzero((worst <= tol) & near))
    bound = Fraction(tol)
    for s, t in zip(*np.nonzero(near)):
        lam, om = oracles.residuals_exact(cutters[s], strategies.TParams(*ts[t]))
        exact += max(abs(r) for r in lam + om) <= bound
    return by_float, exact


def _sweep_problem(op: CliOp, status: int | None, text: str) -> tuple[str | None, str | None]:
    if status != 0:
        return f"exit status {status}, expected 0", None
    if "--format" in op.argv:  # json
        report = json.loads(text)
        if set(report) != REPORT_KEYS:
            return f"top-level keys {sorted(report)}", None
        rows = [
            (r["t"], r["preference_class"], r["lambda_residuals"], r["omega_residuals"])
            for r in report["results"]["rows"]
        ]
    else:
        lines = list(csv.reader(io.StringIO(text)))
        rows = [(float(r[0]), r[1], [float(x) for x in r[2:5]], [float(x) for x in r[5:8]]) for r in lines[1:]]
    lo, hi, step = op.spec["t_range"]
    count = math.floor((hi - lo) / step) + 1
    if len(rows) != count:
        return f"{len(rows)} rows, expected {count}", DEFECT_SWEEP_CLAMP
    ts = [row[0] for row in rows]
    if any(b <= a for a, b in zip(ts, ts[1:])) or not all(-1.0 <= t <= 1.0 for t in ts):
        return "t values not strictly increasing inside [-1, 1]", DEFECT_SWEEP_CLAMP
    if any(abs(Fraction(t) - (lo + i * step)) > 1e-12 for i, t in enumerate(ts)):
        return "t values off the lo + i*step grid", None
    cutter = _cutter(op.spec)
    eps = op.spec.get("eps", 0.0)
    tolerance = op.spec.get("tolerance", 1e-9)
    for t, label, lam, om in rows:
        chooser = strategies.symmetric_chooser(t)
        _, preference_class = strategies.classify_preferences(chooser, eps)
        report = diet.fairness_residual(diet.diet_profile(cutter, chooser), tolerance)
        if label != _class_label(preference_class) or _canonical(
            [list(report.lambda_residuals), list(report.omega_residuals)]
        ) != _canonical([lam, om]):
            return f"row t={t!r} differs from the library's", None
    return None, None
