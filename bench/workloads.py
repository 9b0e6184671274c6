"""Inputs and work of the three benchmark workloads.

Every input is drawn from a ``random.Random`` seeded with the workload seed,
so the same seed gives the same inputs. The seed chooses values, spellings
(fractions or decimals, flags or ``--config`` files) and order; the amount of
work in an iteration is fixed, so timings from different seeds are
comparable.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import Any

cli = importlib.import_module("cutchoose.cli")
diet = importlib.import_module("cutchoose.diet")
simulate_mod = importlib.import_module("cutchoose.simulate")
solver = importlib.import_module("cutchoose.solver")
strategies = importlib.import_module("cutchoose.strategies")

# Resource limits (see README.md). Raise them only on purpose, in their own
# change. simulate holds ~49 B/round at once until it streams: 1e7 rounds is
# ~490 MB. solver refuses grids above 1e8 nominal points (GridTooLarge).
MAX_SIM_ROUNDS = 10**7
MAX_GRID_POINTS = 10**8

TIGHT_TOL = 1e-9
# (simplex divisions n, t divisions m) with 3 | n, so the uniform cutter lies
# on the grid and exactly the m + 1 family points hit. Nominal sizes are
# 22.28 M to 22.40 M points, so the seed's pick barely moves the work.
BIG_GRIDS = ((24, 40), (27, 37), (18, 48))
PROBE_GRID = (12, 20)  # 843,381 points
LONG_ROUNDS = 10**7
PROBE_ROUNDS = 10**6
# Loose grids for cli_mix: (n, t_step, residual_tol) with 257 to 2,517 hits.
LOOSE_GRIDS = (
    (6, Fraction(1, 2), "0.37"),
    (10, Fraction(1, 2), "0.43"),
    (8, Fraction(1, 2), "0.47"),
    (6, Fraction(1, 4), "0.41"),
    (8, Fraction(1, 4), "0.37"),
)
SHORT_ROUNDS = (10_000, 30_000, 100_000)
SHORT_SWEEP_ROWS = (21, 101, 201)
LONG_SWEEP_STEP = Fraction(1, 10_000)  # -1:1 in 20,001 rows
CLI_CYCLES = 25  # one cli pass = 25 cycles x 8 subcommands = 200 ops
PROCS_PER_PASS = 2
LABELS = ("Ada", "Bo", "Cy", "Dee", "Eve", "Fin", "Gus", "Hal")

SUBCOMMANDS = (
    "diet",
    "classify",
    "solve",
    "feasible",
    "simulate",
    "sweep",
    "verify-uniqueness",
    "election",
)


def nominal_points(n: int, m: int) -> int:
    return (n + 1) * (n + 2) // 2 * (m + 1) ** 3


def grid_config(n: int, m: int, tol: float) -> Any:
    return solver.GridSearchConfig(simplex_step=1.0 / n, t_step=2.0 / m, residual_tol=tol)


# ---------------------------------------------------------------- spellings


def spell(rng: random.Random, q: Fraction) -> str:
    """A fraction or, when q has a finite decimal expansion, maybe a decimal."""
    d = q.denominator
    while d % 2 == 0:
        d //= 2
    while d % 5 == 0:
        d //= 5
    if d == 1 and rng.random() < 0.5:
        return format(Decimal(q.numerator) / Decimal(q.denominator), "f")
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _unit(rng: random.Random) -> Fraction:
    d = rng.choice((2, 3, 4, 5, 6, 8, 10, 12))
    return Fraction(rng.randint(0, d), d)


def _signed(rng: random.Random) -> Fraction:
    d = rng.choice((2, 3, 4, 5, 8, 10))
    return Fraction(rng.randint(-d, d), d)


def _composition(rng: random.Random) -> tuple[Fraction, Fraction, Fraction]:
    if rng.random() < 0.3:
        return (Fraction(1, 3),) * 3
    d = rng.choice((4, 5, 6, 8, 10, 12))
    a = rng.randint(0, d)
    b = rng.randint(0, d - a)
    parts = [a, b, d - a - b]
    rng.shuffle(parts)
    return tuple(Fraction(x, d) for x in parts)  # type: ignore[return-value]


# ---------------------------------------------------------------- cli ops


@dataclass
class CliOp:
    """One ``cutchoose`` invocation and the values it should be parsed into."""

    cmd: str
    argv: list[str]
    spec: dict[str, Any]

    @property
    def key(self) -> tuple[str, ...]:
        return tuple(self.argv)


@dataclass
class CliPlan:
    ops: list[CliOp]
    long_sweep: CliOp
    procs: list[CliOp]


class _OpBuilder:
    """Collects one op's fields; each goes to a flag or to a config file."""

    def __init__(self, rng: random.Random, cmd: str, use_config: bool):
        self.rng = rng
        self.cmd = cmd
        self.flags: list[str] = []
        self.spec: dict[str, Any] = {}
        self.config: dict[str, Any] | None = {"command": cmd} if use_config else None
        if use_config and rng.random() < 0.5:
            del self.config["command"]  # the command key is optional in a file

    def add(self, key: str, flag: str, text: str, value: Any, json_value: Any = None) -> None:
        self.spec[key] = value
        if self.config is not None and self.rng.random() < 0.7:
            self.config[key] = text if json_value is None or self.rng.random() < 0.5 else json_value
        else:
            self.flags += [flag, text]

    def triple(self, key: str, flag: str, values: tuple[Fraction, ...]) -> None:
        text = ",".join(spell(self.rng, q) for q in values)
        self.add(key, flag, text, tuple(float(q) for q in values), [float(q) for q in values])

    def number(self, key: str, flag: str, q: Fraction | str) -> None:
        if isinstance(q, str):
            self.add(key, flag, q, float(q), float(q))
        else:
            self.add(key, flag, spell(self.rng, q), float(q), float(q))

    def cutter(self) -> None:
        self.triple("cutter", "--cutter", _composition(self.rng))

    def chooser(self) -> None:
        if self.rng.random() < 0.5:
            self.triple("chooser", "--chooser", tuple(_unit(self.rng) for _ in range(3)))
        else:
            self.triple("t", "--t", tuple(_signed(self.rng) for _ in range(3)))

    def build(self, workdir: Path, name: str) -> CliOp:
        argv = [self.cmd] + self.flags
        if self.config is not None:
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(self.config), encoding="utf-8")
            argv += ["--config", str(path)]
        return CliOp(self.cmd, argv, self.spec)


def _sweep_range(rng: random.Random, rows: int) -> tuple[Fraction, Fraction, Fraction]:
    """lo:hi:step inside [-1, 1] with exactly ``rows`` points."""
    step = rng.choice((Fraction(1, 100), Fraction(1, 200), Fraction(1, 250)))
    while (rows - 1) * step > 2:
        step /= 2
    span = (rows - 1) * step
    slots = int((2 - span) / step)
    lo = -1 + step * rng.randint(0, slots)
    return lo, lo + span, step


def _cli_op(rng: random.Random, cmd: str, cycle: int, workdir: Path, name: str) -> CliOp:
    b = _OpBuilder(rng, cmd, use_config=rng.random() < 0.35)
    if cmd == "diet":
        b.cutter()
        b.chooser()
        if rng.random() < 0.5:
            b.number("tolerance", "--tolerance", rng.choice(("1e-9", Fraction(1, 1000))))
    elif cmd == "classify":
        b.chooser()
        if rng.random() < 0.5:
            b.number("eps", "--eps", rng.choice((Fraction(0), Fraction(1, 20), Fraction(1, 8))))
    elif cmd == "solve":
        if rng.random() < 0.5:
            b.flags += ["--format", "json"]
    elif cmd == "feasible":
        b.cutter()
        if rng.random() < 0.5:
            b.number("tol", "--tol", rng.choice(("1e-9", Fraction(1, 100), Fraction(1, 10))))
    elif cmd == "simulate":
        b.cutter()
        b.chooser()
        rounds = SHORT_ROUNDS[cycle % len(SHORT_ROUNDS)]
        b.add("n_rounds", "-n", str(rounds), rounds, rounds)
        seed = rng.getrandbits(64)
        b.add("seed", "--seed", str(seed), seed, seed)
    elif cmd == "sweep":
        lo, hi, step = _sweep_range(rng, SHORT_SWEEP_ROWS[cycle % len(SHORT_SWEEP_ROWS)])
        text = ":".join(spell(rng, q) for q in (lo, hi, step))
        b.add("t_range", "--t-range", text, (lo, hi, step), [float(lo), float(hi), float(step)])
        if rng.random() < 0.5:
            b.cutter()
        if rng.random() < 0.3:
            b.number("eps", "--eps", Fraction(1, 20))
        if rng.random() < 0.3:
            b.number("tolerance", "--tolerance", Fraction(1, 1000))
        if cycle % 4 == 0:
            b.flags += ["--format", "json"]
    elif cmd == "verify-uniqueness":
        n, t_step, tol = LOOSE_GRIDS[cycle % len(LOOSE_GRIDS)]
        simplex = spell(rng, Fraction(1, n)) if rng.random() < 0.7 else f"{1 / n:.6f}"
        b.add("simplex_step", "--simplex-step", simplex, float(Fraction(simplex)), float(Fraction(simplex)))
        b.number("t_step", "--t-step", t_step)
        b.number("residual_tol", "--residual-tol", tol)
        b.number("family_tol", "--family-tol", rng.choice(("1e-9", Fraction(1, 10**9))))
        b.spec["divisions"] = (n, round(2 / t_step))
    elif cmd == "election":
        b.cutter()
        b.chooser()
        if rng.random() < 0.7:
            labels = rng.sample(LABELS, 3)
            b.add("labels", "--labels", ",".join(labels), tuple(labels), labels)
    return b.build(workdir, name)


def make_cli_plan(rng: random.Random, workdir: Path, tag: str) -> CliPlan:
    """One cli pass: 25 cycles through the 8 subcommands, then the long sweep
    and two real subprocesses."""
    workdir.mkdir(parents=True, exist_ok=True)
    ops = [
        _cli_op(rng, cmd, cycle, workdir, f"{tag}-{cycle}-{cmd}")
        for cycle in range(CLI_CYCLES)
        for cmd in SUBCOMMANDS
    ]
    rng.shuffle(ops)
    step = spell(rng, LONG_SWEEP_STEP) if rng.random() < 0.5 else "0.0001"
    long_sweep = CliOp(
        "sweep",
        ["sweep", "--t-range", f"-1:1:{step}"],
        {"t_range": (Fraction(-1), Fraction(1), LONG_SWEEP_STEP)},
    )
    light = [op for op in ops if op.cmd in ("diet", "classify", "solve", "feasible", "election")]
    return CliPlan(ops, long_sweep, rng.sample(light, PROCS_PER_PASS))


# ---------------------------------------------------------------- sim cases


@dataclass(frozen=True)
class SimCase:
    label: str
    cutter: Any
    chooser: Any
    seed: int


def make_sim_cases(rng: random.Random) -> list[SimCase]:
    """A fair-family pair, a non-uniform cutter, and an edge chooser at t = +-1."""
    make_cutter = strategies.make_cutter
    t = float(Fraction(rng.randint(-20, 20), 20))
    while True:
        p = _composition(rng)
        if p != (Fraction(1, 3),) * 3:
            break
    chooser = strategies.make_chooser(*(float(_unit(rng)) for _ in range(3)))
    edge = rng.choice((-1.0, 1.0))
    q = _composition(rng)
    return [
        SimCase("fair_family", make_cutter(1 / 3, 1 / 3, 1 / 3), strategies.symmetric_chooser(t), rng.getrandbits(64)),
        SimCase("nonuniform_cutter", make_cutter(*(float(x) for x in p)), chooser, rng.getrandbits(64)),
        SimCase("edge_chooser", make_cutter(*(float(x) for x in q)), strategies.symmetric_chooser(edge), rng.getrandbits(64)),
    ]


# ---------------------------------------------------------------- execution


@dataclass
class Journal:
    """What one phase of a run did, kept for the metrics and the checks."""

    grids: list[tuple] = field(default_factory=list)  # (n, m, report, hits, seconds)
    sims: list[tuple] = field(default_factory=list)  # (case, rounds, result, convergence, seconds)
    cli: list[tuple] = field(default_factory=list)  # (op, status, text, seconds)
    sweeps: list[tuple] = field(default_factory=list)  # (op, status, text, seconds)
    procs: list[tuple] = field(default_factory=list)  # (op, returncode, stdout, seconds)
    cli_passes: list[list[float]] = field(default_factory=list)  # per-pass op latencies


@contextlib.contextmanager
def _keep_hits(sink: list) -> Any:
    # One pass-through call per verify_uniqueness keeps the hit list that its
    # internal grid_search returns, so every hit can be re-checked exactly.
    inner = solver.grid_search

    def grid_search(config: Any) -> Any:
        hits = inner(config)
        sink.append(hits)
        return hits

    solver.grid_search = grid_search
    try:
        yield
    finally:
        solver.grid_search = inner


def run_grid(journal: Journal, n: int, m: int) -> None:
    if nominal_points(n, m) >= MAX_GRID_POINTS:
        raise ValueError(f"grid {n}/{m} exceeds the benchmark's grid limit")
    config = grid_config(n, m, TIGHT_TOL)
    sink: list = []
    with _keep_hits(sink):
        start = time.perf_counter()
        report = solver.verify_uniqueness(config, TIGHT_TOL)
        seconds = time.perf_counter() - start
    journal.grids.append((n, m, report, sink[0], seconds))


def run_sims(journal: Journal, cases: list[SimCase], rounds: int) -> None:
    if rounds > MAX_SIM_ROUNDS:
        raise ValueError(f"{rounds} rounds exceed the benchmark's simulate limit")
    for case in cases:
        start = time.perf_counter()
        result = simulate_mod.simulate(case.cutter, case.chooser, rounds, case.seed)
        seconds = time.perf_counter() - start
        exact = diet.diet_profile(case.cutter, case.chooser)
        convergence = simulate_mod.check_convergence(result, exact)
        journal.sims.append((case, rounds, result, convergence, seconds))


def call_cli(argv: list[str]) -> tuple[int | None, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            status = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            status = exc.code if isinstance(exc.code, int) else 2
        seconds = time.perf_counter() - start
    return status, out.getvalue(), seconds


def run_cli_pass(journal: Journal, plan: CliPlan, env: dict[str, str], long_sweeps: int = 1) -> None:
    latencies = []
    for op in plan.ops:
        status, text, seconds = call_cli(op.argv)
        journal.cli.append((op, status, text, seconds))
        latencies.append(seconds)
    journal.cli_passes.append(latencies)
    for _ in range(long_sweeps):
        journal.sweeps.append((plan.long_sweep, *call_cli(plan.long_sweep.argv)))
    for op in plan.procs:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "cutchoose", *op.argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        journal.procs.append((op, proc.returncode, proc.stdout, time.perf_counter() - start))


# ---------------------------------------------------------------- workloads


class Workload:
    """Inputs for one run: the workload's own iteration plus the side mix.

    Every run must report every end-to-end metric, so each workload also runs
    a side mix: small versions of the other two workloads' work. A metric the
    workload's own iterations do not produce comes from the side mix.
    """

    def __init__(self, name: str, seed: int, root: Path):
        self.name = name
        rng = random.Random(seed)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop(cli.SEED_ENV_VAR, None)
        self.grid = rng.choice(BIG_GRIDS)
        self.sim_cases = make_sim_cases(rng)
        self.cli_plan = make_cli_plan(rng, root / "bench" / "out" / "cfg", f"{name}-{seed}")

    def warm_up(self) -> None:
        scratch = Journal()
        if self.name == "uniqueness_grid":
            solver.verify_uniqueness(grid_config(3, 2, TIGHT_TOL), TIGHT_TOL)
        elif self.name == "simulate_long":
            run_sims(scratch, self.sim_cases, 1000)
        else:
            for cmd in SUBCOMMANDS:
                call_cli(next(op.argv for op in self.cli_plan.ops if op.cmd == cmd))

    def iteration(self, journal: Journal) -> None:
        if self.name == "uniqueness_grid":
            run_grid(journal, *self.grid)
        elif self.name == "simulate_long":
            run_sims(journal, self.sim_cases, LONG_ROUNDS)
        else:
            run_cli_pass(journal, self.cli_plan, self.env)

    def side(self, journal: Journal) -> None:
        if self.name != "cli_mix":
            # Two long sweeps: a 1 s sweep varies by +-15 % on a shared machine.
            run_cli_pass(journal, self.cli_plan, self.env, long_sweeps=2)
        if self.name != "simulate_long":
            for _ in range(2):
                run_sims(journal, self.sim_cases, PROBE_ROUNDS)
        if self.name != "uniqueness_grid":
            for _ in range(3):
                run_grid(journal, *PROBE_GRID)
