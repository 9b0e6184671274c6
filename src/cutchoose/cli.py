"""Command-line front end: analyses, simulations, sweeps, JSON/CSV reports.

Commands: diet, classify, solve, feasible, simulate, sweep,
verify-uniqueness, election. Strategy inputs accept exact fractions ("1/3")
as well as decimals; fractions are parsed as rationals and converted to float
once, so the central value 1/3 is represented faithfully. Reports are JSON
(canonical) or CSV (sweep), with the schema documented in the README.

The CLI declares each RunConfig field's flag, help and parser once (field
metadata), each command's runner and fields once (``_COMMANDS``), and turns
library objects into JSON through one hook (``_jsonable``). The argument
parser is built once per process, and numpy is imported only by the commands
that compute with arrays (simulate, verify-uniqueness).

Exit codes: 0 success (an infeasible verdict is a successful answer),
2 invalid configuration, 3 failed check (verify-uniqueness), 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import enum
import functools
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from fractions import Fraction
from typing import Any, Callable, NamedTuple, Sequence

from . import __version__
from .diet import diet_profile, fairness_residual
from .election import to_election_report
from .errors import CutChooseError
from .simulate import GENERATOR_NAME, simulate
from .solver import GridSearchConfig, solve_chooser_given_cutter, solve_joint, verify_uniqueness
from .strategies import (
    PREFERENCE_PAIRS,
    ChooserStrategy,
    CutterStrategy,
    PreferenceClass,
    TParams,
    classify_preferences,
    from_t_params,
    make_chooser,
    make_cutter,
    symmetric_chooser,
)

SEED_ENV_VAR = "CUT_CHOOSE_SEED"

_NEAR_UNIFORM_WARN = 1e-9
_SWEEP_ROW_BUDGET = 10**5

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHECK = 3
EXIT_IO = 4


class ConfigInvalid(CutChooseError):
    """The run configuration cannot be executed."""


# Value parsers, shared by flags (always strings) and config files (also JSON
# numbers and arrays). build_config turns their TypeError, ValueError and
# ArithmeticError into ConfigInvalid.


def _number(value: Any) -> float:
    if isinstance(value, str) and "/" in value:
        return float(Fraction(value))
    return float(value)


class _Spelled(float):
    """A parsed number that keeps the exact rational it was written as."""

    __slots__ = ("exact",)

    def __new__(cls, value: Any) -> _Spelled:
        number = super().__new__(cls, _number(value))
        number.exact = _rational(value)
        return number


def _rational(value: Any) -> Fraction:
    """The rational a number was written as, not its binary value: text as
    spelled (decimal or a/b), a float by its shortest repr, an int as is."""
    if isinstance(value, _Spelled):
        return value.exact
    return Fraction(repr(value) if isinstance(value, float) else value)


def _three(convert: Callable[[Any], Any], sep: str = ",") -> Callable[[Any], tuple]:
    """Parser of three values: a sep-separated string or a JSON array."""

    def parse(value: Any) -> tuple:
        parts = value.split(sep) if isinstance(value, str) else list(value)
        if len(parts) != 3:
            raise ValueError(f"needs three {sep!r}-separated values")
        return tuple(convert(x) for x in parts)

    return parse


def _integer(value: Any) -> int:
    # Only JSON integers and integer strings: 10.7 must not run as 10.
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError("must be an integer")
    return int(value)


def _option(
    parse: Callable[[Any], Any], default: Any = None, flags: tuple[str, ...] = (), **kwargs: Any
) -> Any:
    """A RunConfig field set by config-file key or flag; kwargs go to add_argument."""
    return field(default=default, metadata={"parse": parse, "flags": flags, "argparse": kwargs})


@dataclass
class RunConfig:
    """One command invocation; field names mirror the CLI flags and config file keys."""

    command: str
    cutter: tuple[float, float, float] | None = _option(
        _three(_number),
        metavar="P0,P1,P2",
        help="cutter rejection probabilities; fractions like 1/3 allowed",
    )
    chooser: tuple[float, float, float] | None = _option(  # (c10, c01, c12)
        _three(_number),
        metavar="C10,C01,C12",
        help="chooser conditionals c[1|0],c[0|1],c[1|2] (complements derived)",
    )
    t: tuple[float, float, float] | None = _option(
        _three(_number),
        metavar="T0,T1,T2",
        help="chooser t-parameters in [-1,1]; exclusive with --chooser",
    )
    labels: tuple[str, str, str] | None = _option(
        _three(str), metavar="A,B,C", help="three distinct candidate labels"
    )
    n_rounds: int | None = _option(_integer, flags=("-n", "--rounds"), help="number of rounds")
    seed: int = _option(_integer, 0, help=f"64-bit seed (default: ${SEED_ENV_VAR} or 0)")
    eps: float = _option(_number, 0.0, help="tie tolerance in [0,1) (default 0)")
    tolerance: float = _option(_number, 1e-9, help="fairness tolerance (default 1e-9)")
    tol: float = _option(_number, 1e-9, help="allowed cutter distance from uniform (default 1e-9)")
    simplex_step: float = _option(_number, 1.0 / 24.0, help="cutter grid spacing")
    t_step: float = _option(_number, 0.1, help="t grid spacing per axis")
    residual_tol: float = _option(_number, 1e-9, help="hit tolerance")
    family_tol: float = _option(_number, 1e-9, help="distance-to-family tolerance")
    t_range: tuple[float, float, float] | None = _option(
        _three(_Spelled, ":"), metavar="LO:HI:STEP", help="sweep grid"
    )
    format: str | None = _option(str, choices=("json", "csv"), help="report format")
    out: str | None = _option(str, metavar="PATH", help="write the report to a file")


_OPTIONS = {f.name: f.metadata for f in fields(RunConfig) if f.metadata}


def _build_cutter(config: RunConfig) -> CutterStrategy:
    if config.cutter is None:
        raise ConfigInvalid(f"command {config.command!r} requires --cutter")
    cutter = make_cutter(*config.cutter)
    deviation = max(abs(x - 1.0 / 3.0) for x in cutter.p)
    if 0.0 < deviation < _NEAR_UNIFORM_WARN:
        print(
            f"warning: cutter is within {deviation:.3g} of uniform but not exactly "
            "uniform; fairness is infeasible by less than 1e-9. Pass --cutter "
            "1/3,1/3,1/3 for the exact point.",
            file=sys.stderr,
        )
    return cutter


def _build_chooser(config: RunConfig) -> ChooserStrategy:
    if (config.chooser is None) == (config.t is None):
        raise ConfigInvalid(
            f"command {config.command!r} requires exactly one chooser "
            "specification: --chooser c10,c01,c12 or --t t0,t1,t2"
        )
    if config.chooser is not None:
        return make_chooser(*config.chooser)
    return from_t_params(TParams(*config.t))  # type: ignore[misc]


def _class_label(preference_class: PreferenceClass) -> str:
    if preference_class.order is not None:
        return preference_class.kind.value + ":" + ">".join(map(str, preference_class.order))
    return preference_class.kind.value


def _jsonable(value: Any) -> Any:
    """``json.dumps`` hook: the report form of a library object."""
    if isinstance(value, CutterStrategy):
        return value.p
    if isinstance(value, TParams):
        return value.t
    if isinstance(value, enum.Enum):
        return value.value
    if is_dataclass(value):
        return {f.name: getattr(value, f.name) for f in fields(value)}
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


# Runners return (exit status, results); results may hold library objects.


def _run_diet(config: RunConfig) -> tuple[int, Any]:
    profile = diet_profile(_build_cutter(config), _build_chooser(config))
    report = fairness_residual(profile, config.tolerance)
    return EXIT_OK, {"lambda": profile.lam, "omega": profile.omega, **_jsonable(report)}


def _run_classify(config: RunConfig) -> tuple[int, Any]:
    chooser = _build_chooser(config)
    relation, preference_class = classify_preferences(chooser, config.eps)
    verdicts = [
        {"pair": pair, "verdict": verdict, "winner": relation.winner(i)}
        for i, (pair, verdict) in enumerate(zip(PREFERENCE_PAIRS, relation.verdicts))
    ]
    return EXIT_OK, {
        "chooser": dict(sorted(_jsonable(chooser).items())),  # c01, c02, c10, ...
        "relation": {"eps": relation.eps, "verdicts": verdicts},
        "classification": preference_class,
    }


def _run_solve(config: RunConfig) -> tuple[int, Any]:
    family = solve_joint()
    return EXIT_OK, {**_jsonable(family), "self_check": family.self_check()}


def _run_feasible(config: RunConfig) -> tuple[int, Any]:
    result = solve_chooser_given_cutter(_build_cutter(config), config.tol)
    # Either the family or the certificate fields are set; the rest are None.
    answer = {k: v for k, v in _jsonable(result).items() if k != "feasible" and v is not None}
    return EXIT_OK, {"feasible": result.feasible, "tol": config.tol, **answer}


_SIMULATE_KEYS = (
    "n_rounds",
    "seed",
    "generator",
    "counts_lambda",
    "counts_omega",
    "counts_rejected",
    "empirical_lambda",
    "empirical_omega",
)


def _run_simulate(config: RunConfig) -> tuple[int, Any]:
    cutter = _build_cutter(config)
    chooser = _build_chooser(config)
    if config.n_rounds is None:
        raise ConfigInvalid("command 'simulate' requires --rounds")
    result = simulate(cutter, chooser, config.n_rounds, config.seed)
    return EXIT_OK, {key: getattr(result, key) for key in _SIMULATE_KEYS}


def _sweep_values(config: RunConfig) -> list[float]:
    if config.t_range is None:
        raise ConfigInvalid("command 'sweep' requires --t-range lo:hi:step")
    lo, hi, step = config.t_range
    # Rows are counted over the rationals as written, not over their floats:
    # 0:0.3:0.1 has 4 rows and 0:0.29999999995:0.1 has 3, although both float
    # quotients lie just below 3. Only finite, ordered floats reach the count.
    rows = 0
    if 0 < step < math.inf and -1.0 <= lo <= hi <= 1.0:
        first, last, spacing = map(_rational, config.t_range)
        rows = math.floor((last - first) / spacing) + 1
    if rows < 1:
        raise ConfigInvalid(
            f"t range must satisfy -1 <= lo <= hi <= 1 and step > 0, got {lo}:{hi}:{step}"
        )
    if rows > _SWEEP_ROW_BUDGET:
        raise ConfigInvalid(f"t range exceeds the {_SWEEP_ROW_BUDGET}-row budget")
    # With lo and hi in [-1, 1] the clamp only absorbs rounding past an end.
    return [min(max(lo + i * step, -1.0), 1.0) for i in range(rows)]


def _run_sweep(config: RunConfig) -> tuple[int, Any]:
    cutter = make_cutter(*(config.cutter or (1.0 / 3.0,) * 3))
    rows = []
    for t in _sweep_values(config):
        chooser = symmetric_chooser(t)
        _, preference_class = classify_preferences(chooser, config.eps)
        report = fairness_residual(diet_profile(cutter, chooser), config.tolerance)
        rows.append(
            {
                "t": t,
                "preference_class": _class_label(preference_class),
                "lambda_residuals": report.lambda_residuals,
                "omega_residuals": report.omega_residuals,
            }
        )
    return EXIT_OK, {"rows": rows}


SWEEP_CSV_COLUMNS = [
    "t",
    "preference_class",
    "lambda_residual_0",
    "lambda_residual_1",
    "lambda_residual_2",
    "omega_residual_0",
    "omega_residual_1",
    "omega_residual_2",
]


def _sweep_csv(rows: list[dict[str, Any]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(SWEEP_CSV_COLUMNS)
    writer.writerows(
        [f"{row['t']:.17g}", row["preference_class"]]
        + [f"{x:.17g}" for x in row["lambda_residuals"] + row["omega_residuals"]]
        for row in rows
    )
    return buffer.getvalue()


def _run_verify_uniqueness(config: RunConfig) -> tuple[int, Any]:
    grid = GridSearchConfig(config.simplex_step, config.t_step, config.residual_tol)
    report = verify_uniqueness(grid, config.family_tol)
    hit = report.worst_offender
    # Reported under the key "t", not GridHit's field name t_params.
    worst = hit and dict(cutter=hit.cutter, t=hit.t_params, max_abs_residual=hit.max_abs_residual)
    results = {**_jsonable(report), "worst_offender": worst, "grid": grid}
    return (EXIT_OK if report.passed else EXIT_CHECK), results


def _run_election(config: RunConfig) -> tuple[int, Any]:
    cutter = _build_cutter(config)
    chooser = _build_chooser(config)
    labels = config.labels if config.labels is not None else ("A", "B", "C")
    return EXIT_OK, to_election_report(cutter, chooser, labels)


class _Command(NamedTuple):
    runner: Callable[[RunConfig], tuple[int, Any]]
    help: str
    fields: tuple[str, ...]  # RunConfig fields it reads: its flags and its "inputs"


_COMMANDS = {
    "diet": _Command(
        _run_diet,
        "exact diet frequencies and fairness residuals",
        ("cutter", "chooser", "t", "tolerance"),
    ),
    "classify": _Command(
        _run_classify, "preference relation and cycle classification", ("chooser", "t", "eps")
    ),
    "solve": _Command(_run_solve, "closed-form joint fairness solution family", ()),
    "feasible": _Command(
        _run_feasible, "fairness feasibility for a fixed cutter", ("cutter", "tol")
    ),
    "simulate": _Command(
        _run_simulate, "seeded Monte Carlo play", ("cutter", "chooser", "t", "n_rounds", "seed")
    ),
    "sweep": _Command(
        _run_sweep,
        "sweep the symmetric chooser family over t",
        ("cutter", "t_range", "eps", "tolerance"),
    ),
    "verify-uniqueness": _Command(
        _run_verify_uniqueness,
        "brute-force check that only the family is fair",
        ("simplex_step", "t_step", "residual_tol", "family_tol"),
    ),
    "election": _Command(
        _run_election,
        "two-phase election view of a strategy pair",
        ("cutter", "chooser", "t", "labels"),
    ),
}


@functools.cache
def _numpy_version() -> str:
    """numpy's version, read without importing numpy when it is not loaded yet."""
    numpy = sys.modules.get("numpy")
    if numpy is not None:
        return numpy.__version__
    from importlib.metadata import version  # on first use: it pulls in email, zipfile and more

    return version("numpy")


def run(config: RunConfig) -> tuple[int, str]:
    """Execute one command and return (exit status, serialized report)."""
    command = _COMMANDS.get(config.command)
    if command is None:
        raise ConfigInvalid(f"unknown command {config.command!r}")
    fmt = config.format or ("csv" if config.command == "sweep" else "json")
    if fmt not in ("json", "csv"):
        raise ConfigInvalid(f"unknown format {config.format!r}")
    if fmt == "csv" and config.command != "sweep":
        raise ConfigInvalid("csv output is only available for the sweep command")

    try:
        status, results = command.runner(config)
    except ConfigInvalid:
        raise
    except CutChooseError as exc:
        raise ConfigInvalid(str(exc)) from exc
    if fmt == "csv":
        return status, _sweep_csv(results["rows"])

    report = {
        "command": config.command,
        "inputs": {k: v for k in command.fields if (v := getattr(config, k)) is not None},
        "results": results,
        "versions": {
            "artifact": __version__,
            "generator": f"{GENERATOR_NAME} (numpy {_numpy_version()})",
        },
    }
    return status, json.dumps(report, indent=2, default=_jsonable) + "\n"


def _add_flag(parser: argparse.ArgumentParser, name: str) -> None:
    option = _OPTIONS[name]
    flags = option["flags"] or ("--" + name.replace("_", "-"),)
    parser.add_argument(*flags, dest=name, **option["argparse"])


@functools.cache  # parse_args keeps no state between calls, so one parser serves all
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutchoose",
        description="Analyze and simulate the three-goods cut-and-choose game.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for key in command.fields:
            _add_flag(p, key)
        p.add_argument("--config", metavar="PATH", help="JSON file with RunConfig fields")
        _add_flag(p, "format")
        _add_flag(p, "out")
    return parser


def _load_config_file(path: str) -> dict[str, Any]:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigInvalid(f"config file {path!r} must hold a JSON object")
    return data


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge CLI flags, config file, environment, and defaults into a RunConfig."""
    reads = _COMMANDS[args.command].fields
    values: dict[str, Any] = {}
    if getattr(args, "config", None):
        values = _load_config_file(args.config)
        named = values.pop("command", args.command)
        if named != args.command:
            raise ConfigInvalid(
                f"config file names command {named!r} but {args.command!r} was invoked"
            )
        unknown = set(values) - {*reads, "format", "out"}
        if unknown:
            raise ConfigInvalid(f"unknown config fields for {args.command!r}: {sorted(unknown)}")
    # The env var stands in for an absent --seed flag, beating config files.
    if "seed" in reads and getattr(args, "seed", None) is None and os.environ.get(SEED_ENV_VAR):
        values["seed"] = os.environ[SEED_ENV_VAR]
    values.update((k, v) for k, v in vars(args).items() if k in _OPTIONS and v is not None)

    parsed: dict[str, Any] = {}
    for key, value in values.items():
        if value is None:  # a JSON null leaves the default
            continue
        try:
            parsed[key] = _OPTIONS[key]["parse"](value)
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise ConfigInvalid(f"invalid {key} {value!r}: {exc}") from exc
    return RunConfig(args.command, **parsed)


# Flags whose values may start with a minus sign; argparse would otherwise
# read "--t-range -1:1:0.1" as a flag followed by an unknown option.
_MERGE_FLAGS = ("--t-range", "--t")


def _merge_dash_values(argv: list[str]) -> list[str]:
    merged: list[str] = []
    for token in argv:
        if merged and merged[-1] in _MERGE_FLAGS and token.startswith("-"):
            merged[-1] += "=" + token
        else:
            merged.append(token)
    return merged


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_merge_dash_values(list(argv if argv is not None else sys.argv[1:])))
    try:
        config = build_config(args)
        status, text = run(config)
    except ConfigInvalid as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if config.out:
            with open(config.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return status


if __name__ == "__main__":
    sys.exit(main())
