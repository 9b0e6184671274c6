"""Spans around calls into each layer's public functions, from outside the package.

``Tracer.segment`` replaces every module attribute in ``cutchoose`` that names
a wrapped function, so both the package's own calls and the benchmark's calls
go through the wrapper, and puts the originals back afterwards; untraced work
runs the package unchanged. Private helpers
(``_simplex_grid``, ``_build_parser``, ...) are not wrapped: their time is
the self time of the public function that calls them.

Each call records one span: the function, its parent span, start and end.
Spans stay in memory and are written out when the run ends. A span's self
time is its duration minus the durations of its child spans.

Memory is not traced during the timed spans: ``memory_peaks`` repeats the
largest traced ``grid_search`` and ``simulate`` calls under tracemalloc
afterwards.
"""

from __future__ import annotations

import importlib
import json
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

LAYERS = {
    "strategies": (
        "make_cutter",
        "make_chooser",
        "from_t_params",
        "to_t_params",
        "symmetric_chooser",
        "classify_preferences",
        "permute_foods",
    ),
    "diet": ("diet_profile", "fairness_residual"),
    "solver": (
        "residual_system",
        "solve_joint",
        "solve_chooser_given_cutter",
        "grid_search",
        "verify_uniqueness",
    ),
    "simulate": ("simulate", "check_convergence"),
    "election": ("to_election_report",),
    "cli": ("main", "build_config", "run"),
}

_MODULES = ("cutchoose", *(f"cutchoose.{layer}" for layer in LAYERS))


def _grid_points(args: tuple, kwargs: dict) -> int:
    config = kwargs.get("config", args[0] if args else None)
    n, m = config.simplex_divisions, config.t_divisions
    return (n + 1) * (n + 2) // 2 * (m + 1) ** 3


def _rounds(args: tuple, kwargs: dict) -> int:
    return int(kwargs.get("n_rounds", args[2] if len(args) > 2 else 0))


# Work counted per call; the largest call of each is kept for memory_peaks.
_COUNTED = {
    "solver.grid_search": ("points", _grid_points),
    "simulate.simulate": ("rounds", _rounds),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list[int]] = []  # [name index, parent span, start ns, end ns]
        self.notes: dict[int, dict[str, int]] = {}  # span -> work counts, peak bytes
        self.segments: list[tuple[str, int, int]] = []  # (kind, first span, end span)
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Callable, Callable]] = []
        self._largest: dict[str, tuple[int, Callable, tuple, dict]] = {}
        modules = [importlib.import_module(name) for name in _MODULES]
        for layer, functions in LAYERS.items():
            home = importlib.import_module(f"cutchoose.{layer}")
            for function in functions:
                original = getattr(home, function)
                wrapper = self._wrap(f"{layer}.{function}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original, wrapper))

    def _wrap(self, name: str, fn: Callable) -> Callable:
        index = len(self.names)
        self.names.append(name)
        spans, stack, notes, largest = self.spans, self._stack, self.notes, self._largest
        clock = time.perf_counter_ns
        counted = _COUNTED.get(name)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = [index, stack[-1] if stack else -1, 0, 0]
            i = len(spans)
            spans.append(span)
            stack.append(i)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if counted is not None:
                key, count = counted
                work = count(args, kwargs)
                notes[i] = {key: work}
                if name == "solver.grid_search":
                    notes[i]["hits"] = len(result)
                if work > largest.get(name, (-1,))[0]:
                    largest[name] = (work, fn, args, kwargs)
            return result

        return wrapper

    def segment(self, kind: str, work: Callable[[], Any]) -> None:
        """Run ``work`` with every wrapper installed, as one traced segment."""
        first = len(self.spans)
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        try:
            work()
        finally:
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)
        self.segments.append((kind, first, len(self.spans)))

    # ------------------------------------------------------------ aggregation

    def _stats(self, first: int, end: int) -> dict[str, Any]:
        child = defaultdict(int)
        for span in self.spans[first:end]:
            if span[1] >= first:
                child[span[1]] += span[3] - span[2]
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        work: dict[str, int] = defaultdict(int)
        for i in range(first, end):
            name_index, _, start, stop = self.spans[i]
            name = self.names[name_index]
            calls[name] += 1
            total[name] += (stop - start) * 1e-9
            own[name] += (stop - start - child[i]) * 1e-9
            note = self.notes.get(i, {})
            for key in ("points", "hits", "rounds"):
                work[key] += note.get(key, 0)
        return {"calls": calls, "total": total, "self": own, "work": work}

    def pass_stats(self) -> tuple[dict[str, Any], bool]:
        """Stats of one pass: the mean traced iteration plus the side mix.

        Returns the stats and whether every traced iteration did the same
        counted work (calls per function, points, hits, rounds).
        """
        iterations = [self._stats(a, b) for kind, a, b in self.segments if kind == "iteration"]
        side = [self._stats(a, b) for kind, a, b in self.segments if kind == "side"]
        merged: dict[str, Any] = {field: defaultdict(float) for field in ("calls", "total", "self", "work")}
        for divisor, group in ((len(iterations), iterations), (1, side)):
            for field in ("calls", "total", "self", "work"):
                for key in {key for stats in group for key in stats[field]}:
                    merged[field][key] += sum(stats[field][key] for stats in group) / divisor
        signature = [(dict(s["calls"]), dict(s["work"])) for s in iterations]
        return merged, all(sig == signature[0] for sig in signature)

    def memory_peaks(self) -> dict[str, float]:
        """Repeat the largest traced grid_search and simulate calls under tracemalloc."""
        peaks = {"solver.grid_peak_mb": 0.0, "simulate.bytes_per_round": 0.0}
        for name, (work, fn, args, kwargs) in self._largest.items():
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            if name == "solver.grid_search":
                peaks["solver.grid_peak_mb"] = peak / 2**20
            else:
                peaks["simulate.bytes_per_round"] = peak / work
        return peaks

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "names": self.names,
                    "segments": self.segments,
                    "fields": ["name", "parent", "start_ns", "end_ns"],
                    "spans": self.spans,
                    "notes": {str(k): v for k, v in self.notes.items()},
                },
                handle,
                separators=(",", ":"),
            )


def layer_metrics(stats: dict[str, Any]) -> dict[str, float]:
    """The per-layer metrics of one pass, but memory (see README.md)."""
    calls, total, own, work = (stats[k] for k in ("calls", "total", "self", "work"))

    def layer(name: str, table: dict) -> float:
        return sum(v for k, v in table.items() if k.startswith(name + "."))

    def per_call(name: str, scale: float, table: dict = total) -> float:
        return table[name] / calls[name] * scale if calls[name] else 0.0

    return {
        "strategies.calls": round(layer("strategies", calls)),
        "strategies.self_s": layer("strategies", own),
        "strategies.make_cutter_us": per_call("strategies.make_cutter", 1e6),
        "strategies.from_t_params_us": per_call("strategies.from_t_params", 1e6),
        "strategies.classify_preferences_us": per_call("strategies.classify_preferences", 1e6),
        "diet.calls": round(layer("diet", calls)),
        "diet.self_s": layer("diet", own),
        "diet.diet_profile_us": per_call("diet.diet_profile", 1e6),
        "diet.fairness_residual_us": per_call("diet.fairness_residual", 1e6),
        "solver.grid_search_self_s": own["solver.grid_search"],
        "solver.grid_points_nominal": round(work["points"]),
        "solver.verify_self_s": own["solver.verify_uniqueness"],
        "solver.grid_hits": round(work["hits"]),
        "solver.solve_joint_us": per_call("solver.solve_joint", 1e6),
        "solver.feasible_us": per_call("solver.solve_chooser_given_cutter", 1e6),
        "simulate.self_s": layer("simulate", own),
        "simulate.rounds": round(work["rounds"]),
        "simulate.check_convergence_us": per_call("simulate.check_convergence", 1e6),
        "election.report_us": per_call("election.to_election_report", 1e6),
        "cli.ops": round(calls["cli.main"]),
        "cli.main_self_ms": per_call("cli.main", 1e3, own),
        "cli.build_config_us": per_call("cli.build_config", 1e6),
        "cli.run_self_ms": per_call("cli.run", 1e3, own),
    }
