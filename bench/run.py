"""cutchoose benchmark: one run of one workload.

    python3 bench/run.py --workload cli_mix --seed 1 --seconds 32 --trace 0

Run it from the root of a checkout; the package is imported from ./src.
Workloads: uniqueness_grid, simulate_long, cli_mix (see bench/README.md).

This process only orchestrates: it imports neither numpy nor the package.
It starts fresh interpreters one at a time: SETUP_SAMPLES - 1 that only set
up, then the one that also runs the workload, and times each from start to
its READY line for ``setup_s``. While it waits, at most one worker and one
``python -m cutchoose`` subprocess of that worker run: two processes, the
nproc of the machine the benchmark was sized on. With ``--trace 0`` it prints every
end-to-end metric; with ``--trace 1`` every per-layer metric. The last line
of stdout is the result object; the line before it is the run record, which
is also written to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("uniqueness_grid", "simulate_long", "cli_mix")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150

def _declared(root: Path, trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this kind of run."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _start(root: Path, args: argparse.Namespace, setup_only: bool) -> tuple[subprocess.Popen, float, dict]:
    """Start a worker and wait for its READY line; returns (process, setup seconds, import times)."""
    argv = [
        sys.executable,
        str(root / "bench" / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        argv.append("--setup-only")
    env = dict(os.environ)
    env.pop("CUT_CHOOSE_SEED", None)
    start = time.perf_counter()
    # Its own process group, so a stuck worker is stopped with its subprocess.
    proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if not line.startswith("READY "):
        _stop(proc)
        raise RuntimeError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, setup, json.loads(line[len("READY "):])


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def _machine(root: Path) -> dict:
    info: dict = {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0))}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal"):
                info["mem_total"] = line.split(":", 1)[1].strip()
        caches = {}
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        info["caches"] = caches
    except OSError:
        pass
    info["commit"] = _commit(root)
    return info


def _commit(root: Path) -> str:
    """HEAD of a git checkout, read from .git; "unknown" outside one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    root = Path.cwd()
    for needed in ("src/cutchoose/__init__.py", "tests/oracles.py", "BENCHMARK.json"):
        if not (root / needed).is_file():
            print(f"error: {needed} not found; run from the root of a cutchoose checkout", file=sys.stderr)
            return 2

    setups, imports = [], []
    try:
        for _ in range(SETUP_SAMPLES - 1):
            proc, seconds, times = _start(root, args, setup_only=True)
            proc.communicate(timeout=CHILD_TIMEOUT_S)
            setups.append(seconds)
            imports.append(times)
        proc, seconds, times = _start(root, args, setup_only=False)
        setups.append(seconds)
        imports.append(times)
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        _stop(proc)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    lines = [line for line in out.splitlines() if line.startswith("RESULT ")]
    if proc.returncode != 0 or not lines:
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1][len("RESULT "):])

    samples = {name: m["samples"] for name, m in result["metrics"].items()}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if args.trace:
        for key in ("numpy_s", "cutchoose_s"):
            series = [t[key] for t in imports]
            samples[f"import.{key}"] = series
            values[f"import.{key}"] = statistics.median(series)
    else:
        samples["setup_s"] = setups
        values["setup_s"] = statistics.median(setups)

    units = _declared(root, args.trace)
    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {**_machine(root), "numpy": result["numpy"]},
        "runs": {
            "setup_samples": len(setups),
            "iterations": result["iterations"],
            "traced_iterations": result["traced_iterations"],
            "cli_ops": result["cli_ops"],
        },
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "failures": result["failures"][:50],
        "metrics": {
            name: {"value": values[name], "unit": units[name], **_quartiles(samples[name]), "samples": samples[name]}
            for name in sorted(values)
        },
    }
    if "spans_file" in result:
        record["spans_file"] = result["spans_file"]
    out_dir = root / "bench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(json.dumps({"run_record": record}))
    print(
        json.dumps(
            {
                "correct": failed == 0 and attempted > 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": values[name], "unit": units[name]} for name in sorted(values)},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
