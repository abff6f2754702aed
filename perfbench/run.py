"""Benchmark of the POWER envelope oracle: time to verdict, per workload.

Usage, from the repository root::

    python3 perfbench/run.py --workload curated|gen-dpor|service \\
        --seed N --seconds S --trace 0|1 [--suite dev|holdout]

Each invocation runs one workload in a fresh process
(``perfbench/workload.py``), checks every verdict, and prints a table of
metrics followed, as the last line, by one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` installs the
span tracer (``perfbench/tracer.py``) around the oracle's entry points
and reports the per-layer metrics, writing the span dump and the
per-layer table under ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Set-up probes per run besides the workload process itself; the
#: reported ``setup_s`` is the median of all set-up samples.
SETUP_PROBES = 4
#: Every process this script starts must finish inside this many seconds.
DEADLINE_S = 170.0


def metric_units(section: str) -> dict:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _spawn(args, deadline: float):
    """Start ``workload.py``; return (set-up seconds, process)."""
    command = [sys.executable, str(HERE / "workload.py")] + args
    started = time.perf_counter()
    process = subprocess.Popen(
        command, cwd=str(ROOT), stdout=subprocess.PIPE, text=True,
    )
    # A process stuck before READY is killed at the deadline.
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), process.kill)
    watchdog.start()
    try:
        line = process.stdout.readline()
    finally:
        watchdog.cancel()
    setup = time.perf_counter() - started
    if line.strip() != "READY":
        _finish(process, deadline)
        raise BenchError(f"workload process did not get ready: {line!r}")
    return setup, process


def _finish(process, deadline: float) -> str:
    """Wait for ``process`` (killing it at the deadline); return its stdout."""
    try:
        output, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise BenchError("workload process passed the deadline") from None
    if process.returncode != 0:
        raise BenchError(f"workload process exited with code {process.returncode}")
    return output


def source_digest() -> str:
    """SHA-256 over the program's source tree (the checkout may lack git)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def environment(child_env: dict) -> dict:
    return dict(
        child_env,
        cpus=len(os.sched_getaffinity(0)),
        python=platform.python_version(),
        git_revision=git_revision(),
        source_digest=source_digest(),
    )


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    child_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace),
                  "--suite", args.suite]
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setup, process = _spawn(child_args + ["--probe"], deadline)
            _finish(process, deadline)
            setups.append(setup)
    setup, process = _spawn(child_args, deadline)
    setups.append(setup)
    output = _finish(process, deadline)
    result = json.loads(output.strip().splitlines()[-1])
    result["setup_samples"] = setups
    return result


def report(args, result: dict) -> dict:
    """Print the table; return the final JSON object."""
    raw = result["metrics"]
    if not args.trace:
        raw["setup_s"] = statistics.median(result["setup_samples"])
    units = metric_units("per_layer" if args.trace else "end_to_end")
    missing = sorted(set(units) - set(raw))
    if missing:
        raise BenchError(f"workload did not measure {missing}")
    metrics = {name: {"value": raw[name], "unit": unit} for name, unit in units.items()}
    problems = result["failures"] + result["determinism"]
    correct = not problems and result["failed"] == 0
    env = environment(result["env"])
    print(f"workload {args.workload}  seed {args.seed}  suite {args.suite}  "
          f"passes {result['passes']}  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, entry in metrics.items():
        print(f"  {name:32s} {entry['value']:>14.6g} {entry['unit']}")
    print(f"  {'failed_frac':32s} {result['failed'] / result['attempted']:>14.6g} ratio")
    if not args.trace:
        tail = raw["_tail"]
        print(f"  verdict_tail_s is p{tail['percentile']:.2f} of {tail['samples']} samples")
        print(f"  setup_s samples {[round(s, 4) for s in result['setup_samples']]}")
    else:
        print(f"  per-layer table and span dump: {OUT.relative_to(ROOT)}/"
              f"{args.workload}-seed{args.seed}-layers.txt, -spans.jsonl")
    for problem in problems:
        print(f"  FAILED {problem}")
    OUT.mkdir(parents=True, exist_ok=True)
    final = {"correct": correct, "attempted": result["attempted"],
             "failed": result["failed"], "metrics": metrics}
    record = dict(final, workload=args.workload, seed=args.seed, trace=args.trace,
                  passes=result["passes"], environment=env, problems=problems)
    if not args.trace:
        record["verdict_tail"] = raw["_tail"]
        record["setup_samples"] = result["setup_samples"]
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    return final


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("curated", "gen-dpor", "service"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--suite", choices=("dev", "holdout"), default="dev")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        final = report(args, run(args))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
