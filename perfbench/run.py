"""Benchmark entry point for osp_lab.

    python3 perfbench/run.py --workload omg_d64 --seed 0 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.  Each
workload runs in a fresh worker process (worker.py) whose launch environment
pins BLAS and OpenMP to one thread, so the figures measure the program and
not the scheduler.  With ``--trace 0`` the set-up time is measured first in
several fresh probe processes (probe.py) and their median is reported.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A single workload
exits 0 whenever it prints that result; a failed output check shows as
``"correct": false`` and a nonzero ``failed``.  ``--workload all`` prints one
such block per workload and exits 1 when any check failed.  Without the
program's source, or when a child process fails or runs out of time, the
benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 15
DEADLINE_S = 170.0


class ChildFailed(RuntimeError):
    pass


def launch_env() -> dict:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p),
    )
    return env


def run_child(script: str, args: list[str], deadline: float) -> list[str]:
    """Run a benchmark script to completion; return its stdout lines."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed("out of time")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / script), *args],
            cwd=ROOT,
            env=launch_env(),
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise ChildFailed(f"{script} did not finish in time") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise ChildFailed(f"{script} exited with code {proc.returncode}")
    lines = proc.stdout.splitlines()
    if not lines:
        raise ChildFailed(f"{script} printed nothing")
    return lines


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> bool | None:
    """Measure one workload and print its result.

    Returns whether every output check passed, or None when no result could
    be produced.
    """
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed)]
    try:
        setup = []
        if trace == 0:
            for _ in range(SETUP_PROBES):
                setup.append(json.loads(run_child("probe.py", common, deadline)[-1])["setup_s"])
        lines = run_child("worker.py", [*common, "--seconds", str(seconds), "--trace", str(trace)], deadline)
    except (ChildFailed, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    print(f"workload {workload}, seed {seed}, {seconds:g} s, trace {trace}")
    print("\n".join(lines[:-1]))
    if setup:
        median = statistics.median(setup)
        print(f"setup probes ({len(setup)} fresh processes): " + " ".join(f"{s:.4f}" for s in setup))
        result["metrics"] = {"setup_s": {"value": median, "unit": "s"}, **result["metrics"]}
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result), flush=True)
    return bool(result["correct"])


def main() -> int:
    ap = argparse.ArgumentParser(description="osp_lab benchmark")
    ap.add_argument(
        "--workload", required=True, choices=[*sorted(WORKLOADS), "all"], help="'all' runs each workload in turn"
    )
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be nonnegative and --seconds positive")
    if not (ROOT / "src" / "osp_lab" / "__init__.py").is_file():
        print(f"error: no osp_lab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    passed = [run_workload(w, args.seed, args.seconds, args.trace) for w in names]
    if None in passed:
        return 1
    # A single workload that printed a result exits 0 and reports a failed
    # check through "correct" and "failed"; the all-workloads run exits 1.
    return 0 if args.workload != "all" or all(passed) else 1


if __name__ == "__main__":
    sys.exit(main())
