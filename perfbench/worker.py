"""One measured run of one workload, in a process started by run.py.

The load is a closed loop from this single process: experiment units run back
to back through ``run_experiment(..., workers=1)`` until ``--seconds`` of
measured time has passed, and every seed-run is checked.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs unit 0
alternately untraced and traced (see tracer.py) and reports the per-layer
metrics of the median traced pass; its counts repeat exactly for a seed.

``--record-reference`` rewrites reference.json from the current program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from osp_lab.metrics_harness import generate_scenario, run_experiment

from checks import Tally, check_reference, check_run, regret_values, same_bits
from tracer import Tracer
from workloads import DEFAULT_SEED, REGRET_RTOL, WORKLOADS, regret_atol, unit_specs

REFERENCE = Path(__file__).with_name("reference.json")


def say(*parts) -> None:
    print(*parts, flush=True)


def environment_line() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    threads = ",".join(f"{k}={os.environ.get(k, '-')}" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    return (
        f"env: nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
        f"python={platform.python_version()} numpy={np.__version__} blas={blas} {threads}"
    )


def run_unit(unit) -> tuple[list, float]:
    """Run every part of a unit; the wall time covers run_experiment only."""
    results, wall = [], 0.0
    for _, spec, algo, seeds in unit:
        t0 = time.perf_counter()
        results.append(run_experiment(spec, algo, seeds, workers=1))
        wall += time.perf_counter() - t0
    return results, wall


def check_unit(tally: Tally, label: str, unit, results, reference=None, baseline=None) -> None:
    """Check every seed-run of a unit; optionally against recorded regrets
    and bit for bit against an earlier pass over the same inputs."""
    for i, ((part, spec, algo, _), res) in enumerate(zip(unit, results)):
        scenario = generate_scenario(spec)
        tol_gap = float(res.resolved["tol_gap"][0])
        for j, run in enumerate(res.runs):
            fails = check_run(run, scenario.X, scenario.Y, spec.T, tol_gap, getattr(scenario, "instance", None))
            if reference is not None:
                ref = reference[i]["runs"].get(str(run.seed))
                if ref is None:
                    fails.append("no reference recorded for this seed")
                else:
                    fails += check_reference(run, ref, regret_atol(part), REGRET_RTOL)
            if baseline is not None and not same_bits(run, baseline[i].runs[j]):
                fails.append("rerun differs bitwise from the first pass")
            tally.add(f"{label} {algo.name} seed {run.seed}", run, fails)


def rounds(unit) -> int:
    return sum(spec.T * len(seeds) for _, spec, _, seeds in unit)


def reference_pass(workload: str, tally: Tally) -> None:
    """The default-seed unit 0, checked against reference.json; it also warms
    up the process before anything is timed."""
    unit = unit_specs(workload, DEFAULT_SEED, 0)
    results, _ = run_unit(unit)
    reference = json.loads(REFERENCE.read_text())[workload]
    check_unit(tally, "reference", unit, results, reference=reference)


def end_to_end(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    p = WORKLOADS[workload]["rerun_part"]
    played, measured, k, per_unit = 0, 0.0, 0, []
    while measured < seconds:
        unit = unit_specs(workload, seed, k)
        results, wall = run_unit(unit)
        check_unit(tally, f"unit {k}", unit, results)
        played += rounds(unit)
        measured += wall
        per_unit.append(rounds(unit) / wall)
        if k == 0:
            rerun_part, first_run = unit[p], results[p].runs[0]
        del results  # keep one unit's results alive at a time, so peak RSS does not grow with k
        k += 1
    # one seed-run of unit 0, rerun: must match bit for bit
    _, spec, algo, seeds = rerun_part
    again = run_experiment(spec, algo, seeds[:1], workers=1).runs[0]
    fails = [] if same_bits(first_run, again) else ["rerun differs bitwise"]
    tally.add(f"rerun {algo.name} seed {seeds[0]}", again, fails)
    say(f"units: {k} in {measured:.2f} s measured; rounds/s per unit " + " ".join(f"{v:.1f}" for v in per_unit))
    return {
        "rounds_per_s": (played / measured, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "certified_round_frac": (1.0 - tally.uncertified_round_frac, "frac"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def trace_bytes(results) -> int:
    return sum(
        v.nbytes for res in results for run in res.runs for v in vars(run.trace).values() if isinstance(v, np.ndarray)
    )


def per_layer(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    unit = unit_specs(workload, seed, 0)
    untraced, passes, baseline, measured = [], [], None, 0.0
    while measured < seconds or not passes:
        results, wall = run_unit(unit)
        check_unit(tally, "untraced", unit, results, baseline=baseline)
        baseline = baseline or results
        tracer = Tracer()
        tracer.install()
        try:
            traced_results, traced_wall = run_unit(unit)
        finally:
            tracer.uninstall()
        check_unit(tally, "traced", unit, traced_results, baseline=baseline)
        untraced.append(wall)
        passes.append((traced_wall, tracer, traced_results))
        measured += wall + traced_wall
    passes.sort(key=lambda p: p[0])
    wall, tracer, results = passes[(len(passes) - 1) // 2]
    metrics = tracer.layer_metrics(wall)
    metrics["metrics_harness.trace_bytes"] = float(trace_bytes(results))
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_frac"] = statistics.median(p[0] for p in passes) / statistics.median(untraced) - 1.0
    if tracer.missing:
        say("trace: not found in this program, reads 0: " + ", ".join(tracer.missing))
    say(f"trace: {len(passes)} traced passes; median pass wall {wall:.3f} s, {rounds(unit)} rounds")
    for name, st in sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_s):
        say(f"  span {name:32s} calls {st.calls:9d}  self {st.self_s:8.3f} s  {100 * st.self_s / wall:5.1f}%")
    other = metrics["trace.other_s"]
    say(f"  {'(not in any span)':37s} {'':15s} {other:8.3f} s  {100 * other / wall:5.1f}%")
    span_self = sum(st.self_s for st in tracer.stats.values())
    say(f"  span self times {span_self:.6f} s + other {other:.6f} s = traced wall {wall:.6f} s")
    # each run makes exactly one hindsight solve, in run order
    h = iter(tracer.hindsight)
    for (_, _, algo, _), res in zip(unit, results):
        for run in res.runs:
            gap, iters, uncertified = next(h, (float("nan"), 0, False))
            say(
                f"  {algo.name} seed {run.seed}: sp_regret {run.report.sp_regret:.6g} "
                f"+- hindsight gap {gap:.3g} ({iters} iters{', UNCERTIFIED' if uncertified else ''})"
            )
    return {k: (v, LAYER_UNITS.get(k.rsplit(".", 1)[-1], "count")) for k, v in metrics.items()}


LAYER_UNITS = {
    "self_s": "s",
    "s": "s",
    "r_star_s": "s",
    "other_s": "s",
    "wall_s": "s",
    "us_p50": "us",
    "us_p99": "us",
    "noniter_frac": "frac",
    "overhead_frac": "frac",
    "gap_max": "gap",
    "trace_bytes": "bytes",
}


def record_reference() -> None:
    out = {}
    for workload in WORKLOADS:
        unit = unit_specs(workload, DEFAULT_SEED, 0)
        results, _ = run_unit(unit)
        out[workload] = [
            {"algorithm": algo.name, "runs": {str(run.seed): regret_values(run) for run in res.runs}}
            for (_, _, algo, _), res in zip(unit, results)
        ]
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None or args.seed < 0:
        ap.error("--workload is required and --seed must be nonnegative")
    say(environment_line())
    tally = Tally()
    reference_pass(args.workload, tally)
    measure = per_layer if args.trace else end_to_end
    metrics = measure(args.workload, args.seed, args.seconds, tally)
    for msg in tally.messages:
        say("CHECK FAILED:", msg)
    say(f"failed_run_frac = {tally.failed_run_frac:.6g} frac ({tally.failed} of {tally.attempted} seed-runs)")
    say(f"uncertified_round_frac = {tally.uncertified_round_frac:.6g} frac ({tally.uncertified} of {tally.rounds} rounds)")
    say(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
