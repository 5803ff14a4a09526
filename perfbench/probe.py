"""Set-up time of one workload, measured in a fresh process.

Times ``import osp_lab`` plus ``generate_scenario`` and ``resolve_parameters``
(which includes the knapsack r* solve) for every part of the workload's
unit 0, and prints ``{"setup_s": ...}``.  numpy is imported before the clock
starts: its import time varies far more between processes than the program's.
"""

from __future__ import annotations

import argparse
import json
import time

import numpy  # noqa: F401

from workloads import WORKLOADS, unit_specs


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    t0 = time.perf_counter()
    from osp_lab.metrics_harness import generate_scenario, resolve_parameters

    for _, spec, algo, _ in unit_specs(args.workload, args.seed, 0):
        resolve_parameters(generate_scenario(spec), algo)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


if __name__ == "__main__":
    main()
