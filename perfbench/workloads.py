"""Workload definitions for the osp_lab benchmark.

Importing this module must not import osp_lab, because the set-up probe
times that import; ``unit_specs`` imports it on first use.  A workload is a
list of parts; one *experiment unit* runs every part once through
``run_experiment``.  Unit k of workload seed s uses scenario seed
``s * 10_000 + k`` and run seeds derived from it, so the same seed always
gives the same inputs and the program sees only those generated specs.
"""

from __future__ import annotations

DEFAULT_SEED = 0
UNITS_PER_SEED = 10_000

WORKLOADS = {
    "omg_d64": {
        "parts": [
            {
                "generator": "random_bilinear",
                "T": 1000,
                "params": {"d1": 64, "d2": 64},
                "algorithm": "omg_rftl",
                "algo_params": {"tol_gap": 1e-4, "hindsight_tol": 0.05},
                "seeds": 1,
            }
        ],
        "rerun_part": 0,
    },
    "sprftl_d2": {
        "parts": [
            {
                "generator": "random_bilinear",
                "T": 1000,
                "params": {"d1": 2, "d2": 2},
                "algorithm": "sprftl",
                "algo_params": {},
                "seeds": 1,
            }
        ],
        "rerun_part": 0,
    },
    "ocowk": {
        "parts": [
            {
                "generator": "ocowk_sec8",
                "T": 10_000,
                "params": {},
                "algorithm": "spftl_knapsack",
                "algo_params": {},
                "seeds": 1,
            },
            {
                "generator": "ocowk_sec8",
                "T": 10_000,
                "params": {},
                "algorithm": "pd_rftl",
                "algo_params": {},
                "seeds": 8,
            },
        ],
        # the pd_rftl seed-run is the cheap one to repeat
        "rerun_part": 1,
    },
}


def unit_specs(workload: str, seed: int, k: int) -> list:
    """(part, ScenarioSpec, AlgorithmSpec, run seeds) for every part of unit k.

    Imports osp_lab on first use.
    """
    from osp_lab.metrics_harness import AlgorithmSpec, ScenarioSpec

    if seed < 0 or not 0 <= k < UNITS_PER_SEED:
        raise ValueError("seed must be nonnegative and the unit index below 10_000")
    spec_seed = seed * UNITS_PER_SEED + k
    out = []
    for part in WORKLOADS[workload]["parts"]:
        spec = ScenarioSpec(part["generator"], T=part["T"], seed=spec_seed, params=dict(part["params"]))
        algo = AlgorithmSpec(part["algorithm"], dict(part["algo_params"]))
        out.append((part, spec, algo, [spec_seed * 64 + i for i in range(part["seeds"])]))
    return out


def regret_atol(part: dict) -> float:
    """Absolute tolerance on a reproduced regret.

    The hindsight solve is certified only to ``hindsight_tol``, and each
    per-round solve only to ``tol_gap``; a solver change may legitimately move
    a regret by that much.  PD-RFTL solves nothing per round.  Missing
    tolerances take the defaults of ``resolve_parameters``.
    """
    tol_gap = part["algo_params"].get("tol_gap", 1e-6)
    hindsight_tol = part["algo_params"].get("hindsight_tol", min(1e-6, tol_gap))
    per_round = 0.0 if part["algorithm"] == "pd_rftl" else part["T"] * tol_gap
    return hindsight_tol + per_round


REGRET_RTOL = 1e-9
