"""A corrupted result must be counted as a failed seed-run or an uncertified
round, never pass silently.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from osp_lab.metrics_harness import AlgorithmSpec, ScenarioSpec, generate_scenario, run_experiment  # noqa: E402

from checks import Tally, check_reference, check_run, regret_values, same_bits  # noqa: E402

OMG_TOL = 1e-4


def _run(spec, algo):
    res = run_experiment(spec, algo, [0], workers=1)
    return generate_scenario(spec), res.runs[0]


@pytest.fixture(scope="module")
def omg():
    spec = ScenarioSpec("random_bilinear", T=60, seed=3, params={"d1": 4, "d2": 4})
    return _run(spec, AlgorithmSpec("omg_rftl", {"tol_gap": OMG_TOL, "hindsight_tol": 0.05}))


@pytest.fixture(scope="module")
def knap():
    return _run(ScenarioSpec("ocowk_sec8", T=300, seed=0), AlgorithmSpec("pd_rftl"))


def tally_omg(omg, run, reference=None) -> Tally:
    scenario, _ = omg
    fails = check_run(run, scenario.X, scenario.Y, 60, OMG_TOL)
    if reference is not None:
        fails += check_reference(run, reference, atol=1e-9, rtol=1e-9)
    tally = Tally()
    tally.add("omg", run, fails)
    return tally


def tally_knap(knap, run) -> Tally:
    scenario, _ = knap
    tally = Tally()
    tally.add("knap", run, check_run(run, scenario.X, scenario.Y, 300, 1e-6, scenario.instance))
    return tally


def test_clean_runs_pass(omg, knap):
    clean = tally_omg(omg, omg[1], reference=regret_values(omg[1]))
    assert (clean.failed, clean.uncertified, clean.rounds) == (0, 0, 60)
    assert tally_knap(knap, knap[1]).failed == 0


def test_action_outside_x_fails(omg):
    run = copy.deepcopy(omg[1])
    run.trace.xs[5] = np.full(4, 0.3)  # sums to 1.2
    assert tally_omg(omg, run).failed_run_frac == 1.0


def test_dual_action_outside_y_fails(knap):
    run = copy.deepcopy(knap[1])
    run.trace.ys[7, 0] = 2.0 * knap[0].instance.y_max[0]
    assert tally_knap(knap, run).failed == 1


def test_perturbed_regret_fails(omg):
    reference = regret_values(omg[1])
    run = copy.deepcopy(omg[1])
    run.report.sp_regret += 1e-3
    assert tally_omg(omg, run, reference=reference).failed == 1
    run.report.sp_regret = float("nan")
    assert tally_omg(omg, run).failed == 1


def test_budget_exceeded_round_is_counted_uncertified(omg):
    run = copy.deepcopy(omg[1])
    run.trace.solver_gaps[9] = 10 * OMG_TOL
    run.budget_exceeded_rounds = 1
    tally = tally_omg(omg, run)
    assert tally.failed == 0
    assert tally.uncertified_round_frac == pytest.approx(1 / 60)


def test_uncertified_round_not_counted_as_budget_exceeded_fails(omg):
    run = copy.deepcopy(omg[1])
    run.trace.solver_gaps[9] = 10 * OMG_TOL
    assert tally_omg(omg, run).failed == 1


def test_budget_accounting_violation_fails(knap):
    run = copy.deepcopy(knap[1])
    run.trace.rewards_collected[20] = 0.0 if run.trace.reward_values[20] != 0.0 else 1.0
    assert tally_knap(knap, run).failed == 1
    run = copy.deepcopy(knap[1])
    run.trace.violated_flags[10] = True  # set, then cleared on the next round
    assert tally_knap(knap, run).failed == 1


def test_one_ulp_change_breaks_bitwise_rerun(omg):
    run = copy.deepcopy(omg[1])
    assert same_bits(run, omg[1])
    run.trace.xs[0, 0] = np.nextafter(run.trace.xs[0, 0], 1.0)
    assert not same_bits(run, omg[1])
