"""One run loop over block streams.

Every scenario plays its rounds in blocks and accounts for each block at the
played pairs in array passes.  The block streams must be the per-round
streams they replaced, and a run must have the bits of a hand loop that
folds every round into a running sum and two restriction sums as it is
played, with the restriction formulas the payoff classes used to carry.
"""

import math
import tracemalloc

import numpy as np
import pytest

from osp_lab.geometry import Box
from osp_lab.knapsack import KnapsackLagrangian, PDRFTLConfig, benchmark_r_star, sec82_instance
from osp_lab.matrix_games import BanditConfig, OMGConfig
from osp_lab.metrics_harness import AlgorithmSpec, ScenarioSpec, generate_scenario, resolve_parameters, run_single
from osp_lab.osp_algorithms import SPFTL, SPRFTL, OGDAConfig, SPFTLConfig, SPRFTLConfig
from osp_lab.payoffs import (
    BilinearPayoff,
    PayoffFunction,
    ScalarQuadraticBilinear,
    SeparableQuadratic,
    SquaredNormRegularizer,
    SumPayoff,
    make_bilinear,
    make_quadratic_bilinear,
)
from osp_lab.saddle_solver import SolverConfig, solve_saddle

from brute_oracles import RestrictionSum


def _stream(spec_seed: int, run_seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((spec_seed, run_seed, 5550001))))


# ---------------------------------------------------------------------------
# Block streams equal the per-round streams
# ---------------------------------------------------------------------------


def test_random_bilinear_blocks_equal_per_round_draws():
    # T = 37 is no multiple of the block, and 3 x 5 = 15 draws a round leave
    # half of a 64-bit output over for the next round
    spec = ScenarioSpec("random_bilinear", T=37, seed=4, params={"d1": 3, "d2": 5})
    for run_seed in (0, 9):
        rng = _stream(4, run_seed)
        want = [rng.integers(0, 2, size=(3, 5)).astype(float) * 2.0 - 1.0 for _ in range(37)]
        got = [f.A for f in generate_scenario(spec).payoffs(run_seed)]
        assert len(got) == 37
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


def test_iid_quadratic_centers_equal_interleaved_scalar_draws():
    H, hw = 0.7, 0.4
    spec = ScenarioSpec("iid_quadratic", T=23, seed=6, params={"H": H, "halfwidth": hw})
    rng = _stream(6, 2)
    want = []
    for _ in range(23):
        p = rng.uniform(-hw, hw)
        q = rng.uniform(-hw, hw)
        want.append(make_quadratic_bilinear(1.0, H, p, q, hw, hw))
    assert list(generate_scenario(spec).payoffs(2)) == want


# ---------------------------------------------------------------------------
# Bitwise hand-loop references
# ---------------------------------------------------------------------------


def _bilinear_restrictions(f: BilinearPayoff, x, y):
    """f(., y) and f(x, .), by the retired ``BilinearPayoff.restrict_*``."""
    d1, d2 = f.A.shape
    return SeparableQuadratic(np.zeros(d1), f.A @ y, 0.0), SeparableQuadratic(np.zeros(d2), f.A.T @ x, 0.0)


def _quadratic_restrictions(f: ScalarQuadraticBilinear, x, y):
    """f(., y) and f(x, .), by the retired ``ScalarQuadraticBilinear.restrict_*``."""
    xv, yv = float(x[0]), float(y[0])
    rx = SeparableQuadratic(np.array([f.cx2]), np.array([f.cxy * yv + f.cx1]), f.cy2 * yv * yv + f.cy1 * yv + f.c0)
    ry = SeparableQuadratic(np.array([f.cy2]), np.array([f.cxy * xv + f.cy1]), f.cx2 * xv * xv + f.cx1 * xv + f.c0)
    return rx, ry


def _hand_loop(agent, payoffs: list[PayoffFunction], restrictions, X, Y, emit_series: bool):
    """The trace, report fields and series of a run that folds each round
    as it is played, with the harness's default tolerances."""
    raw_sum = SumPayoff()
    acc_x, acc_y = RestrictionSum(), RestrictionSum()
    cols = {k: [] for k in ("xs", "ys", "payoff_values", "solver_gaps")}
    series = {k: [] for k in ("t", "cum_payoff", "cum_sp_regret", "cum_ind_x", "cum_ind_y")}
    track = None
    for f in payoffs:
        x, y = agent.current_action
        agent.step(f)
        for col, v in zip(cols.values(), (x, y, f.value(x, y), agent.last_gap)):
            col.append(v)
        raw_sum.add(f)
        rx, ry = restrictions(f, x, y)
        acc_x.add(rx)
        acc_y.add(ry)
        if emit_series:
            sol = solve_saddle(raw_sum, X, Y, SolverConfig(tol_gap=1e-6, max_iters=50_000, warm_start=track))
            track = (sol.x_star, sol.y_star)
            cum = float(np.sum(cols["payoff_values"]))
            row = (len(cols["xs"]), cum, abs(cum - sol.value), cum - acc_x.minimize(X), acc_y.maximize(Y) - cum)
            for col, v in zip(series.values(), row):
                col.append(v)
    cols["final_x"], cols["final_y"] = agent.current_action
    realized = float(np.sum(cols["payoff_values"]))
    hindsight = SolverConfig(tol_gap=1e-6, max_iters=200_000, warm_start=agent.current_action)
    hv = solve_saddle(raw_sum, X, Y, hindsight).value
    report = {
        "sp_regret": abs(realized - hv),
        "ind_regret_x": realized - acc_x.minimize(X),
        "ind_regret_y": acc_y.maximize(Y) - realized,
        "hindsight_value": hv,
    }
    return cols, report, series if emit_series else None


def _assert_same_bits(run, cols, report, series):
    for k, v in cols.items():
        got, want = getattr(run.trace, k), np.asarray(v)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), k
    for k, v in report.items():
        got = getattr(run.report, k)
        assert type(got) is type(v) and got == v, k
    if series is None:
        assert run.report.per_round_series is None
        return
    assert list(run.report.per_round_series) == list(series)
    for k, v in series.items():
        got, want = run.report.per_round_series[k], np.asarray(v)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), k


@pytest.mark.parametrize("emit_series", [False, True])
def test_random_bilinear_sprftl_run_matches_a_hand_loop(emit_series):
    # T = 50 plays three full blocks and a partial one
    T, seed = 50, 3
    spec = ScenarioSpec("random_bilinear", T=T, seed=8, params={"d1": 2, "d2": 2})
    algo = AlgorithmSpec("sprftl")
    scenario = generate_scenario(spec)
    resolved = resolve_parameters(scenario, algo)
    run = run_single(spec, algo, seed, emit_series=emit_series)
    X, Y = scenario.X, scenario.Y
    config = SPRFTLConfig(
        float(resolved["eta"][0]),
        SquaredNormRegularizer(float(resolved["radius_x"][0])),
        SquaredNormRegularizer(float(resolved["radius_y"][0])),
        SolverConfig(tol_gap=1e-6, max_iters=50_000),
    )
    rng = _stream(8, seed)
    payoffs = [make_bilinear(rng.integers(0, 2, size=(2, 2)).astype(float) * 2.0 - 1.0) for _ in range(T)]
    _assert_same_bits(run, *_hand_loop(SPRFTL(X, Y, config), payoffs, _bilinear_restrictions, X, Y, emit_series))


@pytest.mark.parametrize("emit_series", [False, True])
def test_iid_quadratic_spftl_run_matches_a_hand_loop(emit_series):
    T, seed, H, hw = 40, 1, 1.0, 1.0
    spec = ScenarioSpec("iid_quadratic", T=T, seed=5)
    run = run_single(spec, AlgorithmSpec("spftl"), seed, emit_series=emit_series)
    X = Y = Box(np.array([-hw]), np.array([hw]))
    agent = SPFTL(X, Y, SPFTLConfig(solver=SolverConfig(tol_gap=1e-6, max_iters=50_000)))
    rng = _stream(5, seed)
    payoffs = []
    for _ in range(T):
        p = rng.uniform(-hw, hw)
        q = rng.uniform(-hw, hw)
        payoffs.append(make_quadratic_bilinear(1.0, H, p, q, hw, hw))
    _assert_same_bits(run, *_hand_loop(agent, payoffs, _quadratic_restrictions, X, Y, emit_series))


def test_payoffs_carry_no_restrictions():
    # the harness accounts from rows; only the running sum restricts itself
    for cls in (PayoffFunction, ScalarQuadraticBilinear, BilinearPayoff, KnapsackLagrangian):
        assert "restrict_x" not in vars(cls) and "restrict_y" not in vars(cls), cls
    assert "restrict_x" in vars(SumPayoff) and "restrict_y" in vars(SumPayoff)


def test_matrix_accounting_memory_stays_bounded():
    # the omg_d64 benchmark unit: a whole-run T x d1 x d2 draw would take 31 MB
    spec = ScenarioSpec("random_bilinear", T=1000, seed=0, params={"d1": 64, "d2": 64})
    algo = AlgorithmSpec("omg_rftl", {"tol_gap": 1e-4, "hindsight_tol": 0.05})
    resolved = resolve_parameters(generate_scenario(spec), algo)
    tracemalloc.start()
    try:
        run_single(spec, algo, 0, resolved=resolved)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


# ---------------------------------------------------------------------------
# Parameter checks
# ---------------------------------------------------------------------------

_NON_FINITE = [math.nan, math.inf, -math.inf]

_CONFIGS = [
    (SolverConfig, {}, "tol_gap"),
    (SolverConfig, {}, "max_iters"),
    (SPRFTLConfig, {"eta": 1.0, "reg_x": None, "reg_y": None}, "eta"),
    (OGDAConfig, {}, "constant"),
    (OGDAConfig, {}, "constant_y"),
    (OMGConfig, {"eta": 1.0, "theta": 0.01}, "eta"),
    (OMGConfig, {"eta": 1.0, "theta": 0.01}, "theta"),
    (BanditConfig, {"eta": 1.0, "delta": 0.1, "rng_seed": 0}, "eta"),
    (BanditConfig, {"eta": 1.0, "delta": 0.1, "rng_seed": 0}, "delta"),
    (PDRFTLConfig, {"eta1": 1.0, "eta2": 1.0}, "eta1"),
    (PDRFTLConfig, {"eta1": 1.0, "eta2": 1.0}, "eta2"),
]


@pytest.mark.parametrize("value", _NON_FINITE)
@pytest.mark.parametrize("cls, valid, key", _CONFIGS, ids=[f"{c.__name__}.{k}" for c, _, k in _CONFIGS])
def test_configs_reject_non_finite_values(cls, valid, key, value):
    cls(**valid)
    with pytest.raises(ValueError, match=key):
        cls(**{**valid, key: value})


def test_nan_tolerance_cannot_switch_certification_off():
    spec = ScenarioSpec("random_bilinear", T=4)
    with pytest.raises(ValueError, match="tol_gap"):
        run_single(spec, AlgorithmSpec("sprftl", {"tol_gap": math.nan, "max_iters": 2000}), 0)


@pytest.mark.parametrize(
    "gid, params, key",
    [
        ("iid_quadratic", {"halfwidth": 0.0}, "halfwidth"),
        ("adversarial_quadratic", {"halfwidth": 0.0}, "halfwidth"),
        ("iid_quadratic", {"halfwidth": -1.0}, "halfwidth"),
        ("iid_quadratic", {"halfwidth": math.inf}, "halfwidth"),
        ("adversarial_quadratic", {"halfwidth": math.nan}, "halfwidth"),
        ("iid_quadratic", {"H": math.nan}, "H"),
        ("adversarial_quadratic", {"H": math.inf}, "H"),
        ("random_bilinear", {"d1": 2.5}, "d1"),
        ("random_bilinear", {"d2": 0}, "d2"),
        ("random_bilinear", {"d1": -3}, "d1"),
        ("random_bilinear", {"d2": math.nan}, "d2"),
    ],
)
def test_generate_scenario_rejects_bad_parameters(gid, params, key):
    with pytest.raises(ValueError, match=f"^{key} "):
        generate_scenario(ScenarioSpec(gid, T=4, params=params))


def test_r_star_rejects_zero_budgets_and_drops_infinite_ones():
    # E[c_2](x) = x, so a zero budget forces x = 0 and r* = 0; the default
    # dual bound 0 of a zero budget would drop the resource instead
    for budgets, name in (((0.0, 0.0), r"b\[0\]"), ((0.0, 4.0), r"b\[0\]"), ((200.0, 0.0), r"b\[1\]")):
        with pytest.raises(ValueError, match=name):
            benchmark_r_star(sec82_instance(50, budgets))
    # an infinite budget never binds: r* = T * max_x (-x^2 + 10 x) = 50 * 25
    assert benchmark_r_star(sec82_instance(50, (math.inf, math.inf))) == pytest.approx(1250.0, abs=1e-6)
    # with only c_2 binding, x <= 4: r* = 50 * 24
    assert benchmark_r_star(sec82_instance(50, (math.inf, 4.0))) == pytest.approx(1200.0, abs=1e-6)
