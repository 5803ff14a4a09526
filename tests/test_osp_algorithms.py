import numpy as np
import pytest

from osp_lab.geometry import Box, Simplex
from osp_lab.osp_algorithms import (
    OGDA,
    OGDAConfig,
    SPFTL,
    SPFTLConfig,
    SPRFTL,
    SPRFTLConfig,
    corollary1_eta,
)
from osp_lab.payoffs import (
    SquaredNormRegularizer,
    make_bilinear,
    make_quadratic_bilinear,
)
from osp_lab.saddle_solver import SolverConfig

from brute_oracles import hindsight_value

BOX1 = Box(np.array([-1.0]), np.array([1.0]))
BOX10 = Box(np.array([-10.0]), np.array([10.0]))


def _iid_suite(T, seed, H=1.0):
    rng = np.random.default_rng(seed)
    return [
        make_quadratic_bilinear(1.0, H, rng.uniform(-1, 1), rng.uniform(-1, 1), 1.0, 1.0)
        for _ in range(T)
    ]


def test_spftl_first_step_is_saddle_of_first_payoff():
    algo = SPFTL(BOX10, BOX10)
    f = make_quadratic_bilinear(1.0, 1.0, 2.0, -1.0)
    x, y = algo.step(f)
    assert abs(x[0] - 1.5) < 1e-8 and abs(y[0] - 0.5) < 1e-8


def test_spftl_stationary_sequence_zero_regret():
    algo = SPFTL(BOX10, BOX10)
    f = make_quadratic_bilinear(1.0, 0.5, 0.0, 0.0)  # saddle at the origin
    total = 0.0
    for _ in range(30):
        x, y = algo.current_action
        total += f.value(x, y)
        algo.step(f)
        assert abs(algo.current_action[0][0]) < 1e-7
    assert abs(total) < 1e-6


def test_spftl_requires_strong_convexity_by_default():
    algo = SPFTL(Simplex(2), Simplex(2))
    with pytest.raises(ValueError):
        algo.step(make_bilinear(np.array([[1.0, -1.0], [-1.0, 1.0]])))
    lax = SPFTL(Simplex(2), Simplex(2), SPFTLConfig(require_strong_convexity=False))
    lax.step(make_bilinear(np.array([[1.0, -1.0], [-1.0, 1.0]])))
    assert np.allclose(lax.current_action[0], 0.5)


def test_lemma2_iterate_decay():
    # ||x_t - x_{t+1}|| + ||y_t - y_{t+1}|| <= 4G/(Ht) + solver slack
    suite = _iid_suite(160, seed=5)
    G = max(f.lipschitz_G for f in suite)
    H = 1.0
    cfg = SPFTLConfig(solver=SolverConfig(tol_gap=1e-9))
    algo = SPFTL(BOX1, BOX1, cfg)
    prev = algo.current_action
    prev_gap = 0.0
    for t, f in enumerate(suite, start=1):
        algo.step(f)
        cur = algo.current_action
        if t >= 2:
            moved = abs(prev[0][0] - cur[0][0]) + abs(prev[1][0] - cur[1][0])
            slack = 2 * np.sqrt(prev_gap / (H * max(t - 1, 1))) + 2 * np.sqrt(
                algo.last_gap / (H * t)
            )
            assert moved <= 4 * G / (H * t) + slack + 1e-9, t
        prev = cur
        prev_gap = algo.last_gap


def test_lemma1_be_the_leader_sandwich():
    suite = _iid_suite(120, seed=9)
    G = max(f.lipschitz_G for f in suite)
    tol = 1e-9
    algo = SPFTL(BOX1, BOX1, SPFTLConfig(solver=SolverConfig(tol_gap=tol)))
    btl_sum = 0.0
    sum_dx = 0.0
    sum_dy = 0.0
    prev = algo.current_action
    for f in suite:
        x_next, y_next = algo.step(f)
        btl_sum += f.value(x_next, y_next)
        sum_dx += abs(prev[0][0] - x_next[0])
        sum_dy += abs(prev[1][0] - y_next[0])
        prev = (x_next, y_next)
    hv = hindsight_value(suite, BOX1, BOX1, SolverConfig(tol_gap=1e-10))
    T = len(suite)
    slack = 10 * T * tol * (1 + BOX1.diameter())
    assert -G * sum_dx - slack <= btl_sum - hv <= G * sum_dy + slack


def test_theorem1_bound_small_horizon():
    for seed in (1, 2):
        suite = _iid_suite(400, seed=seed)
        G = max(f.lipschitz_G for f in suite)
        H = 1.0
        tol = 1e-8
        algo = SPFTL(BOX1, BOX1, SPFTLConfig(solver=SolverConfig(tol_gap=tol)))
        realized = 0.0
        for f in suite:
            x, y = algo.current_action
            realized += f.value(x, y)
            algo.step(f)
        hv = hindsight_value(suite, BOX1, BOX1, SolverConfig(tol_gap=1e-10))
        T = len(suite)
        bound = 8 * G * G / H * (1 + np.log(T)) + 10 * T * tol * (1 + BOX1.diameter())
        assert abs(realized - hv) <= bound


def test_sprftl_tiny_weight_tracks_spftl():
    suite = _iid_suite(25, seed=3)
    spftl = SPFTL(BOX1, BOX1, SPFTLConfig(solver=SolverConfig(tol_gap=1e-11)))
    # weight 1/eta -> 0 via a huge eta
    sprftl = SPRFTL(
        BOX1,
        BOX1,
        SPRFTLConfig(
            eta=1e8,
            reg_x=SquaredNormRegularizer(1.0),
            reg_y=SquaredNormRegularizer(1.0),
            solver=SolverConfig(tol_gap=1e-11),
        ),
    )
    for f in suite:
        a = spftl.step(f)
        b = sprftl.step(f)
        assert abs(a[0][0] - b[0][0]) < 1e-4
        assert abs(a[1][0] - b[1][0]) < 1e-4


def test_sprftl_single_round_matches_regularized_saddle():
    f = make_quadratic_bilinear(1.0, 0.0, 0.0, 0.0, 1.0, 1.0)  # bilinear xy
    eta = 2.0
    algo = SPRFTL(
        BOX1,
        BOX1,
        SPRFTLConfig(
            eta=eta,
            reg_x=SquaredNormRegularizer(1.0),
            reg_y=SquaredNormRegularizer(1.0),
        ),
    )
    x, y = algo.step(f)
    # xy + (1/eta)(x^2 - y^2) has its saddle at the origin
    assert abs(x[0]) < 1e-7 and abs(y[0]) < 1e-7


def test_corollary1_eta_formula():
    assert abs(corollary1_eta(2.0, 4.0, 100) - 2.0 * 10.0 / (4.0 * np.sqrt(np.log(100)))) < 1e-12
    with pytest.raises(ValueError):
        corollary1_eta(1.0, 1.0, 1)


def test_ogda_steps():
    # zero gradients: action unchanged
    algo = OGDA(BOX1, BOX1, OGDAConfig("constant", 0.5))
    f0 = make_quadratic_bilinear(0.0, 0.0, 0.0, 0.0)
    before = algo.current_action
    after = algo.step(f0)
    assert before[0][0] == after[0][0] and before[1][0] == after[1][0]

    # one exact step on (x^2 - y^2)/2 from (1, 1) with eta = 1
    algo = OGDA(BOX10, BOX10, OGDAConfig("diminishing", 1.0))
    algo.current_action = (np.array([1.0]), np.array([1.0]))
    f = make_quadratic_bilinear(0.0, 1.0, 0.0, 0.0)
    x, y = algo.step(f)
    assert abs(x[0]) < 1e-15 and abs(y[0]) < 1e-15

    # f = xy on [-1,1]^2, constant 0.5 from (1,1): y clamps at the boundary
    algo = OGDA(BOX1, BOX1, OGDAConfig("constant", 0.5))
    algo.current_action = (np.array([1.0]), np.array([1.0]))
    fxy = make_quadratic_bilinear(1.0, 0.0, 0.0, 0.0, 1.0, 1.0)
    x, y = algo.step(fxy)
    assert abs(x[0] - 0.5) < 1e-15 and abs(y[0] - 1.0) < 1e-15


def test_ogda_rejects_bad_config():
    with pytest.raises(ValueError):
        OGDAConfig("bogus", 1.0)
    with pytest.raises(ValueError):
        OGDAConfig("constant", 0.0)


def test_determinism_bitwise():
    def run():
        algo = SPFTL(BOX1, BOX1)
        out = []
        for f in _iid_suite(40, seed=77):
            x, y = algo.step(f)
            out.append((x[0], y[0]))
        return out

    a, b = run(), run()
    assert a == b


def test_sec8_prefix_iterates_approach_saddle():
    # constant payoff prefix: iterates converge to that payoff's saddle
    f = make_quadratic_bilinear(1.0, 1.0, 2.0, -1.0)
    algo = SPFTL(BOX10, BOX10)
    for _ in range(60):
        algo.step(f)
    x, y = algo.current_action
    assert abs(x[0] - 1.5) < 1e-6 and abs(y[0] - 0.5) < 1e-6
