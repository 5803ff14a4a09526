import numpy as np
import pytest

from osp_lab.geometry import Simplex
from osp_lab.matrix_games import (
    BanditConfig,
    BanditOMGRFTL,
    EntropyRegularizer,
    OMGConfig,
    OMGRFTL,
    bandit_defaults,
    omg_defaults,
    one_point_estimate,
    sample_from_distribution,
)
from osp_lab.oracles import enumerate_estimator_expectation
from osp_lab.payoffs import make_bilinear
from osp_lab.saddle_solver import SolverConfig

from brute_oracles import grid_entropic_game_2x2, hindsight_value, random_feasible_point

MP = np.array([[1.0, -1.0], [-1.0, 1.0]])


def test_entropy_regularizer_invariants():
    rng = np.random.default_rng(4)
    for d, theta in ((2, 0.1), (5, 0.02)):
        reg = EntropyRegularizer(d, theta)
        rs = Simplex(d, theta)
        assert abs(reg.value(np.full(d, 1.0 / d))) < 1e-14  # zero at uniform
        bound = max(abs(np.log(theta)), 1.0)
        assert reg.lipschitz_G == bound
        for _ in range(1000):
            z = random_feasible_point(rs, rng)
            assert reg.value(z) >= -1e-12
            g = reg.grad(z)
            assert np.allclose(g, 1.0 + np.log(z))
            assert np.abs(g).max() <= bound + 1e-9


def test_omg_defaults_and_clamp():
    cfg = omg_defaults(10_000, 1.0, 4, 4)
    assert abs(cfg.eta - 100.0) < 1e-12
    assert cfg.theta == np.exp(-100.0) and not cfg.theta_clamped
    small = omg_defaults(4, 1.0, 8, 8)  # exp(-2) = 0.135 > 1/16
    assert small.theta_clamped and small.theta == 0.5 / 8


def test_omg_matching_pennies_stays_uniform():
    algo = OMGRFTL(2, 2, OMGConfig(eta=1.0, theta=0.1))
    for _ in range(12):
        x, y = algo.step(make_bilinear(MP))
        assert np.abs(x - 0.5).max() < 1e-8
        assert np.abs(y - 0.5).max() < 1e-8


def test_omg_step_matches_entropic_grid_oracle():
    A = np.array([[1.0, -1.0], [-1.0, 0.5]])
    algo = OMGRFTL(2, 2, OMGConfig(eta=1.0, theta=0.1, solver=SolverConfig(tol_gap=1e-10)))
    x, y = algo.step(make_bilinear(A))
    _, a_star, b_star = grid_entropic_game_2x2(A, 1.0, 1.0, 0.1, 1e-3)
    assert abs(x[0] - a_star) < 5e-3
    assert abs(y[0] - b_star) < 5e-3


def test_omg_rejects_out_of_range_entries():
    algo = OMGRFTL(2, 2, OMGConfig(eta=1.0, theta=0.1))
    with pytest.raises(ValueError):
        algo.step(make_bilinear(np.array([[2.0, 0.0], [0.0, 0.0]])))


def test_one_point_estimate_examples():
    u = np.array([0.5, 0.5])
    est = one_point_estimate(1.0, 0, 0, u, u)
    assert np.allclose(est.to_matrix(), [[4.0, 0.0], [0.0, 0.0]])
    d = 0.1
    skew = np.array([d, 1 - d])
    est = one_point_estimate(-0.5, 0, 0, skew, skew)
    assert abs(est.scaled_value - (-0.5) / (d * d)) < 1e-12
    with pytest.raises(ValueError):
        one_point_estimate(1.0, 0, 0, np.array([0.0, 1.0]), u)


def test_estimator_unbiased_exact_enumeration():
    # sum_{ij} x_i y_j Ahat(i,j) = A entrywise, 100 random draws
    rng = np.random.default_rng(99)
    for _ in range(100):
        d1, d2 = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        A = rng.uniform(-1, 1, (d1, d2))
        x = Simplex(d1, 0.05).embed(rng.dirichlet(np.ones(d1)))
        y = Simplex(d2, 0.05).embed(rng.dirichlet(np.ones(d2)))
        exp = enumerate_estimator_expectation(A, x, y)
        assert np.abs(exp - A).max() <= 1e-12


def test_estimate_magnitude_bound_on_floored_simplex():
    rng = np.random.default_rng(17)
    delta = 0.05
    for _ in range(200):
        A = rng.uniform(-1, 1, (3, 3))
        x = Simplex(3, delta).embed(rng.dirichlet(np.ones(3)))
        y = Simplex(3, delta).embed(rng.dirichlet(np.ones(3)))
        i, j = int(rng.integers(3)), int(rng.integers(3))
        est = one_point_estimate(A[i, j], i, j, x, y)
        assert abs(est.scaled_value) <= np.abs(A).max() / delta**2 + 1e-12


def test_sample_from_distribution():
    class FixedDraw:
        def __init__(self, u):
            self.u = u

        def random(self):
            return self.u

    assert sample_from_distribution(np.array([1.0, 0.0]), FixedDraw(0.3)) == 0
    assert sample_from_distribution(np.array([0.25, 0.75]), FixedDraw(0.5)) == 1
    with pytest.raises(ValueError):
        sample_from_distribution(np.array([0.5, 0.4]), FixedDraw(0.1))
    # frequencies within 3 sigma of 1/4 over 10^5 draws
    rng = np.random.default_rng(123)
    p = np.full(4, 0.25)
    n = 100_000
    counts = np.zeros(4)
    for _ in range(n):
        counts[sample_from_distribution(p, rng)] += 1
    sigma = np.sqrt(n * 0.25 * 0.75)
    assert np.abs(counts - n * 0.25).max() <= 3 * sigma


def test_bandit_defaults_schedule():
    cfg = bandit_defaults(3000, 2, 2, 0)
    assert abs(cfg.eta - 3000 ** (1 / 6)) < 1e-12
    assert cfg.delta == min(3000 ** (-1 / 6), 0.25)
    big = bandit_defaults(10**7, 2, 2, 0)
    assert not big.delta_clamped


def test_bandit_zero_matrix_stays_uniform():
    algo = BanditOMGRFTL(2, 2, BanditConfig(eta=2.0, delta=0.2, rng_seed=5))
    for _ in range(20):
        i, j, est = algo.step(lambda a, b: 0.0)
        assert est.scaled_value == 0.0
    x, y = algo.current_action
    assert np.abs(x - 0.5).max() < 1e-9
    assert np.abs(y - 0.5).max() < 1e-9


def test_bandit_iterates_respect_floor():
    rng = np.random.default_rng(31)
    algo = BanditOMGRFTL(3, 3, BanditConfig(eta=2.0, delta=0.1, rng_seed=6))
    for _ in range(40):
        A = rng.uniform(-1, 1, (3, 3))
        algo.step(lambda a, b: A[a, b])
        x, y = algo.current_action
        assert x.min() >= 0.1 - 1e-12
        assert y.min() >= 0.1 - 1e-12


def test_bandit_rejects_non_finite_entry():
    algo = BanditOMGRFTL(2, 2, BanditConfig(eta=2.0, delta=0.2, rng_seed=7))
    with pytest.raises(ValueError):
        algo.step(lambda a, b: float("nan"))


def test_bandit_joint_randomization_reproducible():
    def run(seed):
        rng = np.random.default_rng(55)
        algo = BanditOMGRFTL(2, 2, BanditConfig(eta=2.0, delta=0.2, rng_seed=seed))
        out = []
        for _ in range(25):
            A = rng.uniform(-1, 1, (2, 2))
            i, j, _ = algo.step(lambda a, b: A[a, b])
            out.append((i, j))
        return out

    assert run(9) == run(9)
    assert run(9) != run(10)


def test_restricted_value_perturbation_bound():
    # |hindsight over the simplex - hindsight over the floored simplex|
    # <= G * T * 2*theta*(max(d1,d2)-1)
    rng = np.random.default_rng(12)
    T, d, theta = 8, 3, 0.05
    seqs = [make_bilinear(rng.uniform(-1, 1, (d, d))) for _ in range(T)]
    full = hindsight_value(seqs, Simplex(d), Simplex(d), SolverConfig(tol_gap=1e-9))
    floored = hindsight_value(
        seqs,
        Simplex(d, theta),
        Simplex(d, theta),
        SolverConfig(tol_gap=1e-9),
    )
    G = 1.0
    assert abs(full - floored) <= G * T * 2 * theta * (d - 1) + 1e-6
