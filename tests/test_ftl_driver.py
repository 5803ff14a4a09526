"""One follow-the-leader driver.

OMG-RFTL, bandit OMG-RFTL and the SP-FTL knapsack agent each had their own
copy of the warm-started solve loop; they now only construct, and every
round runs through ``SPFTL.step``.  The retired classes are kept here
verbatim as references: the driver must reproduce their actions, gaps and
budget counters bit for bit.  The knapsack agent is the exception: it is
now SP-RFTL on a `SumPayoff`, whose running sum of H replaces the retired
aggregate's product H*t, so its pairs must match the retired agent's to
rounding and certify on the retired aggregate.
"""

from dataclasses import replace

import numpy as np
import pytest

from osp_lab.geometry import Simplex
from osp_lab.knapsack import (
    KnapsackEnvironment,
    KnapsackInstance,
    QuadraticFn,
    SPFTLKnapsackAgent,
    sec82_instance,
)
from osp_lab.matrix_games import (
    BanditConfig,
    BanditOMGRFTL,
    EntropyRegularizer,
    OMGConfig,
    OMGRFTL,
    OnePointEstimate,
    one_point_estimate,
    sample_from_distribution,
)
from osp_lab.osp_algorithms import SPRFTL
from osp_lab.payoffs import BilinearPayoff, PayoffFunction, SumPayoff, make_bilinear, regularize
from osp_lab.saddle_solver import SolverConfig, gap_estimate, solve_saddle

from retired_knapsack_aggregate import KnapsackAggregate, solve_unwrapped

# ---------------------------------------------------------------------------
# Retired references
# ---------------------------------------------------------------------------


class _RetiredOMGRFTL:
    """Entropy-regularized saddle-point FTL over floored simplexes."""

    algorithm_id = "omg_rftl"

    def __init__(self, d1: int, d2: int, config: OMGConfig):
        self.d1 = d1
        self.d2 = d2
        self.config = config
        self.X = Simplex(d1, config.theta)
        self.Y = Simplex(d2, config.theta)
        self.reg_x = EntropyRegularizer(d1, config.theta)
        self.reg_y = EntropyRegularizer(d2, config.theta)
        self.payoff_sum = SumPayoff()
        self.round = 0
        self.current_action: tuple[np.ndarray, np.ndarray] = (
            self.X.uniform(),
            self.Y.uniform(),
        )
        self.last_gap = 0.0
        self.budget_exceeded_rounds = 0

    def step(self, observed: PayoffFunction | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if not isinstance(observed, PayoffFunction):
            observed = BilinearPayoff(np.asarray(observed, dtype=float))
        wrapped = regularize(observed, self.reg_x, self.reg_y, 1.0 / self.config.eta)
        self.payoff_sum.add(wrapped)
        cfg = replace(self.config.solver, warm_start=self.current_action)
        sol = solve_saddle(self.payoff_sum, self.X, self.Y, cfg)
        if sol.budget_exhausted(cfg):
            self.budget_exceeded_rounds += 1
        self.last_gap = sol.gap
        self.current_action = (sol.x_star, sol.y_star)
        self.round += 1
        return self.current_action


class _RetiredBanditOMGRFTL:
    """OMG-RFTL driven by one-point estimates under bandit feedback.

    Both players share a master seed and randomize jointly: the master seed
    splits into two fixed substreams, one per player's action sampling.
    """

    algorithm_id = "bandit_omg_rftl"

    def __init__(self, d1: int, d2: int, config: BanditConfig):
        self.d1 = d1
        self.d2 = d2
        self.config = config
        inner = OMGConfig(eta=config.eta, theta=config.delta, solver=config.solver)
        self.inner = _RetiredOMGRFTL(d1, d2, inner)
        self.rng_x = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((config.rng_seed, 0)))
        )
        self.rng_y = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((config.rng_seed, 1)))
        )
        self.round = 0

    @property
    def current_action(self) -> tuple[np.ndarray, np.ndarray]:
        return self.inner.current_action

    @property
    def budget_exceeded_rounds(self) -> int:
        return self.inner.budget_exceeded_rounds

    @property
    def last_gap(self) -> float:
        return self.inner.last_gap

    def step(self, env_callback) -> tuple[int, int, OnePointEstimate]:
        """Sample actions, query the environment once, update on the estimate.

        Returns the sampled action indices and the one-point estimate built
        from the observed entry.
        """
        x_t, y_t = self.inner.current_action
        i = sample_from_distribution(x_t, self.rng_x)
        j = sample_from_distribution(y_t, self.rng_y)
        entry = float(env_callback(i, j))
        if not np.isfinite(entry):
            raise ValueError("environment returned a non-finite payoff entry")
        est = one_point_estimate(entry, i, j, x_t, y_t)
        self.inner.step(est.to_payoff())
        self.round += 1
        return i, j, est


class _RetiredKnapsackAggregate(KnapsackAggregate):
    """The aggregate with its retired ``add(r, c)``, which the retired agent
    calls; everything else is the library's class."""

    def add(self, r: QuadraticFn, c: list[QuadraticFn]) -> None:
        self.t += 1
        self.r_coef += r.coefficients()
        for i, ci in enumerate(c):
            self.c_coef[i] += ci.coefficients()


class _RetiredSPFTLKnapsackAgent:
    """SP-FTL on the H-regularized Lagrangians, H = T^(-1/6) by default.

    The saddle-point machinery sees the regularized sequence; reward and
    regret accounting stay with the raw Lagrangians.
    """

    algorithm_id = "spftl_knapsack"

    def __init__(
        self,
        instance: KnapsackInstance,
        H: float | None = None,
        solver: SolverConfig | None = None,
    ):
        if H is None:
            H = float(instance.T ** (-1.0 / 6.0))
        if H <= 0:
            raise ValueError("H must be positive: the regularized payoff must be strongly convex-concave")
        self.instance = instance
        self.H = H
        self.X = instance.X
        self.Y = instance.dual_set()
        self.solver = solver or SolverConfig()
        self.aggregate = _RetiredKnapsackAggregate(instance.m, instance.b / instance.T, H)
        self.current_action: tuple[np.ndarray, np.ndarray] = (
            self.X.origin_projection(),
            self.Y.origin_projection(),
        )
        self.round = 0
        self.budget_exceeded_rounds = 0
        self.last_gap = 0.0

    def step(self, r: QuadraticFn, c: list[QuadraticFn]) -> tuple[np.ndarray, np.ndarray]:
        self.aggregate.add(r, c)
        cfg = replace(self.solver, warm_start=self.current_action)
        sol = solve_unwrapped(self.aggregate, self.X, self.Y, cfg)
        if sol.budget_exhausted(cfg):
            self.budget_exceeded_rounds += 1
        self.last_gap = sol.gap
        self.current_action = (sol.x_star, sol.y_star)
        self.round += 1
        return self.current_action


# ---------------------------------------------------------------------------
# The driver against the references
# ---------------------------------------------------------------------------


def _same(new, old):
    """Bitwise-equal current actions, last gaps and budget counters."""
    for a, b in zip(new.current_action, old.current_action):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert np.float64(new.last_gap).tobytes() == np.float64(old.last_gap).tobytes()
    assert new.budget_exceeded_rounds == old.budget_exceeded_rounds


def test_omg_and_knapsack_agents_define_no_step():
    assert issubclass(OMGRFTL, SPRFTL) and issubclass(BanditOMGRFTL, OMGRFTL)
    assert issubclass(SPFTLKnapsackAgent, SPRFTL)
    assert "step" not in OMGRFTL.__dict__ and "step" not in SPFTLKnapsackAgent.__dict__


@pytest.mark.parametrize(
    "d, theta, binds",
    # the floors at 0.15, 0.1 and 0.05 pin coordinates of the eta = 4 iterates;
    # the tiny ones never bind
    [(2, 0.15, True), (2, 1e-9, False), (3, 0.1, True), (3, 1e-9, False), (8, 0.05, True), (8, 1e-12, False)],
)
def test_omg_rftl_matches_retired_driver(d, theta, binds):
    cfg = OMGConfig(eta=4.0, theta=theta, solver=SolverConfig(tol_gap=1e-6, max_iters=5_000))
    new, old = OMGRFTL(d, d, cfg), _RetiredOMGRFTL(d, d, cfg)
    _same(new, old)
    rng = np.random.default_rng(100 + d)
    pinned = False
    for _ in range(16):
        A = rng.uniform(-1.0, 1.0, (d, d))
        new.step(make_bilinear(A))
        old.step(A)
        _same(new, old)
        pinned |= bool(np.any(np.concatenate(new.current_action) == theta))
    assert pinned == binds


@pytest.mark.parametrize("d", [2, 3])
def test_bandit_omg_rftl_matches_retired_driver(d):
    # delta is the T = 1e4 default floor at d = 2 and the clamped one at d = 3
    delta = min(10_000 ** (-1.0 / 6.0), 0.5 / d)
    cfg = BanditConfig(eta=3.0, delta=delta, rng_seed=11, solver=SolverConfig(tol_gap=1e-4))
    new, old = BanditOMGRFTL(d, d, cfg), _RetiredBanditOMGRFTL(d, d, cfg)
    _same(new, old)
    rng = np.random.default_rng(200 + d)
    for _ in range(40):
        A = rng.uniform(-1.0, 1.0, (d, d))
        i, j, est = new.step(lambda a, b: A[a, b])
        i0, j0, est0 = old.step(lambda a, b: A[a, b])
        assert (i, j, est) == (i0, j0, est0)
        _same(new, old)


def test_spftl_knapsack_agent_matches_retired_driver():
    T = 200
    inst = sec82_instance(T, (0.5, 0.5))
    X, Y = inst.X, inst.dual_set()
    solver = SolverConfig(tol_gap=1e-6, max_iters=50_000)
    new = SPFTLKnapsackAgent(inst, solver=solver)
    old = _RetiredSPFTLKnapsackAgent(inst, solver=solver)
    _same(new, old)
    env = KnapsackEnvironment(inst, seed=5)
    for t in range(T):
        env.step(new.current_action[0])
        r, c = env.functions(t)
        new.step(inst.lagrangian(r, c))
        old.step(r, c)
        # the new pair is a certified saddle of the retired aggregate
        assert gap_estimate(old.aggregate, X, Y, *new.current_action) <= solver.tol_gap
        for a, b in zip(new.current_action, old.current_action):
            assert np.abs(a - b).max() <= 1e-9
        assert new.budget_exceeded_rounds == old.budget_exceeded_rounds
        # the coefficient sums agree as values; p_2 and the b/T column of G
        # are H*t - sum r_2 and t*b/T in the retired aggregate
        p, G, _ = new.payoff_sum.envelope_rows()
        ref = old.aggregate
        assert np.array_equal(G[:, :2], ref.c_coef[:, :2])
        assert p[1] == -ref.r_coef[1] and p[2] == -ref.r_coef[2]
    assert env.state.violated  # the budgets bind


@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 64])
def test_restricted_simplex_origin_projection_is_the_centre(d):
    # 10_000^(-1/6) = 0.2154 is the bandit floor at T = 1e4, where
    # theta + scale/d rounds off 1/2 at d = 2
    for theta in (0.0, 1e-300, 1e-12, min(10_000 ** (-1.0 / 6.0), 0.5 / d), 0.5 / d, 1.0 / d - 1e-15, 1.0 / d):
        X = Simplex(d, theta)
        centre = X.origin_projection()
        assert centre.tobytes() == np.full(d, 1.0 / d).tobytes()
        assert np.abs(centre - X.project(np.zeros(d))).max() <= 4e-16
