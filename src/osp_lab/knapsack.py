"""Online convex optimization with knapsacks: environment, agents, benchmark.

The environment draws i.i.d. (reward, consumption) pairs, credits reward
only while cumulative consumption stays within budget (including the
current round), and reveals the full pair after each action.  Agents reduce
the problem to an online saddle-point game on the per-round Lagrangian
L(x, y) = -r(x) - y . (b/T - c(x)) over X x prod_i [0, y_max_i].

Reward and consumption functions are scalar quadratics in the action, which
keeps every running sum a fixed-size coefficient vector.

The environment draws the whole run's stream at construction, with one
batched sampler call, and has one budget rule: ``KnapsackEnvironment.settle``
settles a block of actions from the carried state (cumulative consumption,
violated flag, cumulative reward) in one array pass; ``step`` is that rule on
one row.  Settling a whole run after it is played is exact because no agent
reads the budget state: PD-RFTL, SP-FTL and OGDA see only the revealed
(r_t, c_t).  An agent that does read it, such as a stop rule that plays the
null action once the remaining budget could be exceeded, must settle row by
row with the same function.

``KnapsackLagrangian`` is the per-round payoff the agents observe; the
harness accounts for a run from the coefficient arrays and the settlement,
and builds a Lagrangian only for the hindsight sum.  It gives its
coefficient rows (``envelope_rows``), so a ``payoffs.SumPayoff`` folds it
like any other payoff with rows; there is no knapsack running sum.  The
paper's SP-FTL agent regularizes each Lagrangian by H x^2 - H ||y||^2,
which makes it ``osp_algorithms.SPRFTL`` with squared-norm regularizers of
weight H; it only constructs.  Each of its rounds, the r* solve on the
expected functions' Lagrangian and every hindsight solve go through the
solver's one exact 1-D path, ``saddle_solver.envelope_argmin``, and are
certified from the summed rows in O(m) arithmetic
(``saddle_solver.gap_estimate``).  PD-RFTL takes gradient steps and has its
own ``step``: two box projections a round.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Box, FeasibleSet
from .osp_algorithms import SPRFTL, SPRFTLConfig
from .payoffs import PayoffFunction, SquaredNormRegularizer
from .saddle_solver import SolverConfig, require_positive, solve_saddle


@dataclass
class QuadraticFn:
    """q(x) = a2*x^2 + a1*x + a0 on scalar x."""

    a2: float
    a1: float
    a0: float = 0.0

    def __call__(self, x: float) -> float:
        return self.a2 * x * x + self.a1 * x + self.a0

    def deriv(self, x: float) -> float:
        return 2.0 * self.a2 * x + self.a1

    def coefficients(self) -> np.ndarray:
        return np.array([self.a2, self.a1, self.a0])


class Sec82Sampler:
    """Reward -x^2 + b*x with b ~ U[0, 20]; consumptions (a*x)^2 + 50x with
    a ~ U[0, 3], and x itself."""

    m = 2

    def __init__(self, b_high: float = 20.0, a_high: float = 3.0):
        self.b_high = b_high
        self.a_high = a_high

    def draw_coefficients(self, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients (a2, a1, a0) of n rounds from one rng call: rewards of
        shape (n, 3) and consumptions of shape (n, m, 3).  Round t uses the
        t-th (b, a) pair of the stream, so n = 1 draws the same bits as the
        first round of any longer batch."""
        ba = rng.uniform((0.0, 0.0), (self.b_high, self.a_high), size=(n, 2))
        a = ba[:, 1]
        R = np.zeros((n, 3))
        R[:, 0] = -1.0
        R[:, 1] = ba[:, 0]
        C = np.zeros((n, self.m, 3))
        C[:, 0, 0] = a * a
        C[:, 0, 1] = 50.0
        C[:, 1, 1] = 1.0
        return R, C

    def draw(self, rng: np.random.Generator) -> tuple[QuadraticFn, list[QuadraticFn]]:
        R, C = self.draw_coefficients(rng, 1)
        return quadratics(R[0], C[0])

    def expectation(self) -> tuple[QuadraticFn, list[QuadraticFn]]:
        eb = self.b_high / 2.0
        ea2 = self.a_high ** 2 / 3.0  # E[a^2] for a ~ U[0, a_high]
        return (
            QuadraticFn(-1.0, eb, 0.0),
            [QuadraticFn(ea2, 50.0, 0.0), QuadraticFn(0.0, 1.0, 0.0)],
        )

    def lipschitz_bound(self, x_max: float) -> float:
        g_r = max(2.0 * x_max, self.b_high)
        g_c1 = 2.0 * self.a_high ** 2 * x_max + 50.0
        return float(max(g_r, g_c1, 1.0))

    def max_reward(self, x_max: float) -> float:
        # max over x in [0, x_max] and b in [0, b_high] of -x^2 + b*x
        x_star = min(self.b_high / 2.0, x_max)
        return float(-x_star * x_star + self.b_high * x_star)


def quadratics(r_row: np.ndarray, c_rows: np.ndarray) -> tuple[QuadraticFn, list[QuadraticFn]]:
    """The reward and consumption functions of one round's coefficient rows."""
    return QuadraticFn(*r_row.tolist()), [QuadraticFn(*ci) for ci in c_rows.tolist()]


def monte_carlo_expectation(sampler, n: int = 10**6, seed: int = 0):
    """Coefficient-averaged expectation oracle for quadratic-family samplers.

    The rows are folded in draw order (a sequential sum), so the result does
    not depend on how the n draws are batched."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 982451653))))
    R, C = sampler.draw_coefficients(rng, n)
    r_acc = np.cumsum(R, axis=0)[-1]
    c_acc = np.cumsum(C, axis=0)[-1]
    return QuadraticFn(*(r_acc / n)), [QuadraticFn(*row) for row in c_acc / n]


@dataclass
class KnapsackInstance:
    """Problem data: action interval, budgets over the whole horizon, the
    i.i.d. sampler, the null action, and dual bounds y_max.

    y_max defaults to (max per-round reward) / (b_i / T), the reward gained
    per unit of budget; override when sharper bounds are known.
    """

    X: Box
    b: np.ndarray
    T: int
    sampler: object
    null_action: np.ndarray = field(default_factory=lambda: np.zeros(1))
    y_max: np.ndarray | None = None

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=float)
        if np.any(self.b < 0):
            raise ValueError("budgets must be nonnegative")
        if self.T < 1:
            raise ValueError("horizon must be at least 1")
        if not self.X.contains(self.null_action):
            raise ValueError("null action must be feasible")
        if self.y_max is None:
            x_max = float(self.X.upper[0])
            r_max = self.sampler.max_reward(x_max)
            with np.errstate(divide="ignore", over="ignore"):
                self.y_max = np.where(self.b > 0, r_max / (self.b / self.T), 0.0)
        self.y_max = np.asarray(self.y_max, dtype=float)
        if not np.all(np.isfinite(self.y_max) & (self.y_max >= 0)):
            # e.g. the default bound of a positive budget so small that b/T is subnormal
            raise ValueError(f"y_max must be finite and nonnegative, got {self.y_max}")
        self._verify_null_action()

    def _verify_null_action(self, n_probes: int = 8):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(1234567)))
        x0 = float(self.null_action[0])
        for _ in range(n_probes):
            r, c = self.sampler.draw(rng)
            if abs(r(x0)) > 1e-12 or any(abs(ci(x0)) > 1e-12 for ci in c):
                raise ValueError("null action must have zero reward and consumption")
            probe = rng.uniform(float(self.X.lower[0]), float(self.X.upper[0]))
            if any(ci(probe) < -1e-9 for ci in c):
                raise ValueError("consumption functions must be nonnegative on X")

    @property
    def m(self) -> int:
        return self.b.shape[0]

    def dual_set(self) -> Box:
        return Box(np.zeros(self.m), self.y_max)

    def lagrangian(self, r: QuadraticFn, c: list[QuadraticFn]) -> "KnapsackLagrangian":
        return KnapsackLagrangian(r, c, self.b / self.T)

    def lipschitz_G(self) -> float:
        return self.sampler.lipschitz_bound(float(self.X.upper[0]))


def sec82_instance(
    T: int, budgets_per_round: tuple[float, ...] = (200.0, 4.0)
) -> KnapsackInstance:
    return KnapsackInstance(
        X=Box(np.array([0.0]), np.array([20.0])),
        b=np.asarray(budgets_per_round, dtype=float) * T,
        T=T,
        sampler=Sec82Sampler(),
    )


# ---------------------------------------------------------------------------
# The Lagrangian payoff
# ---------------------------------------------------------------------------


@dataclass
class KnapsackLagrangian(PayoffFunction):
    """L(x, y) = -r(x) - y . (b/T - c(x)); convex in x, linear in y."""

    r: QuadraticFn
    c: list[QuadraticFn]
    b_over_T: np.ndarray

    def __post_init__(self):
        if len(self.c) != self.b_over_T.shape[0]:
            raise ValueError("consumption dimension must match budget dimension")
        self.strong_H = 0.0
        self.norm_tag = "l2"

    def _cons(self, xv: float) -> np.ndarray:
        return np.array([ci(xv) for ci in self.c])

    def value(self, x, y):
        xv = float(x[0])
        return -self.r(xv) - float(y @ (self.b_over_T - self._cons(xv)))

    def grad_x(self, x, y):
        xv = float(x[0])
        g = -self.r.deriv(xv) + sum(
            float(y[i]) * self.c[i].deriv(xv) for i in range(len(self.c))
        )
        return np.array([g])

    def grad_y(self, x, y):
        return self._cons(float(x[0])) - self.b_over_T

    def envelope_rows(self):
        """p = -r, the rows of c_i - b_i/T, and h = 0."""
        G = np.array([ci.coefficients() for ci in self.c])
        G[:, 2] -= self.b_over_T
        return -self.r.coefficients(), G, 0.0


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


@dataclass
class KnapsackState:
    cumulative_consumption: np.ndarray
    cumulative_reward: float = 0.0
    violated: bool = False
    round: int = 0


@dataclass
class StepOutcome:
    reward_fn: QuadraticFn
    consumption_fns: list[QuadraticFn]
    reward_value: float
    reward_collected: float
    consumption: np.ndarray


@dataclass
class Settlement:
    """Per-round outcome of a settled block of n actions."""

    rewards: np.ndarray  # r_t(x_t), shape (n,)
    consumptions: np.ndarray  # c_t(x_t), shape (n, m)
    collected: np.ndarray  # reward credited under the budget indicator, (n,)
    violated: np.ndarray  # budget ever exceeded up to round t, bool (n,)
    cumulative_consumption: np.ndarray  # (n, m)
    cumulative_reward: np.ndarray  # (n,)


class KnapsackEnvironment:
    """Draws i.i.d. (r_t, c_t), applies the budget indicator, reveals the
    full pair after the action (full-information setting).

    The T rounds' coefficients are drawn at construction: ``reward_coef``
    has shape (T, 3) and ``consumption_coef`` shape (T, m, 3)."""

    def __init__(self, instance: KnapsackInstance, seed: int):
        self.instance = instance
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 77770001))))
        self.reward_coef, self.consumption_coef = instance.sampler.draw_coefficients(rng, instance.T)
        self.state = KnapsackState(np.zeros(instance.m))

    def functions(self, t: int) -> tuple[QuadraticFn, list[QuadraticFn]]:
        """Reward and consumption functions of round t (0-based)."""
        return quadratics(self.reward_coef[t], self.consumption_coef[t])

    def settle(self, xs: np.ndarray) -> Settlement:
        """The budget rule: play the actions xs (shape (n, 1)) in the next n
        rounds and advance the carried state.

        Each running sum is sequential from the carried value, so settling a
        run in one block or row by row gives the same bits.  A round's reward
        is credited only while the cumulative consumption, this round's
        included, stays within every budget; once exceeded, the budget stays
        violated."""
        inst, st = self.instance, self.state
        xs = np.asarray(xs, dtype=float)
        X = inst.X
        tol = 1e-9
        if not (
            xs.ndim == 2
            and xs.shape[1] == X.dimension
            and np.all(xs >= X.lower - tol)
            and np.all(xs <= X.upper + tol)
        ):
            raise ValueError("infeasible action")
        n = xs.shape[0]
        if st.round + n > inst.T:
            raise ValueError(f"the horizon has {inst.T} rounds")
        rows = slice(st.round, st.round + n)
        R, C = self.reward_coef[rows], self.consumption_coef[rows]
        x = xs[:, 0]
        rewards = R[:, 0] * x * x + R[:, 1] * x + R[:, 2]
        x = x[:, None]
        cons = C[:, :, 0] * x * x + C[:, :, 1] * x + C[:, :, 2]
        cum = np.cumsum(np.vstack([st.cumulative_consumption, cons]), axis=0)[1:]
        within = np.all(cum <= inst.b + 1e-12, axis=1)
        violated = st.violated | ~np.logical_and.accumulate(within)
        collected = np.where(violated, 0.0, rewards)
        cum_reward = np.cumsum(np.concatenate([[st.cumulative_reward], collected]))[1:]
        if n:
            st.cumulative_consumption = cum[-1].copy()
            st.violated = bool(violated[-1])
            st.cumulative_reward = float(cum_reward[-1])
            st.round += n
        return Settlement(rewards, cons, collected, violated, cum, cum_reward)

    def step(self, x_t: np.ndarray) -> StepOutcome:
        t = self.state.round
        s = self.settle(np.asarray(x_t, dtype=float)[None])
        r, c = self.functions(t)
        return StepOutcome(r, c, float(s.rewards[0]), float(s.collected[0]), s.consumptions[0])


# ---------------------------------------------------------------------------
# Agents
# ---------------------------------------------------------------------------


@dataclass
class PDRFTLConfig:
    eta1: float
    eta2: float

    def __post_init__(self):
        require_positive(eta1=self.eta1, eta2=self.eta2)


def theorem8_steps(instance: KnapsackInstance) -> PDRFTLConfig:
    """eta1 = D_X / (G (1 + ||y_max||_2) sqrt(T)),
    eta2 = ||y_max||_2 / ((||b||_2 / T + sqrt(m G D_X)) sqrt(T))."""
    G = instance.lipschitz_G()
    D_X = instance.X.diameter()
    T = instance.T
    ymax2 = float(np.linalg.norm(instance.y_max))
    eta1 = D_X / (G * (1.0 + ymax2) * np.sqrt(T))
    denom = float(np.linalg.norm(instance.b)) / T + np.sqrt(instance.m * G * D_X)
    eta2 = ymax2 / (denom * np.sqrt(T))
    return PDRFTLConfig(eta1=eta1, eta2=eta2)


class PDRFTL:
    """Primal-dual regularized follow-the-leader: both blocks run lazy
    projected gradient steps on their linearized one-sided losses.

    The quadratic-regularized argmin/argmax over the running gradient sums
    reduce exactly to projections of -eta1 * sum grad_f and +eta2 * sum grad_g.
    """

    algorithm_id = "pd_rftl"

    def __init__(self, X: FeasibleSet, Y: FeasibleSet, config: PDRFTLConfig):
        self.X = X
        self.Y = Y
        self.config = config
        self.grad_sum_x = np.zeros(X.dimension)
        self.grad_sum_y = np.zeros(Y.dimension)
        self.current_action: tuple[np.ndarray, np.ndarray] = (
            X.origin_projection(),
            Y.origin_projection(),
        )
        self.budget_exceeded_rounds = 0
        self.last_gap = 0.0

    def step(self, revealed: PayoffFunction) -> tuple[np.ndarray, np.ndarray]:
        x_t, y_t = self.current_action
        self.grad_sum_x = self.grad_sum_x + revealed.grad_x(x_t, y_t)
        self.grad_sum_y = self.grad_sum_y + revealed.grad_y(x_t, y_t)
        x_next = self.X.project(-self.config.eta1 * self.grad_sum_x)
        y_next = self.Y.project(self.config.eta2 * self.grad_sum_y)
        self.current_action = (x_next, y_next)
        return self.current_action


class SPFTLKnapsackAgent(SPRFTL):
    """The paper's SP-FTL knapsack agent, which plays the saddle of
    sum_t L_t(x, y) + H x^2 - H ||y||^2: SP-RFTL on the Lagrangians with
    squared-norm regularizers of weight 1/eta = H, H = T^(-1/6) by default.

    The saddle-point machinery sees the regularized sequence; reward and
    regret accounting stay with the raw Lagrangians that ``step`` observes.
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
        X = instance.X
        reg_x = SquaredNormRegularizer(float(np.abs([X.lower, X.upper]).max()))
        reg_y = SquaredNormRegularizer(float(np.linalg.norm(instance.y_max)))
        super().__init__(X, instance.dual_set(), SPRFTLConfig(1.0 / H, reg_x, reg_y, solver or SolverConfig()))
        self.H = H


# ---------------------------------------------------------------------------
# Benchmark and regret
# ---------------------------------------------------------------------------


def benchmark_r_star(
    instance: KnapsackInstance,
    expectation_oracle=None,
    cfg: SolverConfig | None = None,
) -> float:
    """Value of max_x T*E[r(x)] s.t. T*E[c(x)] <= b, via strong duality on
    the expected Lagrangian saddle over X x prod [0, y_max_i].

    The null action gives Slater's condition; y_max bounds the optimal duals,
    so the boxed saddle value equals the constrained optimum.  The saddle is
    that of the expected functions' Lagrangian, whose coefficient rows the
    solver's envelope path solves exactly.  Raises RuntimeError when the
    saddle solve cannot certify its value.

    A zero budget b_i leaves the null action feasible but not strictly, so
    Slater's condition fails, and the default y_max_i = 0 would drop the
    resource from the Lagrangian; that raises ValueError naming b_i.  An
    infinite budget never binds, so its dual is 0 at the saddle: it is
    pinned there, with a finite row, which drops the constraint.
    """
    zero = np.flatnonzero(instance.b == 0.0)
    if zero.size:
        raise ValueError(f"budget b[{zero[0]}] is 0: the null action is not strictly feasible, so r* has no dual bound")
    if expectation_oracle is None:
        e_r, e_c = instance.sampler.expectation()
    else:
        e_r, e_c = expectation_oracle
    finite = np.isfinite(instance.b)
    payoff = KnapsackLagrangian(e_r, e_c, np.where(finite, instance.b / instance.T, 0.0))
    Y = Box(np.zeros(instance.m), np.where(finite, instance.y_max, 0.0))
    cfg = cfg or SolverConfig(tol_gap=1e-10, max_iters=200_000)
    return -instance.T * solve_saddle(payoff, instance.X, Y, cfg).certified_value(cfg)


def knapsack_regret(reward: float, r_star: float) -> float:
    """r* minus the reward collected under the budget indicator."""
    return r_star - reward


def reward_lower_bound(
    rewards: np.ndarray, consumptions: np.ndarray, instance: KnapsackInstance
) -> float:
    """Right-hand side of the pay-per-overage bound: sum r_t(x_t) +
    min_{y in Y} y . sum(b/T - c_t(x_t)); realized reward always dominates it."""
    slack = instance.b / instance.T * consumptions.shape[0] - consumptions.sum(axis=0)
    penal = float(np.minimum(slack * instance.y_max, 0.0).sum())
    return float(rewards.sum()) + penal
