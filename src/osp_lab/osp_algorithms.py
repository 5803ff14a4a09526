"""Online algorithms over general convex compact sets.

SP-FTL plays the saddle point of the running payoff sum; SP-RFTL does the
same after adding strongly convex regularizers to each observed payoff;
OGDA is the decoupled baseline where each player runs projected online
gradient descent/ascent against the other's last action.

``SPFTL.step`` is the one follow-the-leader driver of the library: add the
observed payoff to the running sum, solve it warm-started at the current
action, count a spent solver budget, move.  OMG-RFTL and its bandit variant
(``matrix_games``) are SP-RFTL over floored simplexes, and the SP-FTL
knapsack agent (``knapsack``) is SP-RFTL on the Lagrangians with
squared-norm regularizers; they only construct their sets and
regularizers.

All three are deterministic: identical configuration and observation
sequence reproduce the iterate trace bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import FeasibleSet
from .payoffs import PayoffFunction, Regularizer, SumPayoff, regularize
from .saddle_solver import SolverConfig, require_positive, solve_saddle


@dataclass
class SPFTLConfig:
    solver: SolverConfig = field(default_factory=SolverConfig)
    # Algorithm 1 premise: the running sum must have a unique saddle point.
    # Theorem-6 style runs on bilinear games opt out explicitly.
    require_strong_convexity: bool = True


class SPFTL:
    """Saddle-point follow-the-leader: after observing round t, move to the
    saddle of the cumulative payoff, warm-started at the current action.

    ``payoff_sum`` is always a `SumPayoff`, the library's one running sum."""

    algorithm_id = "spftl"

    def __init__(self, X: FeasibleSet, Y: FeasibleSet, config: SPFTLConfig | None = None):
        self.X = X
        self.Y = Y
        self.config = config or SPFTLConfig()
        self.payoff_sum = SumPayoff()
        self.current_action: tuple[np.ndarray, np.ndarray] = (
            X.origin_projection(),
            Y.origin_projection(),
        )
        self.last_gap = 0.0
        self.budget_exceeded_rounds = 0

    def step(self, observed: PayoffFunction) -> tuple[np.ndarray, np.ndarray]:
        if self.config.require_strong_convexity and observed.strong_H <= 0:
            raise ValueError(
                "SP-FTL requires strongly convex-concave payoffs; use SP-RFTL"
            )
        self.payoff_sum.add(observed)
        cfg = replace(self.config.solver, warm_start=self.current_action)
        sol = solve_saddle(self.payoff_sum, self.X, self.Y, cfg)
        if sol.budget_exhausted(cfg):
            self.budget_exceeded_rounds += 1
        self.last_gap = sol.gap
        self.current_action = (sol.x_star, sol.y_star)
        return self.current_action


@dataclass
class SPRFTLConfig:
    eta: float
    reg_x: Regularizer
    reg_y: Regularizer
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        require_positive(eta=self.eta)


def corollary1_eta(D: float, G: float, T: int) -> float:
    """Default SP-RFTL learning rate: D*sqrt(T) / (G*sqrt(ln T))."""
    if T < 2:
        raise ValueError("needs T >= 2 for a positive ln(T)")
    return D * np.sqrt(T) / (G * np.sqrt(np.log(T)))


class SPRFTL(SPFTL):
    """SP-FTL on payoffs regularized by (1/eta)(R_X(x) - R_Y(y)).

    The regularized sequence drives the iterates; regret bookkeeping stays
    with the raw observed payoffs (the harness records those).
    """

    algorithm_id = "sprftl"

    def __init__(self, X: FeasibleSet, Y: FeasibleSet, config: SPRFTLConfig):
        super().__init__(X, Y, SPFTLConfig(solver=config.solver, require_strong_convexity=False))
        self.rftl_config = config

    def step(self, observed: PayoffFunction) -> tuple[np.ndarray, np.ndarray]:
        wrapped = regularize(
            observed,
            self.rftl_config.reg_x,
            self.rftl_config.reg_y,
            1.0 / self.rftl_config.eta,
        )
        return super().step(wrapped)


@dataclass
class OGDAConfig:
    schedule: str = "diminishing"  # or "constant"
    constant: float = 1.0  # c in eta_t = c/t, or the constant step itself
    # the y block's own c; None shares the x block's.  The knapsack agent
    # takes eta1 != eta2 from theorem8_steps.
    constant_y: float | None = None

    def __post_init__(self):
        if self.schedule not in ("diminishing", "constant"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        require_positive(constant=self.constant)
        if self.constant_y is not None:
            require_positive(constant_y=self.constant_y)


class OGDA:
    """Projected online gradient descent (x) + ascent (y) at the realized pair,
    with a step size per block; also the knapsack baseline ``ogda_knapsack``
    on the Lagrangian over X x [0, y_max]."""

    algorithm_id = "ogda"

    def __init__(self, X: FeasibleSet, Y: FeasibleSet, config: OGDAConfig | None = None):
        self.X = X
        self.Y = Y
        self.config = config or OGDAConfig()
        self.round = 0
        self.current_action: tuple[np.ndarray, np.ndarray] = (
            X.origin_projection(),
            Y.origin_projection(),
        )
        self.last_gap = 0.0
        self.budget_exceeded_rounds = 0

    def step_sizes(self, t: int) -> tuple[float, float]:
        cx = self.config.constant
        cy = cx if self.config.constant_y is None else self.config.constant_y
        if self.config.schedule == "constant":
            return cx, cy
        return cx / t, cy / t

    def step(self, observed: PayoffFunction) -> tuple[np.ndarray, np.ndarray]:
        x, y = self.current_action
        t = self.round + 1
        eta_x, eta_y = self.step_sizes(t)
        x_next = self.X.project(x - eta_x * observed.grad_x(x, y))
        y_next = self.Y.project(y + eta_y * observed.grad_y(x, y))
        self.current_action = (x_next, y_next)
        self.round += 1
        return self.current_action
