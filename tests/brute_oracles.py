"""Brute-force oracles that only the tests use.

Like ``osp_lab.oracles``, most avoid the production solver paths on
purpose: a grid search of the entropic 2x2 game, random feasible points for
property checks, and central finite differences of a payoff.  The post-hoc
regret oracles recompute a run's regrets from its payoff list, one
restriction per round, where the harness accounts in array passes.
"""

from __future__ import annotations

import numpy as np

from osp_lab.geometry import Box, FeasibleSet, Simplex
from osp_lab.payoffs import SeparableQuadratic, SumPayoff
from osp_lab.saddle_solver import SolverConfig, solve_saddle


def grid_entropic_game_2x2(
    A: np.ndarray,
    weight_x: float,
    weight_y: float,
    theta: float,
    resolution: float = 1e-3,
):
    """min-max of x^T A y + weight_x*R(x) - weight_y*R(y) over the floored
    2-simplexes, brute forced on the (alpha, beta) parameterization.

    R is the shifted negative entropy z1 ln z1 + z2 ln z2 + ln 2.
    Returns (value, alpha*, beta*)."""
    A = np.asarray(A, dtype=float)
    grid = np.arange(theta, 1.0 - theta + resolution / 2, resolution)

    def R(p):
        q = 1.0 - p
        return p * np.log(p) + q * np.log(q) + np.log(2.0)

    a = grid[:, None]
    b = grid[None, :]
    V = (
        a * b * (A[0, 0] - A[0, 1] - A[1, 0] + A[1, 1])
        + a * (A[0, 1] - A[1, 1])
        + b * (A[1, 0] - A[1, 1])
        + A[1, 1]
        + weight_x * R(a)
        - weight_y * R(b)
    )
    inner = V.max(axis=1)
    ia = int(np.argmin(inner))
    ib = int(np.argmax(V[ia]))
    return float(inner[ia]), float(grid[ia]), float(grid[ib])


def random_feasible_point(dset, rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish sample used by property checks; exactness is irrelevant,
    feasibility is."""
    if isinstance(dset, Box):
        return rng.uniform(dset.lower, dset.upper)
    if isinstance(dset, Simplex):
        return dset.embed(rng.dirichlet(np.ones(dset.d)))
    raise TypeError(type(dset))


def finite_difference_grads(payoff, x, y, step: float = 1e-6):
    """Central finite differences of a payoff at (x, y)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    gx = np.zeros_like(x)
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = step
        gx[i] = (payoff.value(x + e, y) - payoff.value(x - e, y)) / (2 * step)
    gy = np.zeros_like(y)
    for j in range(y.shape[0]):
        e = np.zeros_like(y)
        e[j] = step
        gy[j] = (payoff.value(x, y + e) - payoff.value(x, y - e)) / (2 * step)
    return gx, gy


def assemble_sum(history) -> SumPayoff:
    s = SumPayoff()
    for p in history:
        s.add(p)
    return s


def hindsight_value(history, X: FeasibleSet, Y: FeasibleSet, cfg: SolverConfig | None = None) -> float:
    """Value of min_x max_y of the summed history; raises RuntimeError when
    the solve spends its budget without certifying the value to tol_gap."""
    total = assemble_sum(history)
    if total.count == 0:
        raise ValueError("hindsight_value needs a nonempty history")
    cfg = cfg or SolverConfig()
    return solve_saddle(total, X, Y, cfg).certified_value(cfg)


def compute_sp_regret(trace, history, X: FeasibleSet, Y: FeasibleSet, cfg: SolverConfig | None = None) -> float:
    """|sum of realized payoffs - min_x max_y of the summed history|."""
    return abs(float(trace.payoff_values.sum()) - hindsight_value(history, X, Y, cfg))


def compute_individual_regrets(trace, history, X: FeasibleSet, Y: FeasibleSet) -> tuple[float, float]:
    """(realized - best fixed x vs the y_t sequence,
        best fixed y vs the x_t sequence - realized), each best response the
    exact optimum of the summed one-term restrictions f_t(., y_t) and
    f_t(x_t, .); either regret may be negative."""
    acc_x, acc_y = RestrictionSum(), RestrictionSum()
    for t, payoff in enumerate(history):
        one = assemble_sum([payoff])
        acc_x.add(one.restrict_x(trace.ys[t]))
        acc_y.add(one.restrict_y(trace.xs[t]))
    realized = float(trace.payoff_values.sum())
    return realized - acc_x.minimize(X), acc_y.maximize(Y) - realized


class RestrictionSum:
    """Round-by-round sum of separable-quadratic restrictions, added in
    round order from a copy of the first (the retired harness accumulator)."""

    def __init__(self):
        self._sum: SeparableQuadratic | None = None

    def add(self, restriction: SeparableQuadratic) -> None:
        if self._sum is None:
            self._sum = SeparableQuadratic(restriction.quad.copy(), restriction.lin.copy(), restriction.const)
        else:
            self._sum.quad += restriction.quad
            self._sum.lin += restriction.lin
            self._sum.const += restriction.const

    def minimize(self, dset: FeasibleSet) -> float:
        return float(self._sum.minimize_over(dset)[0])

    def maximize(self, dset: FeasibleSet) -> float:
        return float(self._sum.maximize_over(dset)[0])
