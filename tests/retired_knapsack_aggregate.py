"""The retired knapsack running sum, kept verbatim as a reference.

``KnapsackAggregate`` held the sum of L_t(x, y) + H x^2 - H ||y||^2 over the
observed knapsack Lagrangians L_t as coefficient accumulators.  The library
now folds each Lagrangian, regularized by squared norms of weight H, into a
``payoffs.SumPayoff`` as coefficient rows; the tests compare that sum and
the solves on it against this class.
"""

from __future__ import annotations

from unittest import mock

import numpy as np

from osp_lab import saddle_solver
from osp_lab.knapsack import KnapsackLagrangian
from osp_lab.payoffs import PayoffFunction, SeparableQuadratic


class KnapsackAggregate(PayoffFunction):
    """Sum over observed rounds of L_t(x,y) + H*x^2 - H*||y||^2, held as
    coefficient accumulators; O(1) state regardless of the horizon."""

    def __init__(self, m: int, b_over_T: np.ndarray, H: float = 0.0):
        self.m = m
        self.b_over_T = np.asarray(b_over_T, dtype=float)
        self.H = H
        self.t = 0
        self.r_coef = np.zeros(3)
        self.c_coef = np.zeros((m, 3))
        self.norm_tag = "l2"

    @classmethod
    def from_sums(cls, b_over_T: np.ndarray, t: int, r_coef: np.ndarray, c_coef: np.ndarray) -> "KnapsackAggregate":
        """The unregularized (H = 0) aggregate of t rounds whose coefficient
        sums are already known."""
        agg = cls(c_coef.shape[0], b_over_T)
        agg.t = t
        agg.r_coef = np.array(r_coef, dtype=float)
        agg.c_coef = np.array(c_coef, dtype=float)
        return agg

    def add(self, lagrangian: KnapsackLagrangian) -> None:
        self.t += 1
        self.r_coef += lagrangian.r.coefficients()
        for i, ci in enumerate(lagrangian.c):
            self.c_coef[i] += ci.coefficients()

    @property
    def strong_H(self) -> float:
        return 2.0 * self.H * self.t

    @strong_H.setter
    def strong_H(self, _):  # fixed by construction
        pass

    def _cons_sum(self, xv: float) -> np.ndarray:
        return self.c_coef @ np.array([xv * xv, xv, 1.0])

    def value(self, x, y):
        xv = float(x[0])
        rsum = float(self.r_coef @ np.array([xv * xv, xv, 1.0]))
        dual = float(y @ (self.t * self.b_over_T - self._cons_sum(xv)))
        reg = self.H * self.t * (xv * xv - float(y @ y))
        return -rsum - dual + reg

    def grad_x(self, x, y):
        xv = float(x[0])
        g = (
            -(2.0 * self.r_coef[0] * xv + self.r_coef[1])
            + float(y @ (2.0 * self.c_coef[:, 0] * xv + self.c_coef[:, 1]))
            + 2.0 * self.H * self.t * xv
        )
        return np.array([g])

    def grad_y(self, x, y):
        xv = float(x[0])
        return self._cons_sum(xv) - self.t * self.b_over_T - 2.0 * self.H * self.t * np.asarray(y)

    def restrict_x(self, y):
        yv = np.asarray(y, dtype=float)
        quad = -self.r_coef[0] + float(yv @ self.c_coef[:, 0]) + self.H * self.t
        lin = -self.r_coef[1] + float(yv @ self.c_coef[:, 1])
        const = (
            -self.r_coef[2]
            + float(yv @ self.c_coef[:, 2])
            - float(yv @ (self.t * self.b_over_T))
            - self.H * self.t * float(yv @ yv)
        )
        return SeparableQuadratic(np.array([quad]), np.array([lin]), const)

    def restrict_y(self, x):
        xv = float(x[0])
        rsum = float(self.r_coef @ np.array([xv * xv, xv, 1.0]))
        return SeparableQuadratic(
            np.full(self.m, -self.H * self.t),
            self._cons_sum(xv) - self.t * self.b_over_T,
            -rsum + self.H * self.t * xv * xv,
        )

    def envelope_rows(self):
        """p = (Ht - Rsum_2, -Rsum_1, -Rsum_0), the rows of Csum_i - t*b_i/T,
        and h = Ht."""
        Ht = self.H * self.t
        G = self.c_coef.copy()
        G[:, 2] -= self.t * self.b_over_T
        return (Ht - self.r_coef[0], -self.r_coef[1], -self.r_coef[2]), G, Ht


def solve_unwrapped(f, X, Y, cfg):
    """``solve_saddle`` on the aggregate's own methods, as the retired solver
    ran it: it handed a payoff outside the folded families to its paths
    unwrapped, where the library now folds every payoff into a sum."""
    with mock.patch.object(saddle_solver, "_as_sum", lambda g: g):
        return saddle_solver.solve_saddle(f, X, Y, cfg)
