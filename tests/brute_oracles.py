"""Brute-force oracles that only the tests use.

Like ``osp_lab.oracles``, they avoid the production solver paths on
purpose: a grid search of the entropic 2x2 game, random feasible points for
property checks, and central finite differences of a payoff.
"""

from __future__ import annotations

import numpy as np

from osp_lab.geometry import Box, Simplex


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
