"""Independent brute-force oracles.

Everything in this module avoids the production solver paths on purpose:
grid searches, closed-form enumeration, and plain Monte-Carlo averages used
to cross-check solver outputs and frozen test expectations.
"""

from __future__ import annotations

import math

import numpy as np


def _scalar_value_grid(payoff, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Vectorized payoff values on a grid from the coefficient rows of a
    payoff with one y row, elementwise loop otherwise (keep grids modest in
    that case)."""
    rows = payoff.envelope_rows()
    Xg = xs[:, None]
    Yg = ys[None, :]
    if rows is not None:
        p, (g,), h = rows
        return p[0] * Xg**2 + p[1] * Xg + p[2] + Yg * (g[0] * Xg**2 + g[1] * Xg + g[2]) - h * Yg**2
    if xs.size * ys.size > 500_000:
        raise ValueError("grid too large for a non-vectorizable payoff")
    V = np.empty((xs.size, ys.size))
    for i, xv in enumerate(xs):
        for j, yv in enumerate(ys):
            V[i, j] = payoff.value(np.array([xv]), np.array([yv]))
    return V


def grid_saddle_1d(
    payoff,
    x_bounds: tuple[float, float],
    y_bounds: tuple[float, float],
    resolutions: tuple[float, ...] = (1e-2, 1e-4, 1e-6),
) -> tuple[float, float, float]:
    """Three-phase grid refinement of min_x max_y on 1-D boxes.

    Phase k restricts to a window of +-3 previous-resolution cells around
    the incumbent; valid because the envelope max_y is convex in x and the
    inner problem concave in y.  Returns (value, x*, y*).
    """
    xlo, xhi = x_bounds
    ylo, yhi = y_bounds
    x_star = y_star = value = None
    for k, res in enumerate(resolutions):
        if k == 0:
            xw = (xlo, xhi)
            yw = (ylo, yhi)
        else:
            pad = 3.0 * resolutions[k - 1]
            xw = (max(xlo, x_star - pad), min(xhi, x_star + pad))
            yw = (max(ylo, y_star - pad), min(yhi, y_star + pad))
        xs = np.arange(xw[0], xw[1] + res / 2, res)
        ys = np.arange(yw[0], yw[1] + res / 2, res)
        V = _scalar_value_grid(payoff, xs, ys)
        inner_max = V.max(axis=1)
        ix = int(np.argmin(inner_max))
        iy = int(np.argmax(V[ix]))
        x_star, y_star, value = float(xs[ix]), float(ys[iy]), float(inner_max[ix])
    return value, x_star, y_star


def grid_matrix_game_2x2(A: np.ndarray, resolution: float = 1e-3):
    """Brute-force min over alpha of max over beta for x=[a,1-a], y=[b,1-b]."""
    A = np.asarray(A, dtype=float)
    grid = np.arange(0.0, 1.0 + resolution / 2, resolution)
    a = grid[:, None]
    b = grid[None, :]
    V = (
        a * b * (A[0, 0] - A[0, 1] - A[1, 0] + A[1, 1])
        + a * (A[0, 1] - A[1, 1])
        + b * (A[1, 0] - A[1, 1])
        + A[1, 1]
    )
    inner = V.max(axis=1)
    ia = int(np.argmin(inner))
    return float(inner[ia]), float(grid[ia])


def grid_simplex_projection_3d(
    z: np.ndarray, coarse: float = 1e-2, fine: float = 1e-4
) -> np.ndarray:
    """Two-phase grid search for the Euclidean projection onto the 3-simplex."""
    z = np.asarray(z, dtype=float)

    def best_on(p1s, p2s):
        P1, P2 = np.meshgrid(p1s, p2s, indexing="ij")
        P3 = 1.0 - P1 - P2
        ok = P3 >= -1e-12
        d2 = (P1 - z[0]) ** 2 + (P2 - z[1]) ** 2 + (P3 - z[2]) ** 2
        d2 = np.where(ok, d2, np.inf)
        i, j = np.unravel_index(int(np.argmin(d2)), d2.shape)
        return np.array([P1[i, j], P2[i, j], P3[i, j]])

    g = np.arange(0.0, 1.0 + coarse / 2, coarse)
    p = best_on(g, g)
    lo1, hi1 = max(0.0, p[0] - 2 * coarse), min(1.0, p[0] + 2 * coarse)
    lo2, hi2 = max(0.0, p[1] - 2 * coarse), min(1.0, p[1] + 2 * coarse)
    p = best_on(
        np.arange(lo1, hi1 + fine / 2, fine), np.arange(lo2, hi2 + fine / 2, fine)
    )
    return p


def enumerate_estimator_expectation(A: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_{i,j} x_i y_j Ahat(i,j) built literally through the estimator."""
    from .matrix_games import one_point_estimate

    A = np.asarray(A, dtype=float)
    d1, d2 = A.shape
    out = np.zeros((d1, d2))
    for i in range(d1):
        for j in range(d2):
            est = one_point_estimate(A[i, j], i, j, x, y)
            out += x[i] * y[j] * est.to_matrix()
    return out


def sec82_expectation_check(
    x_values=(1.0, 10.0 / 3.0, 5.0), n: int = 10**6, seed: int = 20240817
):
    """Monte-Carlo means of the sec-8.2 reward/consumption at given actions
    versus the analytic E[r](x) = -x^2+10x, E[c1](x) = 3x^2+50x, E[c2](x) = x.

    Returns a list of (label, analytic, mc_mean, sigma) rows; a row passes
    when |analytic - mc| <= 3 sigma."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    b = rng.uniform(0.0, 20.0, size=n)
    a = rng.uniform(0.0, 3.0, size=n)
    rows = []
    for xv in x_values:
        r_samples = -xv * xv + b * xv
        c1_samples = (a * xv) ** 2 + 50.0 * xv
        for label, samples, analytic in (
            (f"E[r]({xv:g})", r_samples, -xv * xv + 10.0 * xv),
            (f"E[c1]({xv:g})", c1_samples, 3.0 * xv * xv + 50.0 * xv),
            (f"E[c2]({xv:g})", np.full(n, xv), xv),
        ):
            # fsum: the mean of n copies of x is x, which samples.mean() rounds off
            mc = math.fsum(samples) / n
            sigma = float(samples.std(ddof=1) / np.sqrt(n))
            rows.append((label, analytic, mc, sigma))
    return rows


def grid_knapsack_benchmark(
    e_r,
    e_c,
    b_per_round: np.ndarray,
    x_bounds: tuple[float, float],
    resolutions: tuple[float, ...] = (1e-2, 1e-4, 1e-6),
) -> tuple[float, float]:
    """Grid maximization of E[r](x) under E[c](x) <= b/T on an interval;
    returns (per-round value, x*)."""
    xlo, xhi = x_bounds
    x_star = None
    best = -np.inf
    for k, res in enumerate(resolutions):
        if k == 0:
            w = (xlo, xhi)
        else:
            pad = 3.0 * resolutions[k - 1]
            w = (max(xlo, x_star - pad), min(xhi, x_star + pad))
        xs = np.arange(w[0], w[1] + res / 2, res)
        vals = np.array([e_r(x) for x in xs])
        feas = np.ones(xs.shape, dtype=bool)
        for ci, bi in zip(e_c, b_per_round):
            feas &= np.array([ci(x) for x in xs]) <= bi + 1e-12
        vals = np.where(feas, vals, -np.inf)
        ix = int(np.argmax(vals))
        x_star, best = float(xs[ix]), float(vals[ix])
    return best, x_star
