"""The Euclidean geometry of the one mirror-prox loop.

``saddle_solver._mirror_prox`` replaced two copies of the first-order saddle
loop: entropic mirror-prox (kept as a reference in ``test_entropic_kernel``)
and extragradient, the Euclidean case.  The retired extragradient is kept
here verbatim: the merged loop must reproduce it bit for bit, including the
spent-budget return of a budget that runs out before the first check.
"""

import numpy as np
import pytest

from osp_lab import saddle_solver
from osp_lab.geometry import Box, Simplex, interval
from osp_lab.payoffs import (
    SquaredNormRegularizer,
    SumPayoff,
    make_bilinear,
    make_quadratic_bilinear,
    make_scalar_convex_concave,
    regularize,
)
from osp_lab.saddle_solver import SaddleSolution, SolverConfig, solve_saddle

# ---------------------------------------------------------------------------
# Retired reference
# ---------------------------------------------------------------------------

_operator = saddle_solver._operator
_estimate_lipschitz = saddle_solver._estimate_lipschitz
gap_estimate = saddle_solver.gap_estimate


def _extragradient(f, X, Y, x, y, cfg: SolverConfig) -> SaddleSolution:
    strongly = f.strong_H > 0
    L = _estimate_lipschitz(f, X, Y, x, y)
    gamma = 1.0 / (2.0 * L)
    scale = X.diameter() + Y.diameter() + 1.0
    sum_x = np.zeros_like(x)
    sum_y = np.zeros_like(y)
    navg = 0
    best: SaddleSolution | None = None
    check_at = 4
    it = 0
    while it < cfg.max_iters:
        it += 1
        gx, gy = _operator(f, x, y)
        xh = X.project(x - gamma * gx)
        yh = Y.project(y + gamma * gy)
        gxh, gyh = _operator(f, xh, yh)
        xn = X.project(x - gamma * gxh)
        yn = Y.project(y + gamma * gyh)
        residual = (
            float(np.linalg.norm(x - xh)) + float(np.linalg.norm(y - yh))
        ) / gamma
        sum_x += xh
        sum_y += yh
        navg += 1
        x, y = xn, yn
        if it >= check_at or residual * scale <= 0.5 * cfg.tol_gap:
            if strongly:
                cx, cy = x, y
            else:
                cx, cy = sum_x / navg, sum_y / navg
            g = gap_estimate(f, X, Y, cx, cy)
            cand = SaddleSolution(cx.copy(), cy.copy(), f.value(cx, cy), g, it, "extragradient")
            if best is None or g < best.gap:
                best = cand
            if g <= cfg.tol_gap:
                return cand
            check_at = max(check_at * 2, it + 1)
    if best is None:
        cx, cy = (x, y) if strongly else (sum_x / max(navg, 1), sum_y / max(navg, 1))
        best = SaddleSolution(
            cx.copy(), cy.copy(), f.value(cx, cy), gap_estimate(f, X, Y, cx, cy), it, "extragradient"
        )
    best.iterations = cfg.max_iters
    return best


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _assert_same_solution(new, old):
    assert _same_bits(new.x_star, old.x_star)
    assert _same_bits(new.y_star, old.y_star)
    assert new.value == old.value and new.gap == old.gap
    assert new.iterations == old.iterations and new.path == old.path


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _sqnorm_sum(d: int, rounds: int = 5) -> SumPayoff:
    """An SP-RFTL running sum: bilinear games plus squared-norm terms."""
    rng = np.random.default_rng(300 + d)
    reg = SquaredNormRegularizer(1.0)
    total = SumPayoff()
    for _ in range(rounds):
        total.add(regularize(make_bilinear(rng.uniform(-1.0, 1.0, size=(d, d))), reg, reg, 0.3))
    return total


SQUARE = Box(np.array([-1.0]), np.array([1.0]))


def _cases():
    """(name, f, X, Y, start) for every case; start None is the cold start."""
    out = []
    for d in (2, 3):
        X = Simplex(d)
        warm = (np.random.default_rng(d).dirichlet(np.ones(d)), np.random.default_rng(d + 1).dirichlet(np.ones(d)))
        out.append((f"sqnorm_d{d}_cold", _sqnorm_sum(d), X, X, None))
        out.append((f"sqnorm_d{d}_warm", _sqnorm_sum(d), X, X, warm))
    box = interval(-10.0, 10.0)
    # stationary point (1.5, 0.5) strictly inside the box
    out.append(("scalar_interior", make_quadratic_bilinear(1.0, 1.0, 2.0, -1.0), box, box, None))
    # stationary point (5, -4) outside [-1, 1]^2: the saddle sits on the boundary
    out.append(("scalar_boundary", make_quadratic_bilinear(0.5, 1.0, 5.0, -4.0), SQUARE, SQUARE, None))
    # strong_H = 0: the loop returns the ergodic average
    out.append(("merely_cc", make_scalar_convex_concave(1, 0, 0.2, 0, -0.1), SQUARE, SQUARE, None))
    return out


CASES = _cases()


def _start(X, Y, start):
    if start is None:
        return X.origin_projection(), Y.origin_projection()
    return np.array(start[0]), np.array(start[1])


@pytest.mark.parametrize("max_iters", [1, 2, 3, 5, 64])
@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_loop_matches_retired_extragradient(case, max_iters):
    _, f, X, Y, start = case
    f = saddle_solver._as_sum(f)
    cfg = SolverConfig(tol_gap=1e-9, max_iters=max_iters)
    x0, y0 = _start(X, Y, start)
    new = saddle_solver._mirror_prox(f, X, Y, x0.copy(), y0.copy(), cfg, False)
    old = _extragradient(f, X, Y, x0.copy(), y0.copy(), cfg)
    _assert_same_solution(new, old)
    assert new.iterations <= max_iters


@pytest.mark.parametrize("d", [2, 3])
def test_sprftl_solves_match_retired_extragradient(monkeypatch, d):
    """SP-RFTL's per-round solves through solve_saddle, each warm-started at
    the previous round's pair."""
    rng = np.random.default_rng(400 + d)
    X = Y = Simplex(d)
    reg = SquaredNormRegularizer(1.0)
    total = SumPayoff()
    warm = (X.uniform(), Y.uniform())
    iterative = 0
    for _ in range(6):
        total.add(regularize(make_bilinear(rng.uniform(-1.0, 1.0, size=(d, d))), reg, reg, 0.2))
        cfg = SolverConfig(tol_gap=1e-6, max_iters=512, warm_start=warm)
        new = solve_saddle(total, X, Y, cfg)
        with monkeypatch.context() as m:
            m.setattr(
                saddle_solver, "_mirror_prox", lambda f, X, Y, x, y, cfg, entropic: _extragradient(f, X, Y, x, y, cfg)
            )
            old = solve_saddle(total, X, Y, cfg)
        _assert_same_solution(new, old)
        iterative += new.path == "extragradient"
        warm = (new.x_star, new.y_star)
    assert iterative > 0


def test_entropic_spent_budget_returns_the_average():
    """One return rule for both geometries: a merely convex-concave sum
    whose budget runs out before the first check returns the ergodic
    average.  After one iteration that is the first KL prox point z_h, not
    the last iterate (the retired entropic loop returned the latter)."""
    S = np.array([[1.0, -1.0, 0.5], [-0.5, 1.0, -1.0], [0.0, -1.0, 1.0]])
    f = saddle_solver._as_sum(make_bilinear(S))
    X = Y = Simplex(3)
    x0, y0 = np.array([0.5, 0.3, 0.2]), np.array([0.2, 0.2, 0.6])
    cfg = SolverConfig(tol_gap=1e-12, max_iters=1)
    sol = saddle_solver._mirror_prox(f, X, Y, x0, y0, cfg, True)
    gamma = 1.0 / (2.0 * np.abs(S).max())
    xh = saddle_solver._kl_prox(np.log(x0), gamma * (S @ y0), 1.0, 0.0)
    yh = saddle_solver._kl_prox(np.log(y0), -gamma * (S.T @ x0), 1.0, 0.0)
    assert sol.budget_exhausted(cfg) and sol.path == "mirror_prox"
    assert _same_bits(sol.x_star, xh) and _same_bits(sol.y_star, yh)
