"""Approximate and exact saddle-point solvers.

The per-round subproblems of follow-the-leader style algorithms are
min-max problems over products of compact convex sets.  Every returned
solution carries a duality gap certified by two exact one-sided inner
optimizations (``gap_estimate``).  A sum of coefficient rows (p, G, h)
computes both straight from its rows in O(m) arithmetic, with the inner
argmax that the envelope path also pairs with its x (``_rows_argmax_y``);
every other payoff the solver accepts restricts in closed form to a
separable quadratic or a linear-plus-entropy form (see ``payoffs``), and
``gap_estimate`` refuses any other with a ``TypeError``.  Both forms refuse
a pair outside the sets by more than 1e-9 with a ``ValueError``.
``solve_saddle`` and ``gap_estimate`` fold a single payoff into a one-term
`SumPayoff`, the library's one running sum, and read every structure hint
and every restriction from the sum.

``solve_saddle`` tries its paths in a fixed order and returns from the
first one that produces a pair certified to ``tol_gap``; only the
first-order fallback at the end returns a best-effort pair, flagged by its
spent iteration budget.  Each solution names its path in ``path``:

1. ``closed_2x2``: 2x2 matrix games over two plain simplexes (theta = 0);
2. ``envelope``: the exact minimizer of the envelope max_y f(x, y) over 1-D
   x (``envelope_argmin``) for a payoff that gives its coefficient rows
   (``envelope_rows``): sums of scalar quadratics or of knapsack
   Lagrangians, with squared-norm regularizers or none, paired with the
   inner maximizer or, at a kink, the dual that balances the x-gradient,
   read off the rows (``_stationary_y_candidates``);
3. ``newton``: equality-constrained Newton on the entropy-smoothed envelope
   of a bilinear-plus-entropy sum over simplexes with both entropy weights
   positive, at every dimension (``_entropic_newton_path``).  Its first
   iterate is the warm start's x, so a converged warm start is certified
   there, paired with its inner maximizer, after 0 steps and with one
   certificate;
4. ``warm_accept``: an already-converged warm start, for every sum that
   Newton does not take or gives way on;
5. ``lp``: the simplex method on a pure bilinear sum over two
   simplexes, floored or not (``solve_matrix_game_lp``);
6. mirror-prox (Nemirovski 2004, ``_mirror_prox``), one loop with two prox
   maps: ``mirror_prox``, the exact KL prox with step 1/(2*max|S_ij|), for
   bilinear-plus-entropy sums over simplexes; ``extragradient``, the
   Euclidean projections with step 1/(2*L), where L is a deterministic
   power-iteration estimate of the gradient-map Lipschitz constant, for
   every other sum.

The envelope root, Newton and the LP are exact up to rounding, so their
gaps sit near 1e-13; a pair they cannot certify (a binding x floor for
Newton, the pivot cap for the LP) falls through to mirror-prox.

A KL prox step is the water-filling of exponential weights normalized to
max 1 (``payoffs.waterfill``, which also serves the certificates' entropic
inner maximizations): the entropy payoff term scales the logits, and the
coordinate floor pins the coordinates whose share would fall below it.
Because the weights have max 1, the free mass never underflows, and for a
floor theta <= 1/d the heaviest coordinate is never pinned.  When no floor
binds, as for the tiny floors of OMG-RFTL, the water-fill is one pass.  At
d = 2 the prox step keeps its own closed form.  In both geometries strongly
convex-concave sums return the last iterate, merely convex-concave sums the
ergodic average.

``iterations`` counts Newton steps, simplex pivots, or mirror-prox and
extragradient iterations; the closed forms, the envelope root, the warm
start and a Newton solve that certifies its first iterate report 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Box, FeasibleSet, Simplex
from .payoffs import (
    PayoffFunction,
    SumPayoff,
    entropy_tilted_argopt,
    negentropy,
    powers,
    waterfill,
)


class NonFiniteGradientError(RuntimeError):
    pass


def require_positive(**params: float) -> None:
    """Raise ValueError naming the first parameter that is not a positive
    finite number.  NaN fails every comparison, so a bare ``x <= 0`` check
    would let it through, and a NaN tolerance would switch certification
    off (``gap > nan`` is False)."""
    for name, value in params.items():
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass
class SolverConfig:
    tol_gap: float = 1e-8
    max_iters: int = 100_000
    warm_start: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        require_positive(tol_gap=self.tol_gap, max_iters=self.max_iters)


@dataclass
class SaddleSolution:
    x_star: np.ndarray
    y_star: np.ndarray
    value: float
    gap: float
    iterations: int
    path: str = ""

    def budget_exhausted(self, cfg: SolverConfig) -> bool:
        return self.iterations >= cfg.max_iters and self.gap > cfg.tol_gap

    def certified_value(self, cfg: SolverConfig) -> float:
        """The value of a solve made with cfg; raises RuntimeError when the
        solve spent its budget without certifying it to tol_gap."""
        if self.budget_exhausted(cfg):
            raise RuntimeError(
                f"value uncertified: gap {self.gap:.3g} > tol_gap {cfg.tol_gap:g} "
                f"after {self.iterations} {self.path} iterations"
            )
        return self.value


def _as_sum(f: PayoffFunction) -> SumPayoff:
    """A running sum as it is, any other payoff as a one-term `SumPayoff`,
    so the solver reads every structure hint from a sum."""
    if isinstance(f, SumPayoff):
        return f
    s = SumPayoff()
    s.add(f)
    return s


# ---------------------------------------------------------------------------
# Duality gap certification
# ---------------------------------------------------------------------------


def gap_estimate(
    f: PayoffFunction,
    X: FeasibleSet,
    Y: FeasibleSet,
    x: np.ndarray,
    y: np.ndarray,
) -> float:
    """max_{y' in Y} f(x, y') - min_{x' in X} f(x', y), clamped at zero.

    f is folded into a `SumPayoff` (``_as_sum``).  A sum of coefficient rows
    (p, G, h), over a 1-D box X and a box Y as on the envelope path, is
    certified straight from its rows in O(m) arithmetic (``_rows_gap``).
    Every other sum takes each side as the exact optimum of its closed-form
    restriction; a payoff without one raises TypeError.  Both forms raise
    ValueError on a pair outside X x Y by more than 1e-9.
    """
    f = _as_sum(f)
    rows = f.envelope_rows()
    if rows is not None:
        return _rows_gap(rows, X, Y, x, y)
    if not X.contains(x, 1e-9) or not Y.contains(y, 1e-9):
        raise ValueError("gap_estimate requires a feasible (x, y)")
    ry = f.restrict_y(x)
    rx = f.restrict_x(y)
    if ry is None or rx is None:
        raise TypeError(f"{type(f).__name__} has no closed-form restriction to certify")
    upper, _ = ry.maximize_over(Y)
    lower, _ = rx.minimize_over(X)
    return max(float(upper - lower), 0.0)


def _rows_argmax_y(G: np.ndarray, h: float, v: np.ndarray, Y: Box) -> tuple[np.ndarray, np.ndarray]:
    """(a, y): the y-slopes a = G v of the rows at v = (x^2, x, 1), and the
    maximizer y over the box Y of y . a - h ||y||^2.

    For h > 0 that is clip(a / 2h), for h = 0 the bound
    ``Box.maximize_linear`` picks: the lower one where a <= 0.  The vertex
    is divided in Python floats, which give the bits of numpy's division
    and return +-inf where a subnormal h overflows it, with no
    RuntimeWarning; the clip then takes the bound.
    """
    a = G @ v
    if h > 0.0:
        h2 = 2.0 * h
        vertex = np.array([ai / h2 for ai in a.tolist()])
        return a, np.minimum(np.maximum(vertex, Y.lower), Y.upper)
    return a, np.where(a <= 0.0, Y.lower, Y.upper)


def _rows_gap(rows, X: Box, Y: Box, x: np.ndarray, y: np.ndarray) -> float:
    """The certificate of f = p(x) + sum_i y_i g_i(x) - h ||y||^2 at (x, y),
    in O(m) arithmetic on the rows.

    upper = p.v + sum_i (y_i a_i - h y_i^2) at the inner argmax
    (``_rows_argmax_y``).  lower is the minimum over the interval X of the
    scalar quadratic (p + y^T G) . v - h ||y||^2: at its clipped vertex, or,
    when it is linear, at the bound ``Box.minimize_linear`` picks.
    """
    x, y = X._check_dim(x), Y._check_dim(y)
    xv = float(x[0])
    x_lo, x_hi = float(X.lower[0]), float(X.upper[0])
    ys = y.tolist()
    if not (
        x_lo - 1e-9 <= xv <= x_hi + 1e-9
        and all(lo - 1e-9 <= yi <= hi + 1e-9 for yi, lo, hi in zip(ys, Y.lower.tolist(), Y.upper.tolist()))
    ):
        raise ValueError("gap_estimate requires a feasible (x, y)")
    p, G, h = rows
    a, y_hat = _rows_argmax_y(G, h, powers(x), Y)
    p2, p1, p0 = map(float, p)
    upper = (p2 * xv + p1) * xv + p0 + sum(yi * (ai - h * yi) for yi, ai in zip(y_hat.tolist(), a.tolist()))
    g2, g1, g0 = (y @ G).tolist()
    c2, c1, c0 = p2 + g2, p1 + g1, p0 + g0 - h * sum(yi * yi for yi in ys)
    if c2 < 0.0:
        raise ValueError("minimize requires a convex (quad >= 0) restriction")
    if c2 == 0.0:
        xm = x_lo if c1 >= 0.0 else x_hi
    else:
        xm = min(max(-c1 / (2.0 * c2), x_lo), x_hi)
    lower = (c2 * xm + c1) * xm + c0
    return max(upper - lower, 0.0)


# ---------------------------------------------------------------------------
# Exact 2x2 matrix games
# ---------------------------------------------------------------------------


def solve_matrix_game_2x2(A: np.ndarray) -> SaddleSolution:
    """Closed-form solution of min_{x in D2} max_{y in D2} x^T A y.

    Scans the four pure saddle candidates first (a_ij maximal in its row and
    minimal in its column); only when no pure saddle exists is the mixed
    formula valid, and its denominator is then nonzero.  Fully degenerate
    (constant) matrices return uniform strategies.  Against cancellation on
    near-constant games, the denominator adds two row differences, each
    exact for close entries, and a mixed saddle's value is x*^T A y*, which
    errs only to second order in the strategies' rounding, instead of the
    ratio (a00*a11 - a01*a10) / denom.
    """
    A = np.asarray(A, dtype=float)
    if A.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    if np.ptp(A) == 0.0:
        u = np.array([0.5, 0.5])
        return SaddleSolution(u, u.copy(), float(A[0, 0]), 0.0, 0, "closed_2x2")
    for i in range(2):
        for j in range(2):
            if A[i, j] >= A[i, 1 - j] and A[i, j] <= A[1 - i, j]:
                x = np.zeros(2)
                y = np.zeros(2)
                x[i] = 1.0
                y[j] = 1.0
                return SaddleSolution(x, y, float(A[i, j]), 0.0, 0, "closed_2x2")
    denom = (A[0, 0] - A[0, 1]) + (A[1, 1] - A[1, 0])
    x1 = (A[1, 1] - A[1, 0]) / denom
    y1 = (A[1, 1] - A[0, 1]) / denom
    x = np.array([x1, 1.0 - x1])
    y = np.array([y1, 1.0 - y1])
    return SaddleSolution(x, y, float(x @ A @ y), 0.0, 0, "closed_2x2")


# ---------------------------------------------------------------------------
# Matrix games over simplexes: the simplex method
# ---------------------------------------------------------------------------

LP_PIVOTS_PER_DIM = 50
_LP_EPS = 1e-12  # reduced costs and ratio ties
_LP_PIVOT_TOL = 1e-9  # smallest pivot element; smaller ones are rounded zeros


def solve_matrix_game_lp(A: np.ndarray, X: Simplex, Y: Simplex) -> SaddleSolution | None:
    """min_x max_y x^T A y over two (floored) simplexes by the simplex method
    (Dantzig 1951); None when the pivot cap is reached.

    A floored simplex is the image x = E_x w of the standard one, with
    E_x = theta*11^T + scale*I (``Simplex.embed``), so the game on A is the
    standard game on E_x^T A E_y, solved and mapped back.
    That matrix, rescaled to entries in [1, 2], gives the LP
    max 1^T u s.t. B^T u <= 1, u >= 0, whose optimum is u = w / v for the
    minimizer's strategy w and the game value v; the dual prices of the d2
    constraints, the reduced costs of their slack columns, are the
    maximizer's strategy up to the same factor.  The dense tableau pivots by
    Bland's rule (smallest eligible index, both for the entering column and
    among ratio-test ties), which cannot cycle.  Ties are taken with a
    relative tolerance and the right-hand side is clamped at 0 after each
    pivot, so a degenerate pivot that rounds a zero to -eps cannot pick a
    wrong row later; column entries below _LP_PIVOT_TOL are rounded zeros
    and never pivot.  The pivot count, capped at LP_PIVOTS_PER_DIM*(d1+d2),
    is reported as iterations and the gap is the exact matrix-game
    certificate max_j (x^T A)_j - min_i (A y)_i on the sets.
    """
    A = np.asarray(A, dtype=float)
    B = A
    if X.theta > 0.0:
        B = X.theta * B.sum(axis=0) + X.scale * B
    if Y.theta > 0.0:
        B = Y.theta * B.sum(axis=1)[:, None] + Y.scale * B
    lo, hi = float(B.min()), float(B.max())
    B = (B - lo) / (hi - lo if hi > lo else 1.0) + 1.0
    d1, d2 = B.shape
    tab = np.zeros((d2 + 1, d1 + d2 + 1))
    tab[:d2, :d1] = B.T
    tab[:d2, d1:-1] = np.eye(d2)
    tab[:d2, -1] = 1.0
    tab[d2, :d1] = -1.0
    rhs = tab[:d2, -1]
    basis = np.arange(d1, d1 + d2)
    pivots = 0
    while True:
        entering = np.flatnonzero(tab[d2, :-1] < -_LP_EPS)
        if entering.size == 0:
            break
        if pivots >= LP_PIVOTS_PER_DIM * (d1 + d2):
            return None
        c = entering[0]
        col = tab[:d2, c]
        rows = np.flatnonzero(col > _LP_PIVOT_TOL)  # never empty: B > 0 bounds u
        ratios = rhs[rows] / col[rows]
        r_min = float(ratios.min())
        tied = rows[ratios <= r_min + _LP_EPS * (1.0 + r_min)]
        r = tied[np.argmin(basis[tied])]
        tab[r] /= tab[r, c]
        factors = tab[:, c].copy()
        factors[r] = 0.0
        tab -= np.outer(factors, tab[r])
        np.maximum(rhs, 0.0, out=rhs)
        basis[r] = c
        pivots += 1
    u = np.zeros(d1)
    structural = basis < d1
    u[basis[structural]] = rhs[structural]
    q = np.maximum(tab[d2, d1:-1], 0.0)
    x = X.embed(u / u.sum())
    y = Y.embed(q / q.sum())
    upper, _ = Y.maximize_linear(A.T @ x)
    lower, _ = X.minimize_linear(A @ y)
    return SaddleSolution(x, y, float(x @ A @ y), max(upper - lower, 0.0), pivots, "lp")


# ---------------------------------------------------------------------------
# Iterative solvers
# ---------------------------------------------------------------------------


# The extragradient kernels below call ufuncs and ndarray methods directly:
# np.all and np.linalg.norm route through Python wrappers that cost more
# than the arithmetic on the vectors of a round, for the same bits.


def _norm(v: np.ndarray) -> np.float64:
    """Euclidean norm of a 1-D float vector: sqrt(v . v), which is what
    ``np.linalg.norm`` computes for one."""
    return np.sqrt(v.dot(v))


def _operator(f, x, y):
    gx = f.grad_x(x, y)
    gy = f.grad_y(x, y)
    if not (np.logical_and.reduce(np.isfinite(gx)) and np.logical_and.reduce(np.isfinite(gy))):
        raise NonFiniteGradientError("non-finite gradient encountered")
    return gx, gy


def _estimate_lipschitz(f, X, Y, x, y) -> float:
    """Deterministic power-iteration estimate of the gradient-map Lipschitz
    constant near (x, y); probes are projected back into the sets."""
    nx, ny = x.shape[0], y.shape[0]
    u = np.ones(nx + ny)
    u[1::2] = -1.0
    u /= _norm(u)
    eps = 1e-6 * (1.0 + float(_norm(x)) + float(_norm(y)))
    gx0, gy0 = _operator(f, x, y)
    L = 1e-12
    for _ in range(6):
        x2 = X.project(x + eps * u[:nx])
        y2 = Y.project(y + eps * u[nx:])
        dz = np.concatenate([x2 - x, y2 - y])
        nd = float(_norm(dz))
        if nd < 1e-14:
            u = np.roll(u, 1)
            continue
        gx2, gy2 = _operator(f, x2, y2)
        dF = np.concatenate([gx2 - gx0, -(gy2 - gy0)])
        nF = float(_norm(dF))
        L = max(L, nF / nd)
        if nF < 1e-300:
            break
        u = dF / nF
    return L


def _kl_prox(log_p, step_lin, a, theta):
    """argmin over the floored simplex of step_lin . z + step_ent * sum z ln z
    + KL(z || p), given log_p = log(max(p, 1e-300)) and a = 1/(1 + step_ent).

    The minimizer is the water-filling of the weights exp(a * (log_p -
    step_lin)), normalized to max 1; d = 2 has its own closed form.
    """
    logits = a * (log_p - step_lin)
    b = np.exp(logits - np.maximum.reduce(logits))
    if b.shape[0] != 2:
        return waterfill(b, theta)
    b0, b1 = float(b[0]), float(b[1])
    tot = b0 + b1
    if tot <= 0.0:
        return np.array([0.5, 0.5])
    s0 = b0 / tot
    if s0 < theta:
        return np.array([theta, 1.0 - theta])
    if 1.0 - s0 < theta:
        return np.array([1.0 - theta, theta])
    return np.array([s0, 1.0 - s0])


def _mirror_prox(f, X, Y, x, y, cfg: SolverConfig, entropic: bool) -> SaddleSolution:
    """Mirror-prox (Nemirovski 2004) from (x, y) with a fixed step gamma.

    Each iteration takes a prox step from z = (x, y) along the operator
    (grad_x, -grad_y) at z to z_h, then one from z along the operator at
    z_h.  The two geometries differ only in their prox map:

    - entropic, for a bilinear-plus-entropy sum over simplexes: the KL prox
      ``_kl_prox`` from a positive start, gamma = 1/(2*max|S_ij|), the
      residual in l1;
    - Euclidean, for every other sum: the projections onto X and Y, which
      make the loop extragradient (Korpelevich 1976), gamma = 1/(2*L) for
      the power-iteration estimate L (``_estimate_lipschitz``), the residual
      in l2.

    The candidate is checked at iterations 4, 8, 16, ... and whenever the
    residual is small: the last iterate of a strongly convex-concave sum,
    the ergodic average of the z_h otherwise.  A spent budget returns the
    best candidate with iterations = max_iters.
    """
    if entropic:
        S = f.matrix
        bx, by = f.entropy_weight_x, f.entropy_weight_y
        strongly = bx > 0 or by > 0
        gamma = 1.0 / (2.0 * max(float(np.abs(S).max()), 1e-12))
        ax, ay = 1.0 / (1.0 + gamma * bx), 1.0 / (1.0 + gamma * by)

        # both prox steps of an iteration start from (x, y): one log each
        def anchor(x, y):
            return np.log(np.maximum(x, 1e-300)), np.log(np.maximum(y, 1e-300))

        def operator(x, y):
            return S @ y, S.T @ x

        def prox(px, py, gx, gy):
            return _kl_prox(px, gamma * gx, ax, X.theta), _kl_prox(py, -gamma * gy, ay, Y.theta)

        def dist(v):
            return np.add.reduce(np.abs(v))

        scale, path = 3.0, "mirror_prox"
    else:
        strongly = f.strong_H > 0
        gamma = 1.0 / (2.0 * _estimate_lipschitz(f, X, Y, x, y))

        def anchor(x, y):
            return x, y

        def operator(x, y):
            return _operator(f, x, y)

        def prox(px, py, gx, gy):
            return X.project(px - gamma * gx), Y.project(py + gamma * gy)

        dist, scale, path = _norm, X.diameter() + Y.diameter() + 1.0, "extragradient"

    sum_x = np.zeros(x.shape[0])
    sum_y = np.zeros(y.shape[0])
    best: SaddleSolution | None = None
    check_at = 4
    it = 0
    while it < cfg.max_iters:
        it += 1
        px, py = anchor(x, y)
        gx, gy = operator(x, y)
        xh, yh = prox(px, py, gx, gy)
        gx, gy = operator(xh, yh)
        xn, yn = prox(px, py, gx, gy)
        residual = (float(dist(x - xh)) + float(dist(y - yh))) / gamma
        sum_x += xh
        sum_y += yh
        x, y = xn, yn
        # a budget spent before the first check still measures its candidate
        last = best is None and it == cfg.max_iters
        if it >= check_at or residual * scale <= 0.5 * cfg.tol_gap or last:
            cx, cy = (x, y) if strongly else (sum_x / it, sum_y / it)
            g = gap_estimate(f, X, Y, cx, cy)
            cand = SaddleSolution(cx.copy(), cy.copy(), f.value(cx, cy), g, it, path)
            if best is None or g < best.gap:
                best = cand
            if g <= cfg.tol_gap:
                return cand
            check_at = max(check_at * 2, it + 1)
    best.iterations = cfg.max_iters
    return best


NEWTON_MAX_STEPS = 50


def _newton_direction(S, bx, by, theta_y, x, y, grad):
    """(dx, decrement) of the equality-constrained Newton step on the
    entropic envelope at x, where y = y*(x); see ``_entropic_newton_path``.

    Like the rest of the Newton loop, it reduces with bare ufuncs: the
    ndarray methods and np.outer/np.stack route through Python wrappers
    that cost more than the arithmetic at these sizes, for the same bits.
    """
    r = np.sqrt(x)
    y_free = np.where(y > theta_y, y, 0.0)
    Z = (r[:, None] * S) * np.sqrt(y_free)
    v = r * (S @ y_free)
    # a fully pinned y (a one-point Y) has v = 0 and no curvature term
    H = (Z @ Z.T - v[:, None] * v / max(float(np.add.reduce(y_free)), 1e-300)) / by
    H.flat[:: x.shape[0] + 1] += bx
    sol = np.linalg.solve(H, np.column_stack([r * grad, r]))
    a, b = r * sol[:, 0], r * sol[:, 1]
    dx = (np.add.reduce(a) / np.add.reduce(b)) * b - a
    return dx, -float(grad @ dx)


def _entropic_newton_path(f: SumPayoff, X, Y, x0, cfg: SolverConfig) -> SaddleSolution | None:
    """Equality-constrained Newton (Boyd & Vandenberghe 2004, sec. 10.2) on
    the convex envelope of an entropic-bilinear sum,

        phi(x) = bx sum x ln x + max_y [x^T S y - by sum y ln y],

    over the simplex, from x0.  The inner maximizer y*(x) is the water-fill
    of softmax(S^T x / by), so phi is by*logsumexp(S^T x / by) plus the
    x entropy where no floor binds (Nesterov's smoothing, Math. Program.
    2005), with gradient bx(1 + ln x) + S y* and Hessian
    bx diag(1/x) + (1/by) S (diag y* - y* y*^T) S^T.  A pinned y coordinate
    does not move, so it leaves the Hessian term; the free ones share the
    free mass m, giving diag(y_F) - y_F y_F^T / m.  The Newton system
    H dx = -grad + nu 1, 1^T dx = 0 is one solve H [a b] = [grad 1], with
    nu = sum a / sum b and dx = -(a - nu b); it is solved in the variables
    x^-1/2 dx, where H becomes bx*I plus a PSD term.  The step stops short
    of the boundary and backtracks (Armijo) on phi.

    The first iterate is x0 itself, floored at 1e-300 and renormalized, so
    a converged warm start stops before any step, with one certificate.
    The loop stops on the Newton decrement and certifies (x, y*(x)).  The
    entropy is not self-concordant, so near a vertex the decrement can
    understate the distance to the minimizer; a pair that fails tol_gap
    there keeps stepping and is certified after every further step.  None
    when an x floor binds (the minimizer leaves the set), when the line
    search stalls, or after NEWTON_MAX_STEPS steps.
    """
    bx, by = f.entropy_weight_x, f.entropy_weight_y
    if bx <= 0.0 or by <= 0.0:
        return None
    S = f.matrix
    theta_x, theta_y = X.theta, Y.theta
    stop = 1e-3 * cfg.tol_gap

    def envelope(x):
        y = entropy_tilted_argopt(S.T @ x, by, Y)
        return bx * float(x @ np.log(x)) + float(x @ (S @ y)) - by * negentropy(y), y

    x = np.maximum(x0, 1e-300)
    x = x / np.add.reduce(x)
    phi, y = envelope(x)
    steps = 0
    certify_each_step = False
    while True:
        grad = bx * (1.0 + np.log(x)) + S @ y
        # H >= bx diag(1/x) bounds the decrement by the x-weighted variance
        # of grad over bx, which needs no solve
        mean = float(x @ grad)
        dx = None
        converged = float(x @ (grad - mean) ** 2) <= stop * bx
        if not converged:
            dx, decrement = _newton_direction(S, bx, by, theta_y, x, y, grad)
            converged = decrement <= stop
        if converged or certify_each_step:
            if np.minimum.reduce(x) < theta_x:
                return None
            g = gap_estimate(f, X, Y, x, y)
            if g <= cfg.tol_gap:
                return SaddleSolution(x, y, f.value(x, y), g, steps, "newton")
            certify_each_step = True
            if dx is None:
                dx, decrement = _newton_direction(S, bx, by, theta_y, x, y, grad)
        if steps >= NEWTON_MAX_STEPS:
            return None
        steps += 1
        shrinking = dx < 0.0
        t = 1.0
        if np.logical_or.reduce(shrinking):
            t = min(t, 0.99 * float(np.minimum.reduce(-x[shrinking] / dx[shrinking])))
        while True:
            x_new = x + t * dx
            phi_new, y_new = envelope(x_new)
            if phi_new <= phi - 0.25 * t * decrement:
                break
            t *= 0.5
            if t < 1e-10:
                return None
        x, phi, y = x_new, phi_new, y_new


def envelope_argmin(p, G, h: float, X: Box, Y: Box) -> float:
    """Exact minimizer over the interval X of the convex envelope
    phi(x) = max_{y in Y} f(x, y) of

        f(x, y) = p(x) + sum_i y_i g_i(x) - h ||y||^2,   h >= 0,

    where p and each g_i are quadratics given as coefficient rows
    (x^2, x, 1) and Y = prod_i [lo_i, hi_i].

    dphi(x) = p'(x) + sum_i y_i*(x) g_i'(x) by Danskin, with the inner
    argmax y_i*(x) = clip(g_i(x) / 2h, lo_i, hi_i), or hi_i where g_i > 0
    and lo_i elsewhere when h = 0.  Each y_i* changes form only where
    g_i(x) = 2h lo_i or g_i(x) = 2h hi_i (g_i = 0 when h = 0): at most 4m
    quadratic roots.  Between these breakpoints dphi is a smooth
    nondecreasing polynomial: an interior y_i adds g_i g_i' / 2h, which is
    linear when g_i is and cubic otherwise; a pinned or clipped y_i adds
    the linear y_i g_i'.

    After the endpoint tests, the sign of dphi at the sorted breakpoints
    brackets the sign change.  On that piece the root is closed form when
    dphi is linear and safeguarded Newton otherwise, both to machine
    precision.  When h = 0, dphi jumps at the roots of g_i, so the
    minimizer may be the kink itself.  Ties resolve to sup{x : dphi(x) <= 0}.
    """
    lo, hi = float(X.lower[0]), float(X.upper[0])
    h2 = 2.0 * h
    slope0, icpt0 = 2.0 * float(p[0]), float(p[1])
    rows = []
    for (a2, a1, c), ylo, yhi in zip(np.asarray(G, dtype=float).tolist(), Y.lower.tolist(), Y.upper.tolist()):
        if ylo < yhi:
            rows.append((a2, a1, c, ylo, yhi))
        else:  # a pinned y_i adds a fixed linear term
            slope0 += 2.0 * a2 * ylo
            icpt0 += a1 * ylo

    def piece_at(xv: float):
        """dphi on the piece holding xv: slope*x + icpt from every y_i that
        is clipped or whose g_i is linear, plus g_i*g_i'/2h for each other
        interior y_i."""
        slope, icpt, inner = slope0, icpt0, []
        for a2, a1, c, ylo, yhi in rows:
            g = (a2 * xv + a1) * xv + c
            if g <= h2 * ylo:
                y = ylo
            elif h2 > 0.0 and g < h2 * yhi:
                if a2 != 0.0:
                    inner.append((a2, a1, c))
                else:
                    slope += a1 * a1 / h2
                    icpt += a1 * c / h2
                continue
            else:
                y = yhi
            slope += 2.0 * a2 * y
            icpt += a1 * y
        return slope, icpt, inner

    def on_piece(piece, xv: float) -> float:
        slope, icpt, inner = piece
        d = slope * xv + icpt
        for a2, a1, c in inner:
            d += ((a2 * xv + a1) * xv + c) * (2.0 * a2 * xv + a1) / h2
        return d

    def dphi(xv: float) -> float:
        return on_piece(piece_at(xv), xv)

    if dphi(lo) >= 0.0:
        return lo
    if dphi(hi) <= 0.0:
        return hi

    pts = [lo]
    for a2, a1, c, ylo, yhi in rows:
        pts += _quadratic_roots_inside(a2, a1, c - h2 * ylo, lo, hi)
        if h2 > 0.0:
            pts += _quadratic_roots_inside(a2, a1, c - h2 * yhi, lo, hi)
    pts.sort()
    pts.append(hi)
    i, j = 0, len(pts) - 1  # dphi(pts[i]) < 0 < dphi(pts[j])
    while j - i > 1:
        k = (i + j) // 2
        if dphi(pts[k]) > 0.0:
            j = k
        else:
            i = k
    a, b = pts[i], pts[j]

    piece = piece_at(0.5 * (a + b))
    pa, pb = on_piece(piece, a), on_piece(piece, b)
    if pa > 0.0:
        return a
    if pb <= 0.0:
        # dphi jumps up at the kink b, whose rounded root may lie just past
        # the exact one, where phi already climbs at the post-kink slope
        below = math.nextafter(b, a)
        return below if dphi(below) <= 0.0 else b
    slope, icpt, inner = piece
    if not inner:
        return min(max(-icpt / slope, a), b)
    x = a - pa * (b - a) / (pb - pa)
    for _ in range(100):
        p_x = on_piece(piece, x)
        if p_x > 0.0:
            b = x
        else:
            a = x
        dp = slope
        for a2, a1, c in inner:
            s = 2.0 * a2 * x + a1
            dp += (s * s + 2.0 * a2 * ((a2 * x + a1) * x + c)) / h2
        x_new = x - p_x / dp if dp > 0.0 else 0.5 * (a + b)
        if not a < x_new < b:
            x_new = 0.5 * (a + b)
        if abs(x_new - x) <= 1e-15 * (1.0 + abs(x)) or x_new in (a, b):
            return x_new
        x = x_new
    return x


def _quadratic_roots_inside(a2: float, a1: float, a0: float, lo: float, hi: float) -> list[float]:
    """Real roots of a2*x^2 + a1*x + a0 strictly inside (lo, hi), computed
    without cancellation."""
    if a2 == 0.0:
        roots = (-a0 / a1,) if a1 != 0.0 else ()
    else:
        disc = a1 * a1 - 4.0 * a2 * a0
        if disc < 0.0:
            return []
        q = -0.5 * (a1 + math.copysign(math.sqrt(disc), a1))
        roots = (q / a2, a0 / q) if q != 0.0 else (0.0,)
    return [r for r in roots if lo < r < hi]


def _stationary_y_candidates(rows, x_star, y_hat, Y: Box):
    """Candidate duals paired with the envelope minimizer x_star of the
    coefficient rows (p, G, h).

    The inner argmax y_hat is exact in value but, when f is linear in y,
    sits on a vertex of the optimal face.  grad_x is affine in y, with slope
    2 G[i, 0] x + G[i, 1] in y_i; filling the free coordinates (grad_y = 0)
    from their lower bounds along these slopes zeroes it, which recovers an
    interior saddle dual whenever the box allows one.
    """
    yield y_hat
    p, G, h = rows
    xv = float(x_star[0])
    gy = G @ powers(x_star) - 2.0 * h * y_hat
    free = np.abs(gy) <= 1e-9 * (1.0 + np.abs(gy).max())
    if not free.any():
        return
    lower, upper = Y.lower, Y.upper
    slope = 2.0 * G[:, 0] * xv + G[:, 1]
    y = np.where(free, lower, y_hat)
    resid = 2.0 * p[0] * xv + p[1] + float(y @ slope)
    for i in np.flatnonzero(free):
        k = float(slope[i])
        if abs(k) < 1e-300:
            continue
        y[i] = min(max(lower[i] - resid / k, lower[i]), upper[i])
        resid += k * (y[i] - lower[i])
        if abs(resid) < 1e-12:
            break
    yield y


def solve_saddle(
    f: PayoffFunction,
    X: FeasibleSet,
    Y: FeasibleSet,
    cfg: SolverConfig | None = None,
) -> SaddleSolution:
    """min_x max_y f over X x Y with a certified duality gap.

    Returns the first pair certified to tol_gap along the path order of the
    module docstring (``closed_2x2``, ``envelope``, ``newton``,
    ``warm_accept``, ``lp``); ``path`` names the path that produced it.
    Newton's first iterate is the warm start, so an entropic round whose
    warm start has converged certifies once, on the ``newton`` path, and
    the warm-start check runs only when Newton gives way.  When the
    exact and closed-form paths fail, mirror-prox runs to tol_gap or to
    max_iters, with the KL prox for an entropic-bilinear sum over simplexes
    (path ``mirror_prox``) and the Euclidean projections otherwise
    (``extragradient``); a spent budget returns the best measured candidate
    with iterations = max_iters, which ``SaddleSolution.budget_exhausted``
    reports.  Tie-breaking among non-unique saddles is deterministic (fixed
    warm start, pivot rule, probe sequence and averaging), so reruns
    reproduce bitwise.
    """
    cfg = cfg or SolverConfig()
    f = _as_sum(f)
    if cfg.warm_start is not None:
        x0, y0 = cfg.warm_start
        x0 = np.array(x0, dtype=float)
        y0 = np.array(y0, dtype=float)
        if not (X.contains(x0, 1e-9) and Y.contains(y0, 1e-9)):
            raise ValueError("infeasible warm start rejected")
    else:
        x0 = X.origin_projection()
        y0 = Y.origin_projection()

    simplexes = isinstance(X, Simplex) and isinstance(Y, Simplex)
    if (
        simplexes
        and X.theta == Y.theta == 0.0
        and f.is_pure_bilinear()
        and f.matrix.shape == (2, 2)
    ):
        sol = solve_matrix_game_2x2(f.matrix)
        sol.gap = gap_estimate(f, X, Y, sol.x_star, sol.y_star)
        return sol

    rows = f.envelope_rows()
    if rows is not None:
        x = np.array([envelope_argmin(*rows, X, Y)])
        _, y_hat = _rows_argmax_y(rows[1], rows[2], powers(x), Y)
        for y in _stationary_y_candidates(rows, x, y_hat, Y):
            g = gap_estimate(f, X, Y, x, y)
            if g <= cfg.tol_gap:
                return SaddleSolution(x, y, f.value(x, y), g, 0, "envelope")

    entropic = simplexes and f.is_entropic_bilinear()
    if entropic:
        newton = _entropic_newton_path(f, X, Y, x0, cfg)
        if newton is not None:
            return newton

    if cfg.warm_start is not None:
        g0 = gap_estimate(f, X, Y, x0, y0)
        if g0 <= cfg.tol_gap:
            return SaddleSolution(x0, y0, f.value(x0, y0), g0, 0, "warm_accept")

    if simplexes and f.is_pure_bilinear():
        lp = solve_matrix_game_lp(f.matrix, X, Y)
        if lp is not None:
            lp.gap = gap_estimate(f, X, Y, lp.x_star, lp.y_star)
            if lp.gap <= cfg.tol_gap:
                return lp
    if entropic:
        x0 = np.maximum(x0, 1e-300)
        x0 = x0 / x0.sum()
        y0 = np.maximum(y0, 1e-300)
        y0 = y0 / y0.sum()
    return _mirror_prox(f, X, Y, x0, y0, cfg, entropic)
