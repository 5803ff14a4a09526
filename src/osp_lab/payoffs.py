"""Convex-concave payoff functions with values, subgradients, and metadata.

A payoff knows its Lipschitz constant (w.r.t. a declared norm) and its
joint strong convexity-concavity modulus.  The library has three payoff
families: scalar convex-concave quadratics, bilinear games (optionally with
entropy or squared-norm regularizers), and the knapsack Lagrangians of
``knapsack``.  Only their running sum restricts itself to one argument: a
`SumPayoff` of any of them restricts in closed form to a separable quadratic
or a linear-plus-entropy form, whose exact optimization over a feasible set
gives every duality-gap certificate.  A payoff the sum cannot fold is
refused with a ``TypeError``; nothing falls back to an iterative inner
solve.  The harness reads its best responses from restriction rows that the
scenarios compute in array passes (``metrics_harness``).

A payoff whose x is 1-D may give its coefficient rows (``envelope_rows``):
f = p(x) + sum_i y_i g_i(x) - h ||y||^2, with p and each g_i a row
(x^2, x, 1).  The scalar quadratics and the knapsack Lagrangians give rows,
and so does a regularized payoff whose base gives rows and whose two
regularizers are squared norms, which fold into p's x^2 entry and into h.

`SumPayoff` is the library's one running sum, of O(1) size so
follow-the-leader style algorithms stay cheap over long horizons.  It holds
either the summed rows (p, G, h) or a summed matrix with one regularizer
slot per axis, and it builds from that state every closed-form restriction
the solver certifies with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Box, FeasibleSet, Simplex


def negentropy(z: np.ndarray) -> float:
    """sum z_i ln z_i over a vector z, with the 0 ln 0 = 0 convention.

    A positive z takes one pass on bare ufunc reductions; z[pos] would be a
    contiguous copy of z, so the masked form gives the same bits.
    """
    z = np.asarray(z, dtype=float)
    if z.size and np.minimum.reduce(z) > 0:
        return float(np.add.reduce(z * np.log(z)))
    pos = z > 0
    return float(np.sum(z[pos] * np.log(z[pos])))


# ---------------------------------------------------------------------------
# One-variable restrictions
# ---------------------------------------------------------------------------


@dataclass
class SeparableQuadratic:
    """q(z) = sum_i quad_i z_i^2 + lin . z + const."""

    quad: np.ndarray
    lin: np.ndarray
    const: float = 0.0

    def value(self, z: np.ndarray) -> float:
        z = np.asarray(z, dtype=float)
        return float(self.quad @ (z * z) + self.lin @ z + self.const)

    def grad(self, z: np.ndarray) -> np.ndarray:
        return 2.0 * self.quad * np.asarray(z, dtype=float) + self.lin

    def minimize_over(self, dset: FeasibleSet) -> tuple[float, np.ndarray]:
        # bare ufuncs instead of the np.all/np.any/np.clip wrappers, for the
        # same bits, as in Box.project: this is the certificate's route
        if np.logical_and.reduce(self.quad == 0.0):
            val, arg = dset.minimize_linear(self.lin)
            return val + self.const, arg
        if np.logical_or.reduce(self.quad < 0.0):
            raise ValueError("minimize requires a convex (quad >= 0) restriction")
        if isinstance(dset, Box):
            lo, hi = dset.lower, dset.upper
            # a subnormal quad puts the vertex at +-inf, which the clip handles
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                vertex = np.where(self.quad > 0, -self.lin / (2.0 * self.quad), 0.0)
            arg = np.minimum(np.maximum(vertex, lo), hi)
            zero = self.quad == 0.0
            if np.logical_or.reduce(zero):
                arg = np.where(zero, np.where(self.lin >= 0, lo, hi), arg)
            return self.value(arg), arg
        # exact isotropy: projecting with quad[0] minimizes the sum exactly
        # only when every coordinate has that weight
        if isinstance(dset, Simplex) and np.logical_and.reduce(self.quad == self.quad[0]):
            arg = dset.project(-self.lin / (2.0 * float(self.quad[0])))
            return self.value(arg), arg
        raise TypeError("no closed-form minimizer of a non-isotropic quadratic on a simplex")

    def maximize_over(self, dset: FeasibleSet) -> tuple[float, np.ndarray]:
        neg = SeparableQuadratic(-self.quad, -self.lin, -self.const)
        val, arg = neg.minimize_over(dset)
        return -val, arg


@dataclass
class LinearPlusEntropy:
    """q(z) = lin . z + ent_weight * sum z_i ln z_i + const on a simplex.

    Convex for ent_weight >= 0; the concave (maximization) direction flips
    the sign.  Exact optimization over a floored simplex is a water-filling
    over exponential weights: free coordinates share the leftover mass in
    proportion to exp(of the right tilt), coordinates whose share would dip
    below the floor are pinned there.
    """

    lin: np.ndarray
    ent_weight: float
    const: float = 0.0

    def value(self, z: np.ndarray) -> float:
        return float(self.lin @ z) + self.ent_weight * negentropy(z) + self.const

    def minimize_over(self, dset: FeasibleSet) -> tuple[float, np.ndarray]:
        if self.ent_weight < 0:
            raise ValueError("minimize requires ent_weight >= 0")
        arg = entropy_tilted_argopt(-self.lin, self.ent_weight, dset)
        return self.value(arg), arg

    def maximize_over(self, dset: FeasibleSet) -> tuple[float, np.ndarray]:
        if self.ent_weight > 0:
            raise ValueError("maximize requires ent_weight <= 0")
        arg = entropy_tilted_argopt(self.lin, -self.ent_weight, dset)
        return self.value(arg), arg


def entropy_tilted_argopt(g: np.ndarray, beta: float, dset: FeasibleSet) -> np.ndarray:
    """argmax over the (floored) simplex of g . z - beta * sum z ln z, beta >= 0.

    beta = 0 degenerates to linear optimization.  Otherwise the KKT system
    is the water-filling of the exponential weights exp((g - max g) / beta)
    (``waterfill``), for every d including d = 2.
    """
    if not isinstance(dset, Simplex):
        raise TypeError("entropy-tilted optimization needs a simplex")
    g = np.asarray(g, dtype=float)
    if beta <= 0.0:
        _, arg = dset.maximize_linear(g)
        return arg
    return waterfill(np.exp((g - np.maximum.reduce(g)) / beta), dset.theta)


def waterfill(b: np.ndarray, theta: float) -> np.ndarray:
    """Split unit mass in proportion to the weights b, with floor theta on
    every coordinate.

    This is the KKT solution of every entropic step over a floored simplex:
    each free coordinate gets b_i * mass / (sum of free b), where mass is
    what the pinned coordinates leave, and a coordinate whose share falls
    below theta is pinned at theta.  Each pass that does not return pins at
    least one coordinate, so there are at most d passes.  When no floor
    binds (always for theta = 0), the first pass is the answer: with every
    coordinate free, mass is exactly 1.0 and the free sum is b.sum(), so the
    fast path returns the same bits as the full loop.

    Callers pass b = exp(logits - max logits), so max(b) = 1.  All shares of
    a pass come from one multiplier, so a coordinate of maximal weight is
    pinned only in a pass that pins every free coordinate; until then the
    free sum is at least 1 and cannot underflow, whatever the spread of the
    logits.  For theta <= 1/d that coordinate is never pinned: with F free,
    its share is mass / (free sum) >= (1 - theta*(d - |F|)) / |F|
    = theta + (1 - theta*d) / |F| >= theta.  The one fallback below (every
    free weight zero) is therefore unreachable for normalized weights; it
    puts the free mass on the first free coordinate.
    """
    denom = float(np.add.reduce(b))
    if denom > 0.0:
        share = b * (1.0 / denom)
        if np.minimum.reduce(share) >= theta:
            return share
    d = b.shape[0]
    free = np.ones(d, dtype=bool)
    mass = 1.0
    while True:
        if denom <= 0.0:
            idx = np.flatnonzero(free)
            out = np.full(d, theta)
            out[idx[0]] += mass - theta * len(idx)
            return out
        share = b * (mass / denom)
        newly = free & (share < theta)
        if not newly.any():
            return np.where(free, share, theta)
        free &= ~newly
        if not free.any():
            return np.full(d, theta)
        mass = 1.0 - theta * float(np.sum(~free))
        denom = float(b[free].sum())


# ---------------------------------------------------------------------------
# Payoff functions
# ---------------------------------------------------------------------------


class PayoffFunction:
    """Convex in x (for each y), concave in y (for each x).

    The one structure hint is ``envelope_rows``: the coefficient rows of a
    payoff whose x is 1-D, or None.  `SumPayoff` folds the rows it is given
    and hands its sum to the solver, which sees only running sums and reads
    their other hints (``matrix`` and the two ``is_*`` tests) there.  A
    payoff has no one-argument restrictions of its own: the sum builds the
    ones the certificates need.
    """

    lipschitz_G: float = 0.0
    strong_H: float = 0.0
    norm_tag: str = "l2"

    def value(self, x: np.ndarray, y: np.ndarray) -> float:
        raise NotImplementedError

    def grad_x(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grad_y(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def envelope_rows(self):
        """(p, G, h) when f(x, y) = p(x) + sum_i y_i G_i(x) - h ||y||^2 on
        a 1-D box of x and a box of y, with p and each G_i a quadratic's
        coefficient row (x^2, x, 1) and h >= 0, or None; the solver
        minimizes its envelope exactly with ``saddle_solver.envelope_argmin``."""
        return None


@dataclass
class ScalarQuadraticBilinear(PayoffFunction):
    """cxy*x*y + cx2*x^2 + cx1*x + cy2*y^2 + cy1*y + c0 on scalar x, y.

    Convex-concave iff cx2 >= 0 >= cy2.  Scalars are carried as 1-vectors;
    there is no separate scalar code path.
    """

    cxy: float
    cx2: float
    cx1: float
    cy2: float
    cy1: float
    c0: float = 0.0
    lipschitz_G: float = 0.0
    norm_tag: str = "l2"

    def __post_init__(self):
        if self.cx2 < 0 or self.cy2 > 0:
            raise ValueError("requires cx2 >= 0 (convex in x) and cy2 <= 0 (concave in y)")
        self.strong_H = float(min(2.0 * self.cx2, -2.0 * self.cy2))

    def value(self, x, y):
        xv, yv = float(x[0]), float(y[0])
        return (
            self.cxy * xv * yv
            + self.cx2 * xv * xv
            + self.cx1 * xv
            + self.cy2 * yv * yv
            + self.cy1 * yv
            + self.c0
        )

    def grad_x(self, x, y):
        return np.array([self.cxy * float(y[0]) + 2.0 * self.cx2 * float(x[0]) + self.cx1])

    def grad_y(self, x, y):
        return np.array([self.cxy * float(x[0]) + 2.0 * self.cy2 * float(y[0]) + self.cy1])

    def envelope_rows(self):
        """p = (cx2, cx1, c0), one row (0, cxy, cy1) and h = -cy2."""
        return np.array([self.cx2, self.cx1, self.c0]), np.array([[0.0, self.cxy, self.cy1]]), -self.cy2


def _corner_gradient_sup(payoff: ScalarQuadraticBilinear, xw: float, yw: float) -> float:
    """Max Euclidean gradient norm over the box [-xw,xw] x [-yw,yw].

    Both gradient components are affine in (x, y), so the squared norm is
    convex and attains its max at a corner.
    """
    best = 0.0
    for sx in (-xw, xw):
        for sy in (-yw, yw):
            g1 = payoff.cxy * sy + 2.0 * payoff.cx2 * sx + payoff.cx1
            g2 = payoff.cxy * sx + 2.0 * payoff.cy2 * sy + payoff.cy1
            best = max(best, g1 * g1 + g2 * g2)
    return float(np.sqrt(best))


def make_quadratic_bilinear(
    a: float,
    h: float,
    p: float,
    q: float,
    x_halfwidth: float = 10.0,
    y_halfwidth: float = 10.0,
) -> ScalarQuadraticBilinear:
    """a*x*y + (h/2)(x - p)^2 - (h/2)(y - q)^2 with G taken over the stated box."""
    if h < 0:
        raise ValueError("curvature h must be nonnegative")
    payoff = ScalarQuadraticBilinear(
        cxy=a,
        cx2=h / 2.0,
        cx1=-h * p,
        cy2=-h / 2.0,
        cy1=h * q,
        c0=h * p * p / 2.0 - h * q * q / 2.0,
    )
    payoff.lipschitz_G = _corner_gradient_sup(payoff, x_halfwidth, y_halfwidth)
    return payoff


def make_scalar_convex_concave(
    cxy: float,
    cx2: float,
    cx1: float,
    cy2: float,
    cy1: float,
    c0: float = 0.0,
    x_halfwidth: float = 1.0,
    y_halfwidth: float = 1.0,
) -> ScalarQuadraticBilinear:
    payoff = ScalarQuadraticBilinear(cxy, cx2, cx1, cy2, cy1, c0)
    payoff.lipschitz_G = _corner_gradient_sup(payoff, x_halfwidth, y_halfwidth)
    return payoff


@dataclass
class BilinearPayoff(PayoffFunction):
    """x^T A y; game payoff matrices carry entries in [-1, 1].

    entry_bound=None lifts the range check (needed for one-point importance
    weighted estimates, whose entries scale with 1/delta^2).
    """

    A: np.ndarray
    norm_tag: str = "l1"
    entry_bound: float | None = 1.0

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        if A.ndim != 2:
            raise ValueError("A must be a matrix")
        c = float(np.abs(A).max()) if A.size else 0.0
        if self.entry_bound is not None and c > self.entry_bound + 1e-12:
            raise ValueError(f"matrix entries must lie in [-{self.entry_bound}, {self.entry_bound}]")
        self.A = A
        self.strong_H = 0.0
        self.lipschitz_G = bilinear_lipschitz(A, self.norm_tag)

    def value(self, x, y):
        return float(x @ self.A @ y)

    def grad_x(self, x, y):
        return self.A @ y

    def grad_y(self, x, y):
        return self.A.T @ x


def bilinear_lipschitz(A: np.ndarray, norm_tag: str = "l1") -> float:
    """Lipschitz constant of x^T A y over simplexes, per entry bound c = max|A_ij|.

    c for the l1 norm; sqrt(c)(sqrt(d1) + sqrt(d2)) for the l2 norm.
    """
    A = np.asarray(A, dtype=float)
    c = float(np.abs(A).max()) if A.size else 0.0
    if norm_tag == "l1":
        return c
    if norm_tag == "l2":
        d1, d2 = A.shape
        return float(np.sqrt(c) * (np.sqrt(d1) + np.sqrt(d2)))
    raise ValueError(f"unknown norm tag {norm_tag!r}")


def make_bilinear(A: np.ndarray, norm_tag: str = "l1") -> BilinearPayoff:
    return BilinearPayoff(np.asarray(A, dtype=float), norm_tag=norm_tag)


# ---------------------------------------------------------------------------
# Regularizers
# ---------------------------------------------------------------------------


class Regularizer:
    """Nonnegative strongly convex function of a single block variable."""

    tag = "generic"
    strong_modulus: float = 0.0
    lipschitz_G: float = 0.0

    def value(self, z: np.ndarray) -> float:
        raise NotImplementedError

    def grad(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def merge_key(self):
        return (self.tag, id(self))


@dataclass
class SquaredNormRegularizer(Regularizer):
    """R(z) = ||z||_2^2; 2-strongly convex, gradient norm 2*radius on the set."""

    radius_bound: float

    tag = "sqnorm"

    def __post_init__(self):
        self.strong_modulus = 2.0
        self.lipschitz_G = 2.0 * float(self.radius_bound)

    def value(self, z):
        z = np.asarray(z, dtype=float)
        return float(z @ z)

    def grad(self, z):
        return 2.0 * np.asarray(z, dtype=float)

    def merge_key(self):
        return ("sqnorm",)


@dataclass
class RegularizedPayoff(PayoffFunction):
    """base + weight * reg_x(x) - weight * reg_y(y).

    It has no restrictions of its own: its closed forms are read from the
    `SumPayoff` that folds it, as the solver and ``gap_estimate`` do.  The
    stored Lipschitz constant is the conservative sum form
    G_base + weight*(G_reg_x + G_reg_y).
    """

    base: PayoffFunction
    reg_x: Regularizer
    reg_y: Regularizer
    weight: float

    def __post_init__(self):
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        self.strong_H = self.base.strong_H + self.weight * min(
            self.reg_x.strong_modulus, self.reg_y.strong_modulus
        )
        self.lipschitz_G = self.base.lipschitz_G + self.weight * (
            self.reg_x.lipschitz_G + self.reg_y.lipschitz_G
        )
        self.norm_tag = self.base.norm_tag

    def value(self, x, y):
        return (
            self.base.value(x, y)
            + self.weight * self.reg_x.value(x)
            - self.weight * self.reg_y.value(y)
        )

    def grad_x(self, x, y):
        return self.base.grad_x(x, y) + self.weight * self.reg_x.grad(x)

    def grad_y(self, x, y):
        return self.base.grad_y(x, y) - self.weight * self.reg_y.grad(y)

    def envelope_rows(self):
        """The base's rows with the weight added to p's x^2 entry and to h,
        when both regularizers are squared norms."""
        rows = self.base.envelope_rows()
        if rows is None or self.reg_x.tag != "sqnorm" or self.reg_y.tag != "sqnorm":
            return None
        p, G, h = rows
        return np.array([p[0] + self.weight, p[1], p[2]]), G, h + self.weight


def regularize(
    base: PayoffFunction,
    reg_x: Regularizer,
    reg_y: Regularizer,
    weight: float,
) -> RegularizedPayoff:
    return RegularizedPayoff(base, reg_x, reg_y, weight)


# ---------------------------------------------------------------------------
# Running sums
# ---------------------------------------------------------------------------


class SumPayoff(PayoffFunction):
    """Incremental sum of payoffs in O(1) state: the summed coefficient rows
    (p, G, h) of payoffs that give rows (``envelope_rows``), or the summed
    matrix of bilinear payoffs with one regularizer slot per axis: None or
    (regularizer, summed weight) for one squared norm, of any radius, or
    one entropy; another ``merge_key`` on the same axis is refused.  A rows
    sum carries its squared norms in the rows and has no slots.  Every sum
    that `add` accepts builds from this state its closed-form restrictions,
    separable quadratics or linear-plus-entropy forms."""

    def __init__(self):
        self.count = 0
        self.strong_H = 0.0
        self.lipschitz_G = 0.0
        self.norm_tag = "l2"
        self._p: np.ndarray | None = None  # (3,); with _G (m, 3) and _h
        self._G: np.ndarray | None = None
        self._h = 0.0
        self._matrix: np.ndarray | None = None
        self._reg_x: tuple[Regularizer, float] | None = None
        self._reg_y: tuple[Regularizer, float] | None = None

    def add(self, payoff: PayoffFunction) -> None:
        """Fold one payoff into the sum.

        Raises TypeError, and leaves the sum unusable, on a payoff outside the
        folded families or one that would cost the sum its closed-form
        restrictions (see ``_require_closed_form``).
        """
        self._add_part(payoff)
        self.count += 1
        self.strong_H += payoff.strong_H
        self.lipschitz_G += payoff.lipschitz_G
        self.norm_tag = payoff.norm_tag

    def _add_part(self, payoff: PayoffFunction) -> None:
        rows = payoff.envelope_rows()
        if rows is not None:
            p, G, h = rows
            if self._p is None:
                self._p, self._G, self._h = np.array(p, dtype=float), np.array(G, dtype=float), h
                self._require_closed_form()
            elif np.shape(G) != self._G.shape:  # numpy would broadcast one row over m
                raise TypeError(f"rows of shape {np.shape(G)} added to a sum of {self._G.shape}")
            else:
                self._p += p
                self._G += G
                self._h += h
        elif isinstance(payoff, RegularizedPayoff):
            self._add_part(payoff.base)
            self._reg_x = _merged(self._reg_x, payoff.reg_x, payoff.weight)
            self._reg_y = _merged(self._reg_y, payoff.reg_y, payoff.weight)
            self._require_closed_form()
        elif isinstance(payoff, BilinearPayoff):
            if self._matrix is None:
                self._matrix = payoff.A.copy()
                self._require_closed_form()
            else:
                self._matrix += payoff.A
        else:
            raise TypeError(f"SumPayoff folds no {type(payoff).__name__}")

    def _require_closed_form(self) -> None:
        """A rows sum takes no matrix and no slot (``_merged`` checks slots)."""
        if self._p is not None and (self._matrix is not None or self._reg_x is not None or self._reg_y is not None):
            raise TypeError(
                "a coefficient-row sum takes no matrix and no regularizer "
                "other than squared norms folded into its rows"
            )

    # -- evaluation ---------------------------------------------------------

    def value(self, x, y):
        if self._p is not None:
            v = powers(x)
            return float(self._p @ v) + float(y @ (self._G @ v)) - self._h * float(y @ y)
        total = 0.0
        if self._matrix is not None:
            total += float(x @ self._matrix @ y)
        return total + _slot_value(self._reg_x, x) - _slot_value(self._reg_y, y)

    def grad_x(self, x, y):
        if self._p is not None:
            xv, p, G = float(x[0]), self._p, self._G
            return np.array([2.0 * p[0] * xv + p[1] + float(y @ (2.0 * G[:, 0] * xv + G[:, 1]))])
        # the zero start turns a -0.0 product into +0.0
        g = np.zeros(len(x))
        if self._matrix is not None:
            g = g + self._matrix @ y
        if self._reg_x is not None:
            g = g + self._reg_x[1] * self._reg_x[0].grad(x)
        return g

    def grad_y(self, x, y):
        if self._p is not None:
            return self._G @ powers(x) - 2.0 * self._h * np.asarray(y)
        g = np.zeros(len(y))
        if self._matrix is not None:
            g = g + self._matrix.T @ x
        if self._reg_y is not None:
            g = g - self._reg_y[1] * self._reg_y[0].grad(y)
        return g

    # -- structure hints for the solver --------------------------------------

    @property
    def entropy_weight_x(self) -> float:
        return _entropy_weight(self._reg_x)

    @property
    def entropy_weight_y(self) -> float:
        return _entropy_weight(self._reg_y)

    def is_pure_bilinear(self) -> bool:
        return self._matrix is not None and self._reg_x is None and self._reg_y is None

    def is_entropic_bilinear(self) -> bool:
        """Bilinear smooth part + entropy regularization only."""
        return self._matrix is not None and all(
            slot is None or slot[0].tag == "entropy" for slot in (self._reg_x, self._reg_y)
        )

    @property
    def matrix(self) -> np.ndarray | None:
        return self._matrix

    def envelope_rows(self):
        """The summed rows, or None for a matrix sum."""
        if self._p is None:
            return None
        return self._p, self._G, self._h

    # -- restrictions ---------------------------------------------------------

    def restrict_x(self, y):
        if self._p is not None:
            y = np.asarray(y, dtype=float)
            p, G = self._p, self._G
            return SeparableQuadratic(
                np.array([p[0] + float(y @ G[:, 0])]),
                np.array([p[1] + float(y @ G[:, 1])]),
                p[2] + float(y @ G[:, 2]) - self._h * float(y @ y),
            )
        if self._matrix is None:  # empty sum
            return None
        # 0.0 - v, not -v: an empty y slot leaves the constant +0.0
        return _slot_restriction(self._reg_x, 1.0, self._matrix @ y, 0.0 - _slot_value(self._reg_y, y))

    def restrict_y(self, x):
        if self._p is not None:
            v = powers(x)
            return SeparableQuadratic(np.full(self._G.shape[0], -self._h), self._G @ v, float(self._p @ v))
        if self._matrix is None:  # empty sum
            return None
        return _slot_restriction(self._reg_y, -1.0, self._matrix.T @ x, _slot_value(self._reg_x, x))


def _merged(slot, reg: Regularizer, weight: float):
    """The slot (regularizer, summed weight) with weight * reg added.  A
    first regularizer fills an empty slot if it is a squared norm or an
    entropy; a later one must share the slot's ``merge_key``."""
    if slot is None:
        if reg.tag not in ("sqnorm", "entropy"):
            raise TypeError(f"no closed-form restriction for a {reg.tag!r} regularizer")
        return reg, weight
    if reg.merge_key() != slot[0].merge_key():
        raise TypeError(f"no closed-form restriction for regularizers {slot[0].merge_key()} and {reg.merge_key()} on one axis")
    return slot[0], slot[1] + weight


def _slot_value(slot, z) -> float:
    """w * R(z) for the slot (R, w), 0.0 for an empty slot."""
    return 0.0 if slot is None else slot[1] * slot[0].value(z)


def _entropy_weight(slot) -> float:
    return slot[1] if slot is not None and slot[0].tag == "entropy" else 0.0


def _slot_restriction(slot, sign: float, lin: np.ndarray, const: float):
    """lin . z + const + sign * w * R(z) for the slot (R, w); an entropy's
    R(z) = sum z ln z + ln d puts sign * w * ln d in the constant."""
    n = lin.shape[0]
    if slot is None:
        return SeparableQuadratic(np.zeros(n), lin, const)
    reg, w = slot
    if reg.tag == "sqnorm":
        return SeparableQuadratic(np.full(n, sign * w), lin, const)
    return LinearPlusEntropy(lin, sign * w, const + sign * w * np.log(n))


def powers(x) -> np.ndarray:
    """(x^2, x, 1) of a 1-D action x, the basis of coefficient rows."""
    xv = float(x[0])
    return np.array([xv * xv, xv, 1.0])
