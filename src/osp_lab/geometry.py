"""Convex compact feasible sets: membership, Euclidean projection, diameter.

Two set kinds cover every domain used in the library: boxes (also the
dual domain prod_i [0, y_max_i] of the knapsack Lagrangian) and probability
simplexes with a per-coordinate floor theta (all entries >= theta), whose
theta = 0 case is the plain simplex.  Each optimizes a linear function in
closed form, which the exact duality-gap certificates of the saddle solver
build on.  Projection onto a floored simplex reuses the sorted-threshold
projection onto the standard simplex through the affine bijection
w -> theta*1 + (1 - d*theta)*w; Euclidean projection commutes with that
similarity, so one routine serves every floor.

The kernels that a first-order round calls (``project_simplex`` and the
``project``/``contains`` of both sets) use ufuncs and ndarray methods
directly: ``np.sort``, ``np.cumsum``, ``np.nonzero``, ``np.all`` and
``np.clip`` route through Python-level wrappers that cost more than the
arithmetic on the 2- to 64-vectors of a round.  Each replacement computes
the same bits as the expression it stands for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_MEMBERSHIP_TOL = 1e-9


def project_simplex(z: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {w : w >= 0, sum w = 1} by sorted thresholding.

    O(d log d); the classic algorithm of Held/Wolfe/Crowder, see also
    Duchi et al. (2008).  A NaN or an infinite entry raises ``ValueError``.

    It runs once or twice per extragradient iteration, so it calls the
    sort, the running sum and the support search as ndarray methods and
    ufuncs, and thresholds in Python floats; these have the bits of
    ``np.sort(z)[::-1]``, ``np.cumsum`` and ``np.nonzero`` without their
    wrappers.
    """
    z = np.asarray(z, dtype=float)
    d = z.shape[0]
    if d == 1:
        return np.ones(1)
    u = z.copy()
    u.sort()
    u = u[::-1]
    # NaN sorts to the top after the reversal and +-inf lands at an end, so
    # the two ends see every non-finite entry
    top = float(u[0])
    if not (math.isfinite(top) and math.isfinite(float(u[-1]))):
        raise ValueError(f"project_simplex needs finite entries, got {z!r}")
    if not top - (top - 1.0) > 0:
        # the unit mass vanished in rounding (|top| >= 2**53), so no index
        # would pass the test below; the projection is invariant under a
        # common shift of z, so move the top entry to 0
        z, u = z - top, u - top
    css = np.add.accumulate(u) - 1.0
    ks = np.arange(1, d + 1)
    cond = u - css / ks > 0
    rho = int(cond.nonzero()[0][-1])
    tau = float(css[rho]) / (rho + 1.0)
    return np.maximum(z - tau, 0.0)


class FeasibleSet:
    """Base class; subclasses implement contains/project/diameter."""

    dimension: int

    def contains(self, z: np.ndarray, tol: float = DEFAULT_MEMBERSHIP_TOL) -> bool:
        raise NotImplementedError

    def project(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def diameter(self) -> float:
        raise NotImplementedError

    def origin_projection(self) -> np.ndarray:
        return self.project(np.zeros(self.dimension))

    def _check_dim(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if z.shape != (self.dimension,):
            raise ValueError(
                f"dimension mismatch: expected ({self.dimension},), got {z.shape}"
            )
        return z

    # Linear optimization in closed form, used for duality-gap certificates
    # on payoffs that are linear in one argument.
    def minimize_linear(self, g: np.ndarray) -> tuple[float, np.ndarray]:
        raise NotImplementedError

    def maximize_linear(self, g: np.ndarray) -> tuple[float, np.ndarray]:
        val, arg = self.minimize_linear(-np.asarray(g, dtype=float))
        return -val, arg


@dataclass(frozen=True)
class Box(FeasibleSet):
    """{z : lower <= z <= upper} componentwise."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape:
            raise ValueError("lower/upper shape mismatch")
        if np.any(lo > hi):
            raise ValueError("Box requires lower <= upper componentwise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "dimension", lo.shape[0])

    # The kernels call the ufuncs directly: np.all and np.clip route through
    # Python wrappers that cost more than the arithmetic on small boxes.
    # minimum(maximum(z, lower), upper) has the bits of np.clip, also on
    # signed zeros, infinities and NaN.
    def contains(self, z, tol=DEFAULT_MEMBERSHIP_TOL):
        z = self._check_dim(z)
        return bool(np.logical_and.reduce(z >= self.lower - tol)) and bool(np.logical_and.reduce(z <= self.upper + tol))

    def project(self, z):
        z = self._check_dim(z)
        return np.minimum(np.maximum(z, self.lower), self.upper)

    def diameter(self):
        return float(np.linalg.norm(self.upper - self.lower))

    def minimize_linear(self, g):
        g = np.asarray(g, dtype=float)
        arg = np.where(g >= 0, self.lower, self.upper)
        return float(g @ arg), arg


@dataclass(frozen=True, repr=False)
class Simplex(FeasibleSet):
    """Probability simplex over d coordinates with floor theta on every
    coordinate: {z in Delta : z_i >= theta}.

    theta = 0 (the default) is the plain simplex.  Nonempty iff
    0 <= theta <= 1/d; theta = 1/d degenerates to the single point
    (1/d, ..., 1/d).  At theta = 0, projection and linear optimization skip
    the identity embedding, so the plain simplex keeps its own arithmetic.
    """

    d: int
    theta: float = 0.0

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("Simplex dimension must be positive")
        if not (0.0 <= self.theta <= 1.0 / self.d + 1e-15):
            raise ValueError("theta must lie in [0, 1/d]")
        object.__setattr__(self, "dimension", self.d)
        # contraction factor of the affine embedding of the standard simplex
        object.__setattr__(self, "scale", 1.0 - self.d * self.theta)

    def __repr__(self):
        floor = f", theta={self.theta!r}" if self.theta else ""
        return f"Simplex(d={self.d}{floor})"

    def embed(self, w: np.ndarray) -> np.ndarray:
        """Map the standard simplex onto this set: w -> theta*1 + scale*w."""
        return self.theta + self.scale * np.asarray(w, dtype=float)

    def contains(self, z, tol=DEFAULT_MEMBERSHIP_TOL):
        z = self._check_dim(z)
        return bool(np.logical_and.reduce(z >= self.theta - tol)) and abs(float(np.add.reduce(z)) - 1.0) <= tol

    def project(self, z):
        z = self._check_dim(z)
        if self.theta == 0.0:
            return project_simplex(z)
        s = self.scale
        if s <= 1e-15:
            return np.full(self.d, 1.0 / self.d)
        return self.embed(project_simplex((z - self.theta) / s))

    def diameter(self):
        # distance between two vertices; a 1-point simplex has diameter 0
        return 0.0 if self.d == 1 else float(np.sqrt(2.0) * self.scale)

    def uniform(self) -> np.ndarray:
        return np.full(self.d, 1.0 / self.d)

    # by symmetry the projection of 0 is the exact centre; projecting through
    # the embedding would round theta + scale/d off 1/d for some (d, theta)
    origin_projection = uniform

    def minimize_linear(self, g):
        # floor mass theta everywhere, free mass scale on the best coordinate
        g = np.asarray(g, dtype=float)
        i = int(np.argmin(g))
        if self.theta == 0.0:
            arg = np.zeros(self.d)
            arg[i] = 1.0
            return float(g[i]), arg
        arg = np.full(self.d, self.theta)
        arg[i] += self.scale
        return float(g @ arg), arg


def interval(lo: float, hi: float) -> Box:
    """One-dimensional box, the workhorse of the scalar experiments."""
    return Box(np.array([lo]), np.array([hi]))
