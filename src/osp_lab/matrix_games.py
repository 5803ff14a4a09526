"""Online matrix games over (restricted) probability simplexes.

Entropy-regularized follow-the-leader (OMG-RFTL) under full information,
and its bandit variant where each round only the payoff entry of the
sampled action pair is observed and the matrix is reconstructed by a
single-cell importance-weighted estimate.

OMG-RFTL is ``osp_algorithms.SPRFTL`` with entropy regularizers over floored
simplexes and the bandit algorithm is OMG-RFTL fed one-point estimates, so
both play their rounds through ``SPFTL.step``, the one follow-the-leader driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Simplex
from .osp_algorithms import SPRFTL, SPRFTLConfig
from .payoffs import BilinearPayoff, Regularizer, negentropy
from .saddle_solver import SolverConfig, require_positive


@dataclass
class EntropyRegularizer(Regularizer):
    """R(z) = sum z_i ln z_i + ln d; nonnegative on the simplex, zero at the
    uniform point, 1-strongly convex w.r.t. the l1 norm.

    Its gradient is 1 + ln z, so it is Lipschitz only away from the boundary:
    on the floored simplex the constant is max(|ln theta|, 1).
    """

    d: int
    theta: float = 0.0

    tag = "entropy"

    def __post_init__(self):
        self.strong_modulus = 1.0
        self.lipschitz_G = (
            float(max(abs(np.log(self.theta)), 1.0)) if self.theta > 0 else np.inf
        )

    def value(self, z):
        return negentropy(z) + np.log(self.d)

    def grad(self, z):
        return 1.0 + np.log(np.maximum(np.asarray(z, dtype=float), 1e-300))

    def merge_key(self):
        return ("entropy", self.d)


# ---------------------------------------------------------------------------
# Full-information OMG-RFTL
# ---------------------------------------------------------------------------


@dataclass
class OMGConfig:
    eta: float
    theta: float
    solver: SolverConfig = field(default_factory=SolverConfig)
    theta_clamped: bool = False

    def __post_init__(self):
        require_positive(eta=self.eta, theta=self.theta)


def omg_defaults(T: int, G: float, d1: int, d2: int, solver: SolverConfig | None = None) -> OMGConfig:
    """eta = sqrt(T)/G and theta = exp(-eta*G), clamped into the nonempty
    range (the clamp is recorded; it only binds for very small horizons)."""
    eta = float(np.sqrt(T)) / G
    raw_theta = float(np.exp(-eta * G))
    cap = 0.5 * min(1.0 / d1, 1.0 / d2)
    clamped = raw_theta > cap
    return OMGConfig(
        eta=eta,
        theta=min(raw_theta, cap),
        solver=solver or SolverConfig(),
        theta_clamped=clamped,
    )


class OMGRFTL(SPRFTL):
    """Entropy-regularized saddle-point FTL over floored simplexes: SP-RFTL
    with R(z) = sum z ln z + ln d on {z in Delta_d : z_i >= theta}."""

    algorithm_id = "omg_rftl"

    def __init__(self, d1: int, d2: int, config: OMGConfig):
        theta = config.theta
        super().__init__(
            Simplex(d1, theta),
            Simplex(d2, theta),
            SPRFTLConfig(config.eta, EntropyRegularizer(d1, theta), EntropyRegularizer(d2, theta), config.solver),
        )


# ---------------------------------------------------------------------------
# One-point estimation and the bandit algorithm
# ---------------------------------------------------------------------------


@dataclass
class OnePointEstimate:
    """Single-nonzero matrix A_ij/(x_i y_j) at the sampled cell; unbiased for
    the full matrix when (i, j) ~ x (x) y."""

    i_sampled: int
    j_sampled: int
    observed_entry: float
    scaled_value: float
    d1: int
    d2: int

    def to_matrix(self) -> np.ndarray:
        M = np.zeros((self.d1, self.d2))
        M[self.i_sampled, self.j_sampled] = self.scaled_value
        return M

    def to_payoff(self) -> BilinearPayoff:
        return BilinearPayoff(self.to_matrix(), entry_bound=None)


def one_point_estimate(
    entry: float, i: int, j: int, x: np.ndarray, y: np.ndarray
) -> OnePointEstimate:
    xi = float(x[i])
    yj = float(y[j])
    if xi <= 0.0 or yj <= 0.0:
        raise ValueError("sampled cell must have positive probability")
    return OnePointEstimate(
        i_sampled=i,
        j_sampled=j,
        observed_entry=float(entry),
        scaled_value=float(entry) / (xi * yj),
        d1=x.shape[0],
        d2=y.shape[0],
    )


def sample_from_distribution(p: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw; advances the stream by exactly one uniform."""
    p = np.asarray(p, dtype=float)
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError("distribution is not normalized")
    u = rng.random()
    idx = int(np.searchsorted(np.cumsum(p), u, side="right"))
    idx = min(idx, p.shape[0] - 1)
    while idx > 0 and p[idx] == 0.0:
        idx -= 1
    return idx


@dataclass
class BanditConfig:
    eta: float
    delta: float
    rng_seed: int
    solver: SolverConfig = field(default_factory=SolverConfig)
    delta_clamped: bool = False

    def __post_init__(self):
        require_positive(eta=self.eta, delta=self.delta)


def bandit_defaults(
    T: int, d1: int, d2: int, rng_seed: int, solver: SolverConfig | None = None
) -> BanditConfig:
    """delta = T^(-1/6) and eta = T^(1/6); delta is clamped below the
    nonempty-simplex threshold for small horizons (clamp recorded)."""
    raw_delta = float(T ** (-1.0 / 6.0))
    cap = 0.5 * min(1.0 / d1, 1.0 / d2)
    clamped = raw_delta > cap
    return BanditConfig(
        eta=float(T ** (1.0 / 6.0)),
        delta=min(raw_delta, cap),
        rng_seed=rng_seed,
        solver=solver or SolverConfig(),
        delta_clamped=clamped,
    )


class BanditOMGRFTL(OMGRFTL):
    """OMG-RFTL driven by one-point estimates under bandit feedback.

    Both players share a master seed and randomize jointly: the master seed
    splits into two fixed substreams, one per player's action sampling.
    """

    algorithm_id = "bandit_omg_rftl"

    def __init__(self, d1: int, d2: int, config: BanditConfig):
        super().__init__(d1, d2, OMGConfig(eta=config.eta, theta=config.delta, solver=config.solver))
        self.rng_x = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((config.rng_seed, 0)))
        )
        self.rng_y = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((config.rng_seed, 1)))
        )

    def step(self, env_callback) -> tuple[int, int, OnePointEstimate]:
        """Sample actions, query the environment once, update on the estimate.

        Returns the sampled action indices and the one-point estimate built
        from the observed entry.
        """
        x_t, y_t = self.current_action
        i = sample_from_distribution(x_t, self.rng_x)
        j = sample_from_distribution(y_t, self.rng_y)
        entry = float(env_callback(i, j))
        if not np.isfinite(entry):
            raise ValueError("environment returned a non-finite payoff entry")
        est = one_point_estimate(entry, i, j, x_t, y_t)
        super().step(est.to_payoff())
        return i, j, est
