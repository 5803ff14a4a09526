"""Regret metrics, experiment instance generators, and the seeded runner.

Metrics follow the three regret notions: the absolute gap between realized
cumulative payoff and the hindsight min-max value, and the two one-sided
individual regrets against the best fixed action versus the opponent's
realized sequence.  The runner has one run loop (``_run``) for every
scenario kind.  A scenario streams its rounds in blocks (`Scenario.blocks`):
the loop plays a block, feeding the agent the block's payoffs, and then
accounts for the block at the played pairs in array passes (`Block`): the
realized values, the restriction rows of f_t(., y_t) and f_t(x_t, .), whose
running sums carry from block to block, and the running hindsight sum.
Matrix games come in blocks of 16 rounds, so memory stays O(d1 d2) per
block; the quadratic and knapsack scenarios come in one block of T rounds of
fixed width, the knapsack block settling the budget after play.  Every
hindsight value the runner reports is certified to its tolerance, or the
run raises.
"""

from __future__ import annotations

import math
import os
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import Box, FeasibleSet, Simplex
from .knapsack import (
    KnapsackEnvironment,
    KnapsackInstance,
    KnapsackLagrangian,
    PDRFTL,
    PDRFTLConfig,
    SPFTLKnapsackAgent,
    benchmark_r_star,
    knapsack_regret,
    quadratics,
    reward_lower_bound,
    sec82_instance,
    theorem8_steps,
)
from .matrix_games import (
    BanditConfig,
    BanditOMGRFTL,
    OMGConfig,
    OMGRFTL,
    bandit_defaults,
    omg_defaults,
)
from .osp_algorithms import (
    OGDA,
    OGDAConfig,
    SPFTL,
    SPFTLConfig,
    SPRFTL,
    SPRFTLConfig,
    corollary1_eta,
)
from .payoffs import (
    BilinearPayoff,
    PayoffFunction,
    ScalarQuadraticBilinear,
    SeparableQuadratic,
    SquaredNormRegularizer,
    make_bilinear,
    make_quadratic_bilinear,
)
from .saddle_solver import SolverConfig, require_positive, solve_saddle


# ---------------------------------------------------------------------------
# Traces and reports
# ---------------------------------------------------------------------------


@dataclass
class RoundTrace:
    xs: np.ndarray
    ys: np.ndarray
    payoff_values: np.ndarray
    solver_gaps: np.ndarray | None = None
    # bandit runs
    sampled_i: np.ndarray | None = None
    sampled_j: np.ndarray | None = None
    observed_entries: np.ndarray | None = None
    # knapsack runs
    rewards_collected: np.ndarray | None = None
    reward_values: np.ndarray | None = None
    consumptions: np.ndarray | None = None
    violated_flags: np.ndarray | None = None
    # the post-update action (x_{T+1}, y_{T+1}), never played
    final_x: np.ndarray | None = None
    final_y: np.ndarray | None = None

    def __len__(self) -> int:
        return self.payoff_values.shape[0]


@dataclass
class RegretReport:
    sp_regret: float
    ind_regret_x: float
    ind_regret_y: float
    hindsight_value: float
    per_round_series: dict | None = None
    extras: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Scenario generators
# ---------------------------------------------------------------------------

MATCHING_PENNIES = np.array([[1.0, -1.0], [-1.0, 1.0]])
INDIFFERENT_ROWS = np.array([[1.0, -1.0], [1.0, -1.0]])

GENERATOR_IDS = (
    "theorem6_scenario1",
    "theorem6_scenario2",
    "sec8_instance1",
    "sec8_instance2",
    "iid_quadratic",
    "adversarial_quadratic",
    "random_bilinear",
    "ocowk_sec8",
)


@dataclass
class ScenarioSpec:
    generator_id: str
    T: int
    seed: int = 0
    params: dict = field(default_factory=dict)


@dataclass
class Block:
    """The accounting of n played rounds, at the played pairs (x_t, y_t).

    ``values`` are f_t(x_t, y_t), shape (n,).  ``rows_x`` and ``rows_y``
    are the restriction rows (quad, lin, const) of f_t(., y_t) and of
    f_t(x_t, .), of shapes (n, d), (n, d) and (n,): each restriction is the
    separable quadratic quad . z^2 + lin . z + const.  ``hindsight(k)`` is
    the sum of the run's payoffs through round k of the block.  ``trace``
    and ``series`` hold the per-round columns of one scenario kind (the
    knapsack settlement).
    """

    values: np.ndarray
    rows_x: tuple
    rows_y: tuple
    hindsight: Callable[[int], PayoffFunction]
    trace: dict = field(default_factory=dict)
    series: dict = field(default_factory=dict)


@dataclass
class Scenario:
    """A scenario's sets, metadata and round stream.

    ``blocks(run_seed)`` yields (payoffs, account) in round order: payoffs
    are what the agent observes, one per round of the block, and
    ``account(xs, ys)`` returns the `Block` of those rounds played at the
    pairs xs (n, dx) and ys (n, dy).
    """

    spec: ScenarioSpec
    kind: str  # "osp", "omg" or "ocowk"
    X: FeasibleSet
    Y: FeasibleSet
    metadata: dict
    blocks: Callable[[int], Iterator]
    instance: KnapsackInstance | None = None

    def payoffs(self, run_seed: int):
        """The payoffs the agent observes, round by round."""
        for payoffs, _ in self.blocks(run_seed):
            yield from payoffs


def _stream_rng(spec_seed: int, run_seed: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((spec_seed, run_seed, 5550001)))
    )


def _running(a: np.ndarray, start=None) -> np.ndarray:
    """Running sums of a along rounds (axis 0), added in round order from
    start (or from the first row), so row t has the bits of a round-by-round
    accumulator after round t; np.sum would add in a pairwise order."""
    if start is not None:
        return np.cumsum(np.concatenate([start[None], a]), axis=0)[1:]
    return np.cumsum(a, axis=0)


# rounds per matrix block: a block of 64 x 64 matrices takes 0.5 MB, where
# a whole run's T x d1 x d2 draw would take 31 MB at T = 1,000
_MATRIX_BLOCK = 16


def _matrix_blocks(T: int, draw):
    """The blocks of a matrix game; draw(start, n) gives the matrices of
    rounds start, ..., start + n - 1, shape (n, d1, d2), in round order.

    Each slice of a batched np.matmul has the bits of A @ y, x @ A and
    (x @ A) @ y, and the running matrix sums add in round order, as
    `SumPayoff.add` does.  A block holds its matrices and the sum before
    it; the sums within it are formed only when asked for."""
    total = None
    for start in range(0, T, _MATRIX_BLOCK):
        mats = draw(start, min(_MATRIX_BLOCK, T - start))
        before = total
        total = mats[0].copy() if before is None else before + mats[0]
        for A in mats[1:]:
            total += A

        def account(xs, ys, mats=mats, before=before):
            xA = np.matmul(xs[:, None, :], mats)[:, 0, :]
            Ay = np.matmul(mats, ys[:, :, None])[:, :, 0]
            values = np.matmul(xA[:, None, :], ys[:, :, None])[:, 0, 0]
            const = np.zeros(len(mats))
            return Block(
                values,
                (np.zeros_like(Ay), Ay, const),
                (np.zeros_like(xA), xA, const),
                lambda k: BilinearPayoff(_running(mats[: k + 1], before)[-1], entry_bound=None),
            )

        yield [make_bilinear(A) for A in mats], account


def _quadratic_blocks(centers: np.ndarray, H: float, hw: float):
    """One block of the T rounds x*y + (H/2)(x - p_t)^2 - (H/2)(y - q_t)^2,
    centers (p_t, q_t) of shape (T, 2).

    The coefficients are those of ``make_quadratic_bilinear``, the values
    and rows the formulas of `ScalarQuadraticBilinear`, elementwise, and
    the hindsight sum is the payoff of the running coefficient sums."""
    P, Q = centers[:, 0], centers[:, 1]
    cxy, cx2, cy2 = 1.0, H / 2.0, -H / 2.0
    cx1, cy1, c0 = -H * P, H * Q, H * P * P / 2.0 - H * Q * Q / 2.0
    T = len(centers)
    sums = [_running(np.broadcast_to(c, (T,))) for c in (cxy, cx2, cx1, cy2, cy1, c0)]

    def account(xs, ys):
        x, y = xs[:, 0], ys[:, 0]
        values = cxy * x * y + cx2 * x * x + cx1 * x + cy2 * y * y + cy1 * y + c0
        rows_x = (np.full((T, 1), cx2), (cxy * y + cx1)[:, None], cy2 * y * y + cy1 * y + c0)
        rows_y = (np.full((T, 1), cy2), (cxy * x + cy1)[:, None], cx2 * x * x + cx1 * x + c0)
        return Block(values, rows_x, rows_y, lambda k: ScalarQuadraticBilinear(*(float(s[k]) for s in sums)))

    yield (make_quadratic_bilinear(1.0, H, p, q, hw, hw) for p, q in centers.tolist()), account


def _y_weighted(YS: np.ndarray, K: np.ndarray) -> np.ndarray:
    """sum_i y_i * K[:, i] per round, added in the order of a per-round
    Python sum over the resources."""
    acc = 0.0
    for i in range(K.shape[1]):
        acc = acc + YS[:, i] * K[:, i]
    return acc


def _knapsack_blocks(inst: KnapsackInstance, run_seed: int):
    """One block of the T rounds' Lagrangians.  Its account settles the
    budget for the whole run (``KnapsackEnvironment.settle``), which is
    exact because no knapsack agent reads the budget state."""
    env = KnapsackEnvironment(inst, run_seed)
    bT = inst.b / inst.T

    def account(xs, ys):
        out = env.settle(xs)
        R, C = env.reward_coef, env.consumption_coef
        # L_t(x_t, y_t); vecdot adds each row as y @ v does
        values = -out.rewards - np.vecdot(ys, bT - out.consumptions)
        quad, lin, const = (-R[:, k] + _y_weighted(ys, C[:, :, k]) for k in range(3))
        rows_x = (quad[:, None], lin[:, None], const - np.vecdot(ys, bT))
        rows_y = (np.zeros_like(out.consumptions), out.consumptions - bT, -out.rewards)
        r_sums = _running(R, np.zeros_like(R[0]))
        c_sums = _running(C, np.zeros_like(C[0]))
        series = {"cum_reward": out.cumulative_reward, "violated": out.violated.astype(float)}
        for i in range(inst.m):
            series[f"budget_frac_{i + 1}"] = out.cumulative_consumption[:, i] / inst.b[i]
        return Block(
            values,
            rows_x,
            rows_y,
            lambda k: KnapsackLagrangian(*quadratics(r_sums[k], c_sums[k]), (k + 1) * bT),
            trace={
                "rewards_collected": out.collected,
                "reward_values": out.rewards,
                "consumptions": out.consumptions,
                "violated_flags": out.violated,
            },
            series=series,
        )

    yield (inst.lagrangian(*env.functions(t)) for t in range(inst.T)), account


_ADVERSARIAL_CENTERS = 0.9


def _adversarial_pairs(T: int, variant: int):
    """Five deterministic center schedules on [-0.9, 0.9]."""
    c = _ADVERSARIAL_CENTERS
    if variant == 0:  # single switch at T/2
        for t in range(T):
            yield (c, -c) if t < T // 2 else (-c, c)
    elif variant == 1:  # alternate every round
        for t in range(T):
            yield (c, -c) if t % 2 == 0 else (-c, c)
    elif variant == 2:  # three phases
        for t in range(T):
            if t < T // 3:
                yield (c / 2, c / 2)
            elif t < 2 * T // 3:
                yield (-c, c)
            else:
                yield (c, -c)
    elif variant == 3:  # slow sinusoidal drift
        for t in range(T):
            ang = 2.0 * np.pi * t / max(T, 1)
            yield (c * np.cos(ang), c * np.sin(ang))
    else:  # sign-flip against the running mean of past p's
        mean_p = 0.0
        for t in range(T):
            p = -c if mean_p > 0 else c
            yield (p, -p)
            mean_p += (p - mean_p) / (t + 1)


def _quadratic_suite_G(H: float, hw: float) -> float:
    return max(
        make_quadratic_bilinear(1.0, H, sp * hw, sq * hw, hw, hw).lipschitz_G
        for sp in (-1.0, 1.0)
        for sq in (-1.0, 1.0)
    )


def _quadratic_params(p: dict) -> tuple[float, float]:
    """(H, halfwidth), checked: the halfwidth sizes the box and the
    Lipschitz constant, so a zero or non-finite one leaves no game."""
    H, hw = float(p.get("H", 1.0)), float(p.get("halfwidth", 1.0))
    if not (math.isfinite(H) and H >= 0):
        raise ValueError(f"H must be finite and nonnegative, got {H!r}")
    require_positive(halfwidth=hw)
    return H, hw


def _dimension(p: dict, key: str) -> int:
    v = p.get(key, 2)
    if not (math.isfinite(v) and v >= 1 and v == int(v)):
        raise ValueError(f"{key} must be a positive integer, got {v!r}")
    return int(v)


def generate_scenario(spec: ScenarioSpec) -> Scenario:
    """The scenario of spec; raises ValueError on an unknown generator or on
    a horizon or parameter outside its range, naming the parameter."""
    gid, T = spec.generator_id, spec.T
    if T < 1:
        raise ValueError("horizon must be at least 1")
    p = spec.params

    if gid in ("theorem6_scenario1", "theorem6_scenario2"):
        if T % 2 != 0:
            raise ValueError("theorem6 scenarios need T divisible by 2")
        second = np.zeros((2, 2)) if gid.endswith("1") else INDIFFERENT_ROWS

        def draw(start, n):
            return np.array([MATCHING_PENNIES if t < T // 2 else second for t in range(start, start + n)])

        meta = {"G": 1.0, "G_l2": 2.0 * np.sqrt(2.0), "H": 0.0, "d1": 2, "d2": 2}
        return Scenario(spec, "omg", Simplex(2), Simplex(2), meta, lambda _run_seed: _matrix_blocks(T, draw))

    if gid in ("sec8_instance1", "sec8_instance2"):
        switch = T // 3
        post = (-1.0, -2.0) if gid.endswith("1") else (-1.0, 3.0)
        centers = np.array([(2.0, -1.0) if t < switch else post for t in range(T)])
        X = Box(np.array([-10.0]), np.array([10.0]))
        Y = Box(np.array([-10.0]), np.array([10.0]))
        G = make_quadratic_bilinear(1.0, 1.0, 2.0, -1.0, 10.0, 10.0).lipschitz_G
        meta = {"G": G, "H": 1.0, "switch_round": switch}
        return Scenario(spec, "osp", X, Y, meta, lambda _run_seed: _quadratic_blocks(centers, 1.0, 10.0))

    if gid in ("iid_quadratic", "adversarial_quadratic"):
        H, hw = _quadratic_params(p)
        X = Box(np.array([-hw]), np.array([hw]))
        Y = Box(np.array([-hw]), np.array([hw]))
        meta = {"G": _quadratic_suite_G(H, hw), "H": H}
        if gid == "iid_quadratic":
            # one (T, 2) draw interleaves p_t and q_t as per-round draws would
            def blocks(run_seed):
                return _quadratic_blocks(_stream_rng(spec.seed, run_seed).uniform(-hw, hw, size=(T, 2)), H, hw)

            return Scenario(spec, "osp", X, Y, meta, blocks)
        meta["variant"] = variant = spec.seed % 5
        centers = np.array(list(_adversarial_pairs(T, variant)), dtype=float)
        return Scenario(spec, "osp", X, Y, meta, lambda _run_seed: _quadratic_blocks(centers, H, hw))

    if gid == "random_bilinear":
        d1, d2 = _dimension(p, "d1"), _dimension(p, "d2")

        def blocks(run_seed):
            rng = _stream_rng(spec.seed, run_seed)

            def draw(_start, n):
                # equals n per-round draws: PCG64 keeps an unused 32-bit half
                # of its output in its state from call to call
                mats = rng.integers(0, 2, size=(n, d1, d2)).astype(float)
                mats *= 2.0
                mats -= 1.0
                return mats

            return _matrix_blocks(T, draw)

        meta = {
            "G": 1.0,
            "G_l2": float(np.sqrt(d1) + np.sqrt(d2)),
            "H": 0.0,
            "d1": d1,
            "d2": d2,
        }
        return Scenario(spec, "omg", Simplex(d1), Simplex(d2), meta, blocks)

    if gid == "ocowk_sec8":
        budgets = tuple(p.get("budgets_per_round", (200.0, 4.0)))
        instance = sec82_instance(T, budgets)
        meta = {
            "G": instance.lipschitz_G(),
            "m": instance.m,
            "y_max": tuple(float(v) for v in instance.y_max),
            "budgets_per_round": budgets,
        }

        def blocks(run_seed):
            return _knapsack_blocks(instance, run_seed)

        return Scenario(spec, "ocowk", instance.X, instance.dual_set(), meta, blocks, instance)

    raise ValueError(f"unknown generator {gid!r}")


# ---------------------------------------------------------------------------
# Algorithm construction and default parameters
# ---------------------------------------------------------------------------


class IncompatiblePairingError(ValueError):
    pass


ALGORITHM_IDS = (
    "spftl",
    "sprftl",
    "ogda",
    "omg_rftl",
    "bandit_omg_rftl",
    "pd_rftl",
    "spftl_knapsack",
    "ogda_knapsack",
)

_ALLOWED = {
    "osp": {"spftl", "sprftl", "ogda"},
    "omg": {"omg_rftl", "spftl", "sprftl", "ogda", "bandit_omg_rftl"},
    "ocowk": {"pd_rftl", "spftl_knapsack", "ogda_knapsack"},
}


@dataclass
class AlgorithmSpec:
    name: str
    params: dict = field(default_factory=dict)


def _radius_bound(dset: FeasibleSet) -> float:
    if isinstance(dset, Box):
        return float(np.linalg.norm(np.maximum(np.abs(dset.lower), np.abs(dset.upper))))
    return 1.0  # simplex family


def resolve_parameters(scenario: Scenario, algo: AlgorithmSpec) -> dict:
    """Fill in every theorem-default parameter; each entry carries the value
    and a formula tag (or 'override') for the output metadata."""
    name = algo.name
    if name not in ALGORITHM_IDS:
        raise ValueError(f"unknown algorithm {name!r}")
    if name not in _ALLOWED.get(scenario.kind, set()):
        raise IncompatiblePairingError(
            f"algorithm {name!r} cannot run on scenario kind {scenario.kind!r}"
        )
    p = dict(algo.params)
    T = scenario.spec.T
    meta = scenario.metadata
    out: dict[str, tuple[float | str, str]] = {}

    def put(key, default, tag):
        if key in p:
            out[key] = (p[key], "override")
        else:
            out[key] = (default, tag)

    put("tol_gap", 1e-6, "default per-round duality-gap tolerance")
    put("max_iters", 50_000, "default per-round iteration budget")
    put("hindsight_tol", min(1e-6, float(out["tol_gap"][0])), "default hindsight tolerance")

    if name == "sprftl":
        D = max(_radius_bound(scenario.X), _radius_bound(scenario.Y))
        G = meta.get("G_l2", meta.get("G", 1.0))
        put("eta", corollary1_eta(D, G, T), "D*sqrt(T)/(G*sqrt(ln(T)))")
        put("radius_x", _radius_bound(scenario.X), "norm bound of X")
        put("radius_y", _radius_bound(scenario.Y), "norm bound of Y")
    elif name == "ogda":
        if scenario.kind == "osp" and meta.get("H", 0.0) > 0:
            put("schedule", "diminishing", "1/(H*t) for strongly convex-concave payoffs")
            put("step_constant", 1.0 / meta["H"], "1/H")
        else:
            put("schedule", "constant", "constant step on bilinear scenarios")
            put("step_constant", 0.5, "default bilinear step")
    elif name == "omg_rftl":
        G = meta.get("G", 1.0)
        defaults = omg_defaults(T, G, meta["d1"], meta["d2"])
        put("eta", defaults.eta, "sqrt(T)/G")
        put(
            "theta",
            defaults.theta,
            "exp(-eta*G)" + (" [clamped]" if defaults.theta_clamped else ""),
        )
    elif name == "bandit_omg_rftl":
        defaults = bandit_defaults(T, meta["d1"], meta["d2"], 0)
        put("eta", defaults.eta, "T^(1/6)")
        put(
            "delta",
            defaults.delta,
            "T^(-1/6)" + (" [clamped]" if defaults.delta_clamped else ""),
        )
    elif name in ("pd_rftl", "ogda_knapsack"):
        steps = theorem8_steps(scenario.instance)
        put("eta1", steps.eta1, "D_X/(G*(1+||y_max||_2)*sqrt(T))")
        put("eta2", steps.eta2, "||y_max||_2/((||b||_2/T+sqrt(m*G*D_X))*sqrt(T))")
    elif name == "spftl_knapsack":
        put("H", float(T ** (-1.0 / 6.0)), "T^(-1/6)")

    if scenario.kind == "ocowk":
        out["r_star"] = (
            benchmark_r_star(scenario.instance),
            "max T*E[r] s.t. T*E[c] <= b",
        )
    return out


def _solver_config(resolved) -> SolverConfig:
    return SolverConfig(
        tol_gap=float(resolved["tol_gap"][0]),
        max_iters=int(resolved["max_iters"][0]),
    )


def _build_algorithm(scenario: Scenario, name: str, resolved: dict, run_seed: int):
    solver = _solver_config(resolved)
    if name == "spftl":
        strict = scenario.kind == "osp"
        return SPFTL(
            scenario.X,
            scenario.Y,
            SPFTLConfig(solver=solver, require_strong_convexity=strict),
        )
    if name == "sprftl":
        return SPRFTL(
            scenario.X,
            scenario.Y,
            SPRFTLConfig(
                eta=float(resolved["eta"][0]),
                reg_x=SquaredNormRegularizer(float(resolved["radius_x"][0])),
                reg_y=SquaredNormRegularizer(float(resolved["radius_y"][0])),
                solver=solver,
            ),
        )
    if name == "ogda":
        return OGDA(
            scenario.X,
            scenario.Y,
            OGDAConfig(
                schedule=str(resolved["schedule"][0]),
                constant=float(resolved["step_constant"][0]),
            ),
        )
    if name == "omg_rftl":
        meta = scenario.metadata
        return OMGRFTL(
            meta["d1"],
            meta["d2"],
            OMGConfig(
                eta=float(resolved["eta"][0]),
                theta=float(resolved["theta"][0]),
                solver=solver,
            ),
        )
    if name == "bandit_omg_rftl":
        meta = scenario.metadata
        return BanditOMGRFTL(
            meta["d1"],
            meta["d2"],
            BanditConfig(
                eta=float(resolved["eta"][0]),
                delta=float(resolved["delta"][0]),
                rng_seed=run_seed,
                solver=solver,
            ),
        )
    inst = scenario.instance
    if name == "pd_rftl":
        return PDRFTL(
            inst.X,
            inst.dual_set(),
            PDRFTLConfig(float(resolved["eta1"][0]), float(resolved["eta2"][0])),
        )
    if name == "ogda_knapsack":
        return OGDA(
            inst.X,
            inst.dual_set(),
            OGDAConfig(
                schedule="constant",
                constant=float(resolved["eta1"][0]),
                constant_y=float(resolved["eta2"][0]),
            ),
        )
    if name == "spftl_knapsack":
        return SPFTLKnapsackAgent(inst, H=float(resolved["H"][0]), solver=solver)
    raise ValueError(name)


# ---------------------------------------------------------------------------
# Single runs
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    seed: int
    trace: RoundTrace
    report: RegretReport
    wall_ms: float
    budget_exceeded_rounds: int


def _hindsight_cfg(resolved, warm) -> SolverConfig:
    return SolverConfig(
        tol_gap=float(resolved["hindsight_tol"][0]),
        max_iters=max(int(resolved["max_iters"][0]) * 4, 200_000),
        warm_start=warm,
    )


def _carried(rows: tuple, before: tuple | None) -> tuple:
    """The running sums of restriction rows through each round of a block,
    carried on from the last round of the block before."""
    if before is None:
        return tuple(_running(a) for a in rows)
    return tuple(_running(a, b[-1]) for a, b in zip(rows, before))


def _optimum(rows: tuple, k: int, dset: FeasibleSet, maximize: bool) -> float:
    restriction = SeparableQuadratic(*(r[k] for r in rows))
    val, _ = restriction.maximize_over(dset) if maximize else restriction.minimize_over(dset)
    return float(val)


def _run(scenario: Scenario, name: str, resolved: dict, seed: int, emit_series: bool) -> RunResult:
    """Play each block of rounds, then account for it at the played pairs.

    A round is charged at the played pair: the algorithm's action, or for
    the bandit the sampled pure pair (e_i, e_j), whose value and
    restrictions are A[i, j], A[:, j] and A[i, :] exactly (products with 0
    and 1).  The bandit's algorithm sees only that entry.  The running
    restriction rows carry from block to block, and only the last block's
    are kept, so memory stays O(block) beyond the per-round trace.
    """
    start = time.perf_counter()
    algo = _build_algorithm(scenario, name, resolved, seed)
    X, Y = scenario.X, scenario.Y
    bandit = name == "bandit_omg_rftl"
    if bandit:
        vertices_x, vertices_y = np.eye(X.dimension), np.eye(Y.dimension)
    xs, ys, gaps, sampled, values, columns, extra_series = [], [], [], [], [], {}, {}
    series = {k: [] for k in ("t", "cum_payoff", "cum_sp_regret", "cum_ind_x", "cum_ind_y")} if emit_series else None
    hind_track = sums_x = sums_y = None
    for payoffs, account in scenario.blocks(seed):
        t0 = len(xs)
        for payoff in payoffs:
            x, y = algo.current_action
            xs.append(x)
            ys.append(y)
            if bandit:
                i, j, est = algo.step(lambda ii, jj: payoff.A[ii, jj])
                sampled.append((i, j, est.observed_entry))
            else:
                algo.step(payoff)
            gaps.append(algo.last_gap)
        if bandit:
            i, j, _ = zip(*sampled[t0:])
            block = account(vertices_x[list(i)], vertices_y[list(j)])
        else:
            block = account(np.asarray(xs[t0:]), np.asarray(ys[t0:]))
        values.append(block.values)
        sums_x, sums_y = _carried(block.rows_x, sums_x), _carried(block.rows_y, sums_y)
        for key, col in block.trace.items():
            columns.setdefault(key, []).append(col)
        if series is None:
            continue
        for key, col in block.series.items():
            extra_series.setdefault(key, []).append(col)
        played = np.concatenate(values)
        for k in range(len(block.values)):
            cfg = replace(_solver_config(resolved), warm_start=hind_track)
            sol = solve_saddle(block.hindsight(k), X, Y, cfg)
            hind_track = (sol.x_star, sol.y_star)
            cum = float(np.sum(played[: t0 + k + 1]))
            series["t"].append(t0 + k + 1)
            series["cum_payoff"].append(cum)
            series["cum_sp_regret"].append(abs(cum - sol.certified_value(cfg)))
            series["cum_ind_x"].append(cum - _optimum(sums_x, k, X, False))
            series["cum_ind_y"].append(_optimum(sums_y, k, Y, True) - cum)
    last = len(block.values) - 1
    warm = algo.current_action
    cfg = _hindsight_cfg(resolved, warm)
    hv = solve_saddle(block.hindsight(last), X, Y, cfg).certified_value(cfg)
    payoff_values = np.concatenate(values)
    realized = float(np.sum(payoff_values))
    trace = RoundTrace(
        xs=np.asarray(xs),
        ys=np.asarray(ys),
        payoff_values=payoff_values,
        solver_gaps=np.asarray(gaps),
        final_x=warm[0].copy(),
        final_y=warm[1].copy(),
        **{k: np.concatenate(v) for k, v in columns.items()},
    )
    if bandit:
        trace.sampled_i, trace.sampled_j, trace.observed_entries = (np.asarray(v) for v in zip(*sampled))
    report = RegretReport(
        sp_regret=abs(realized - hv),
        ind_regret_x=realized - _optimum(sums_x, last, X, False),
        ind_regret_y=_optimum(sums_y, last, Y, True) - realized,
        hindsight_value=hv,
        per_round_series=None if series is None else {
            **{k: np.asarray(v) for k, v in series.items()},
            **{k: np.concatenate(v) for k, v in extra_series.items()},
        },
    )
    if bandit:
        report.extras = {"delta": float(resolved["delta"][0])}
    if scenario.kind == "ocowk":
        report.extras = _knapsack_extras(scenario.instance, resolved, block, trace, realized, report.ind_regret_y)
    wall = (time.perf_counter() - start) * 1e3
    return RunResult(seed, trace, report, wall, algo.budget_exceeded_rounds)


def _knapsack_extras(inst, resolved, block, trace, realized, dagger) -> dict:
    """The knapsack outcome, read from the last block's running columns."""
    r_star = float(resolved["r_star"][0])
    total_reward = float(block.series["cum_reward"][-1])
    return {
        "r_star": r_star,
        "cumulative_reward": total_reward,
        "knapsack_regret": knapsack_regret(total_reward, r_star),
        "reward_ratio": total_reward / r_star if r_star != 0 else np.nan,
        "dagger": dagger,
        "ddagger": realized + r_star,  # realized Lagrangian sum minus (-r*)
        "violated": bool(block.trace["violated_flags"][-1]),
        "reward_lower_bound": reward_lower_bound(trace.reward_values, trace.consumptions, inst),
    }


def run_single(
    spec: ScenarioSpec,
    algo: AlgorithmSpec,
    seed: int,
    emit_series: bool = False,
    resolved: dict | None = None,
) -> RunResult:
    scenario = generate_scenario(spec)
    if resolved is None:
        resolved = resolve_parameters(scenario, algo)
    return _run(scenario, algo.name, resolved, seed, emit_series)


# ---------------------------------------------------------------------------
# Experiment fan-out
# ---------------------------------------------------------------------------


@dataclass
class ExperimentResult:
    spec: ScenarioSpec
    algorithm: AlgorithmSpec
    resolved: dict
    runs: list
    summary: dict


def _worker(args):
    spec, algo, seed, emit_series, resolved = args
    return run_single(spec, algo, seed, emit_series, resolved)


def default_workers() -> int:
    env = os.environ.get("OSP_LAB_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _mean_stderr(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, 0.0
    return mean, float(arr.std(ddof=1) / np.sqrt(arr.size))


def run_experiment(
    spec: ScenarioSpec,
    algo: AlgorithmSpec,
    seeds,
    emit_series: bool = False,
    workers: int | None = None,
) -> ExperimentResult:
    """One independent run per seed; aggregation is a deterministic fold in
    seed order regardless of worker scheduling."""
    seeds = list(seeds)
    scenario = generate_scenario(spec)
    resolved = resolve_parameters(scenario, algo)
    workers = default_workers() if workers is None else max(1, workers)
    if workers > 1 and len(seeds) > 1:
        import concurrent.futures as cf

        jobs = [(spec, algo, s, emit_series, resolved) for s in seeds]
        with cf.ProcessPoolExecutor(max_workers=min(workers, len(seeds))) as pool:
            runs = list(pool.map(_worker, jobs))
    else:
        runs = [run_single(spec, algo, s, emit_series, resolved) for s in seeds]

    sp_mean, sp_se = _mean_stderr([r.report.sp_regret for r in runs])
    ix_mean, _ = _mean_stderr([r.report.ind_regret_x for r in runs])
    iy_mean, _ = _mean_stderr([r.report.ind_regret_y for r in runs])
    hv_mean, _ = _mean_stderr([r.report.hindsight_value for r in runs])
    summary = {
        "scenario": spec.generator_id,
        "algorithm": algo.name,
        "T": spec.T,
        "seed_count": len(seeds),
        "sp_regret_mean": sp_mean,
        "sp_regret_stderr": sp_se,
        "ind_x_mean": ix_mean,
        "ind_y_mean": iy_mean,
        "hindsight_value": hv_mean,
        "wall_ms": float(sum(r.wall_ms for r in runs)),
    }
    if scenario.kind == "ocowk":
        kr_mean, kr_se = _mean_stderr([r.report.extras["knapsack_regret"] for r in runs])
        rr_mean, _ = _mean_stderr([r.report.extras["reward_ratio"] for r in runs])
        summary.update(
            {
                "knap_regret_mean": kr_mean,
                "knap_regret_stderr": kr_se,
                "reward_ratio_mean": rr_mean,
                "r_star": float(resolved["r_star"][0]),
            }
        )
    return ExperimentResult(spec, algo, resolved, runs, summary)
