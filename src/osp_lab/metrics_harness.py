"""Regret metrics, experiment instance generators, and the seeded runner.

Metrics follow the three regret notions: the absolute gap between realized
cumulative payoff and the hindsight min-max value, and the two one-sided
individual regrets against the best fixed action versus the opponent's
realized sequence.  The runner has two run loops.  The game loop serves
every saddle-point and matrix-game run, with full or bandit feedback: the
payoff sequence is generated lazily from seeds, and each round is folded
into coefficient accumulators as it is played, so horizons of 10^4+ never
materialize payoff lists.  The knapsack loop settles after play: a knapsack
run draws its whole stream up front, its loop only plays, and the budget
settlement, the trace, the accumulators and the series are computed after
it in one pass over arrays of fixed width per round.  Every hindsight value
the runner reports is certified to its tolerance, or the run raises.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

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
    SeparableQuadratic,
    SquaredNormRegularizer,
    SumPayoff,
    make_bilinear,
    make_quadratic_bilinear,
)
from .saddle_solver import SolverConfig, hindsight_value, solve_saddle


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
# Best-response accumulation
# ---------------------------------------------------------------------------


class RestrictionAccumulator:
    """Sum across rounds of one-variable restrictions, all of them separable
    quadratics (the scenario payoffs are scalar quadratics, bilinear games
    and knapsack Lagrangians), held in O(1) state."""

    def __init__(self):
        self._sum: SeparableQuadratic | None = None

    def add(self, restriction: SeparableQuadratic) -> None:
        if self._sum is None:
            self._sum = SeparableQuadratic(
                restriction.quad.copy(), restriction.lin.copy(), restriction.const
            )
        else:
            self._sum.quad += restriction.quad
            self._sum.lin += restriction.lin
            self._sum.const += restriction.const

    def minimize(self, dset: FeasibleSet) -> float:
        return float(self._sum.minimize_over(dset)[0])

    def maximize(self, dset: FeasibleSet) -> float:
        return float(self._sum.maximize_over(dset)[0])


def compute_sp_regret(
    trace: RoundTrace,
    history,
    X: FeasibleSet,
    Y: FeasibleSet,
    cfg: SolverConfig | None = None,
) -> float:
    """|sum of realized payoffs - min_x max_y of the summed history|; raises
    RuntimeError when the hindsight value cannot be certified."""
    return abs(float(trace.payoff_values.sum()) - hindsight_value(history, X, Y, cfg))


def compute_individual_regrets(
    trace: RoundTrace,
    history,
    X: FeasibleSet,
    Y: FeasibleSet,
    cfg: SolverConfig | None = None,
) -> tuple[float, float]:
    """(realized - best fixed x vs the y_t sequence,
        best fixed y vs the x_t sequence - realized); either may be negative."""
    acc_x = RestrictionAccumulator()
    acc_y = RestrictionAccumulator()
    for t, payoff in enumerate(history):
        acc_x.add(payoff.restrict_x(trace.ys[t]))
        acc_y.add(payoff.restrict_y(trace.xs[t]))
    realized = float(trace.payoff_values.sum())
    ind_x = realized - acc_x.minimize(X)
    ind_y = acc_y.maximize(Y) - realized
    return ind_x, ind_y


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
class Scenario:
    spec: ScenarioSpec
    kind: str  # "osp", "omg" or "ocowk"
    X: FeasibleSet | None
    Y: FeasibleSet | None
    metadata: dict

    def payoffs(self, run_seed: int):
        raise NotImplementedError

    def matrices(self, run_seed: int):
        raise NotImplementedError


class _OSPScenario(Scenario):
    def __init__(self, spec, X, Y, metadata, stream_fn):
        super().__init__(spec, "osp", X, Y, metadata)
        self._stream_fn = stream_fn

    def payoffs(self, run_seed: int):
        return self._stream_fn(run_seed)


class _OMGScenario(Scenario):
    def __init__(self, spec, d1, d2, metadata, matrix_fn):
        super().__init__(spec, "omg", Simplex(d1), Simplex(d2), metadata)
        self._matrix_fn = matrix_fn

    def matrices(self, run_seed: int):
        return self._matrix_fn(run_seed)

    def payoffs(self, run_seed: int):
        return (make_bilinear(A) for A in self.matrices(run_seed))


class _OCOwKScenario(Scenario):
    def __init__(self, spec, instance: KnapsackInstance, metadata):
        super().__init__(spec, "ocowk", instance.X, instance.dual_set(), metadata)
        self.instance = instance


def _stream_rng(spec_seed: int, run_seed: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((spec_seed, run_seed, 5550001)))
    )


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


def generate_scenario(spec: ScenarioSpec) -> Scenario:
    gid, T = spec.generator_id, spec.T
    if T < 1:
        raise ValueError("horizon must be at least 1")
    p = spec.params

    if gid in ("theorem6_scenario1", "theorem6_scenario2"):
        if T % 2 != 0:
            raise ValueError("theorem6 scenarios need T divisible by 2")
        second = np.zeros((2, 2)) if gid.endswith("1") else INDIFFERENT_ROWS

        def matrices(_run_seed):
            for t in range(T):
                yield MATCHING_PENNIES if t < T // 2 else second

        meta = {"G": 1.0, "G_l2": 2.0 * np.sqrt(2.0), "H": 0.0, "d1": 2, "d2": 2}
        return _OMGScenario(spec, 2, 2, meta, matrices)

    if gid in ("sec8_instance1", "sec8_instance2"):
        switch = T // 3
        post = (-1.0, -2.0) if gid.endswith("1") else (-1.0, 3.0)

        def payoffs(_run_seed):
            for t in range(T):
                pp, qq = (2.0, -1.0) if t < switch else post
                yield make_quadratic_bilinear(1.0, 1.0, pp, qq, 10.0, 10.0)

        X = Box(np.array([-10.0]), np.array([10.0]))
        Y = Box(np.array([-10.0]), np.array([10.0]))
        G = make_quadratic_bilinear(1.0, 1.0, 2.0, -1.0, 10.0, 10.0).lipschitz_G
        meta = {"G": G, "H": 1.0, "switch_round": switch}
        return _OSPScenario(spec, X, Y, meta, payoffs)

    if gid == "iid_quadratic":
        H = float(p.get("H", 1.0))
        hw = float(p.get("halfwidth", 1.0))

        def payoffs(run_seed):
            rng = _stream_rng(spec.seed, run_seed)
            for _ in range(T):
                pp = rng.uniform(-hw, hw)
                qq = rng.uniform(-hw, hw)
                yield make_quadratic_bilinear(1.0, H, pp, qq, hw, hw)

        X = Box(np.array([-hw]), np.array([hw]))
        Y = Box(np.array([-hw]), np.array([hw]))
        meta = {"G": _quadratic_suite_G(H, hw), "H": H}
        return _OSPScenario(spec, X, Y, meta, payoffs)

    if gid == "adversarial_quadratic":
        H = float(p.get("H", 1.0))
        hw = float(p.get("halfwidth", 1.0))
        variant = spec.seed % 5

        def payoffs(_run_seed):
            for pp, qq in _adversarial_pairs(T, variant):
                yield make_quadratic_bilinear(1.0, H, pp, qq, hw, hw)

        X = Box(np.array([-hw]), np.array([hw]))
        Y = Box(np.array([-hw]), np.array([hw]))
        meta = {"G": _quadratic_suite_G(H, hw), "H": H, "variant": variant}
        return _OSPScenario(spec, X, Y, meta, payoffs)

    if gid == "random_bilinear":
        d1 = int(p.get("d1", 2))
        d2 = int(p.get("d2", 2))

        def matrices(run_seed):
            rng = _stream_rng(spec.seed, run_seed)
            for _ in range(T):
                yield rng.integers(0, 2, size=(d1, d2)).astype(float) * 2.0 - 1.0

        meta = {
            "G": 1.0,
            "G_l2": float(np.sqrt(d1) + np.sqrt(d2)),
            "H": 0.0,
            "d1": d1,
            "d2": d2,
        }
        return _OMGScenario(spec, d1, d2, meta, matrices)

    if gid == "ocowk_sec8":
        budgets = tuple(p.get("budgets_per_round", (200.0, 4.0)))
        instance = sec82_instance(T, budgets)
        meta = {
            "G": instance.lipschitz_G(),
            "m": instance.m,
            "y_max": tuple(float(v) for v in instance.y_max),
            "budgets_per_round": budgets,
        }
        return _OCOwKScenario(spec, instance, meta)

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


def _series_store(emit: bool):
    return {
        "t": [],
        "cum_payoff": [],
        "cum_sp_regret": [],
        "cum_ind_x": [],
        "cum_ind_y": [],
    } if emit else None


def _run_game(scenario: Scenario, name: str, resolved: dict, seed: int, emit_series: bool) -> RunResult:
    """Play the T rounds and fold each into the running sums as it is played.

    Each round's payoff is charged at the played pair: the algorithm's
    action, or for the bandit the sampled pure pair (e_i, e_j), whose value
    and restrictions are A[i, j], A[:, j] and A[i, :] exactly (products with
    0 and 1).  The bandit's algorithm sees only that entry.
    """
    start = time.perf_counter()
    algo = _build_algorithm(scenario, name, resolved, seed)
    X, Y = scenario.X, scenario.Y
    bandit = name == "bandit_omg_rftl"
    if bandit:
        vertices_x, vertices_y = np.eye(X.dimension), np.eye(Y.dimension)
    msum = SumPayoff()
    acc_x = RestrictionAccumulator()
    acc_y = RestrictionAccumulator()
    xs, ys, vals, gaps, sampled = [], [], [], [], []
    series = _series_store(emit_series)
    hind_track = None
    for payoff in scenario.payoffs(seed):
        x, y = algo.current_action
        xs.append(x)
        ys.append(y)
        if bandit:
            i, j, est = algo.step(lambda ii, jj: payoff.A[ii, jj])
            sampled.append((i, j, est.observed_entry))
            x, y = vertices_x[i], vertices_y[j]
        else:
            algo.step(payoff)
        gaps.append(algo.last_gap)
        vals.append(payoff.value(x, y))
        msum.add(payoff)
        acc_x.add(payoff.restrict_x(y))
        acc_y.add(payoff.restrict_y(x))
        if series is not None:
            cfg = SolverConfig(
                tol_gap=float(resolved["tol_gap"][0]),
                max_iters=int(resolved["max_iters"][0]),
                warm_start=hind_track,
            )
            sol = solve_saddle(msum, X, Y, cfg)
            hind_track = (sol.x_star, sol.y_star)
            cum = float(np.sum(vals))
            series["t"].append(len(vals))
            series["cum_payoff"].append(cum)
            series["cum_sp_regret"].append(abs(cum - sol.certified_value(cfg)))
            series["cum_ind_x"].append(cum - acc_x.minimize(X))
            series["cum_ind_y"].append(acc_y.maximize(Y) - cum)
    warm = algo.current_action
    cfg = _hindsight_cfg(resolved, warm)
    hv = solve_saddle(msum, X, Y, cfg).certified_value(cfg)
    realized = float(np.sum(vals))
    report = RegretReport(
        sp_regret=abs(realized - hv),
        ind_regret_x=realized - acc_x.minimize(X),
        ind_regret_y=acc_y.maximize(Y) - realized,
        hindsight_value=hv,
        per_round_series={k: np.asarray(v) for k, v in series.items()} if series else None,
        extras={"delta": float(resolved["delta"][0])} if bandit else {},
    )
    trace = RoundTrace(
        xs=np.asarray(xs),
        ys=np.asarray(ys),
        payoff_values=np.asarray(vals),
        solver_gaps=np.asarray(gaps),
        final_x=warm[0].copy(),
        final_y=warm[1].copy(),
    )
    if bandit:
        trace.sampled_i, trace.sampled_j, trace.observed_entries = (np.asarray(v) for v in zip(*sampled))
    wall = (time.perf_counter() - start) * 1e3
    return RunResult(seed, trace, report, wall, algo.budget_exceeded_rounds)


def _running(a: np.ndarray, start=None) -> np.ndarray:
    """Running sums of a along rounds (axis 0), added in round order from
    start (or from the first row), so row t has the bits of a round-by-round
    accumulator after round t; np.sum would add in a pairwise order."""
    if start is not None:
        return np.cumsum(np.concatenate([start[None], a]), axis=0)[1:]
    return np.cumsum(a, axis=0)


def _y_weighted(YS: np.ndarray, K: np.ndarray) -> np.ndarray:
    """sum_i y_i * K[:, i] per round, added in the order of a per-round
    Python sum over the resources."""
    acc = 0.0
    for i in range(K.shape[1]):
        acc = acc + YS[:, i] * K[:, i]
    return acc


def _run_ocowk(scenario: Scenario, name: str, resolved: dict, seed: int, emit_series: bool) -> RunResult:
    """Play the T rounds, then settle the budget and assemble every trace
    field, accumulator and series in one pass over arrays.  This is exact
    because no knapsack agent reads the budget state."""
    start = time.perf_counter()
    inst = scenario.instance
    env = KnapsackEnvironment(inst, seed)
    algo = _build_algorithm(scenario, name, resolved, seed)
    X, Y = inst.X, inst.dual_set()
    xs, ys, gaps = [], [], []
    for t in range(inst.T):
        x_t, y_t = algo.current_action
        xs.append(x_t)
        ys.append(y_t)
        algo.step(inst.lagrangian(*env.functions(t)))
        gaps.append(algo.last_gap)
    XS, YS = np.asarray(xs), np.asarray(ys)
    out = env.settle(XS)
    R, C = env.reward_coef, env.consumption_coef
    bT = inst.b / inst.T
    # the per-round Lagrangian values L_t(x_t, y_t); vecdot adds each row as y @ v does
    vals = -out.rewards - np.vecdot(YS, bT - out.consumptions)
    # running sums of L_t(., y_t) and L_t(x_t, .), both separable quadratics
    x_quad, x_lin, x_const = (-R[:, k] + _y_weighted(YS, C[:, :, k]) for k in range(3))
    ind_x_quad, ind_x_lin = _running(x_quad), _running(x_lin)
    ind_x_const = _running(x_const - np.vecdot(YS, bT))
    ind_y_lin = _running(out.consumptions - bT)
    ind_y_const = _running(-out.rewards)
    r_sums = _running(R, np.zeros_like(R[0]))
    c_sums = _running(C, np.zeros_like(C[0]))

    def restriction_x(t: int) -> SeparableQuadratic:
        return SeparableQuadratic(ind_x_quad[t : t + 1], ind_x_lin[t : t + 1], ind_x_const[t])

    def restriction_y(t: int) -> SeparableQuadratic:
        return SeparableQuadratic(np.zeros(inst.m), ind_y_lin[t], ind_y_const[t])

    def hindsight_sum(t: int) -> KnapsackLagrangian:
        return KnapsackLagrangian(*quadratics(r_sums[t], c_sums[t]), (t + 1) * bT)

    series = None
    if emit_series:
        cums = np.array([vals[: t + 1].sum() for t in range(inst.T)])
        cfg = _solver_config(resolved)
        hvs = np.array([solve_saddle(hindsight_sum(t), X, Y, cfg).certified_value(cfg) for t in range(inst.T)])
        series = {
            "t": np.arange(1, inst.T + 1),
            "cum_payoff": cums,
            "cum_sp_regret": np.abs(cums - hvs),
            "cum_ind_x": cums - np.array([restriction_x(t).minimize_over(X)[0] for t in range(inst.T)]),
            "cum_ind_y": np.array([restriction_y(t).maximize_over(Y)[0] for t in range(inst.T)]) - cums,
            "cum_reward": out.cumulative_reward,
            "violated": out.violated.astype(float),
        }
        for i in range(inst.m):
            series[f"budget_frac_{i + 1}"] = out.cumulative_consumption[:, i] / inst.b[i]
    last = inst.T - 1
    realized = float(np.sum(vals))
    cfg = _hindsight_cfg(resolved, algo.current_action)
    hv = solve_saddle(hindsight_sum(last), X, Y, cfg).certified_value(cfg)
    r_star = float(resolved["r_star"][0])
    dagger = float(restriction_y(last).maximize_over(Y)[0]) - realized
    ddagger = realized + r_star  # realized Lagrangian sum minus (-r*)
    total_reward = env.state.cumulative_reward
    report = RegretReport(
        sp_regret=abs(realized - hv),
        ind_regret_x=realized - float(restriction_x(last).minimize_over(X)[0]),
        ind_regret_y=dagger,
        hindsight_value=hv,
        per_round_series=series,
        extras={
            "r_star": r_star,
            "cumulative_reward": total_reward,
            "knapsack_regret": knapsack_regret(total_reward, r_star),
            "reward_ratio": total_reward / r_star if r_star != 0 else np.nan,
            "dagger": dagger,
            "ddagger": ddagger,
            "violated": bool(env.state.violated),
            "reward_lower_bound": reward_lower_bound(out.rewards, out.consumptions, inst),
        },
    )
    trace = RoundTrace(
        xs=XS,
        ys=YS,
        payoff_values=vals,
        solver_gaps=np.asarray(gaps),
        rewards_collected=out.collected,
        reward_values=out.rewards,
        consumptions=out.consumptions,
        violated_flags=out.violated,
    )
    wall = (time.perf_counter() - start) * 1e3
    return RunResult(seed, trace, report, wall, algo.budget_exceeded_rounds)


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
    if scenario.kind == "ocowk":
        return _run_ocowk(scenario, algo.name, resolved, seed, emit_series)
    return _run_game(scenario, algo.name, resolved, seed, emit_series)


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
