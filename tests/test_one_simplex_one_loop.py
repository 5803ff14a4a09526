"""One simplex type and one game-run loop.

``Simplex(d, theta)`` replaced the plain ``Simplex(d)`` and the floored
``RestrictedSimplex(d, theta)``, and bandit runs go through the game loop
of full-information runs.  The retired classes and the retired bandit loop
are kept here verbatim as references: at theta = 0 every set method must
return the plain simplex's bits, signs of zeros included, at theta > 0 the
floored simplex's, and a bandit run must reproduce every trace, report and
series field.
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from osp_lab.geometry import DEFAULT_MEMBERSHIP_TOL, FeasibleSet, Simplex, project_simplex
from osp_lab.metrics_harness import (
    AlgorithmSpec,
    RegretReport,
    RoundTrace,
    RunResult,
    Scenario,
    ScenarioSpec,
    _build_algorithm,
    _hindsight_cfg,
    _solver_config,
    generate_scenario,
    resolve_parameters,
    run_single,
)
from osp_lab.payoffs import BilinearPayoff, SeparableQuadratic, SumPayoff
from osp_lab.saddle_solver import solve_saddle

from brute_oracles import RestrictionSum

# ---------------------------------------------------------------------------
# Retired references
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _RetiredSimplex(FeasibleSet):
    """Probability simplex over d coordinates."""

    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("Simplex dimension must be positive")
        object.__setattr__(self, "dimension", self.d)

    def contains(self, z, tol=DEFAULT_MEMBERSHIP_TOL):
        z = self._check_dim(z)
        return bool(np.all(z >= -tol) and abs(float(z.sum()) - 1.0) <= tol)

    def project(self, z):
        return project_simplex(self._check_dim(z))

    def diameter(self):
        # distance between two vertices; a 1-point simplex has diameter 0
        return 0.0 if self.d == 1 else float(np.sqrt(2.0))

    def uniform(self) -> np.ndarray:
        return np.full(self.d, 1.0 / self.d)

    def minimize_linear(self, g):
        g = np.asarray(g, dtype=float)
        i = int(np.argmin(g))
        arg = np.zeros(self.d)
        arg[i] = 1.0
        return float(g[i]), arg


@dataclass(frozen=True)
class _RetiredRestrictedSimplex(FeasibleSet):
    """Simplex with floor theta on every coordinate: {z in Delta : z_i >= theta}.

    Nonempty iff 0 <= theta <= 1/d; theta = 1/d degenerates to the single
    point (1/d, ..., 1/d).
    """

    d: int
    theta: float

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("RestrictedSimplex dimension must be positive")
        if not (0.0 <= self.theta <= 1.0 / self.d + 1e-15):
            raise ValueError("theta must lie in [0, 1/d]")
        object.__setattr__(self, "dimension", self.d)

    @property
    def scale(self) -> float:
        """Contraction factor of the affine embedding of the standard simplex."""
        return 1.0 - self.d * self.theta

    def embed(self, w: np.ndarray) -> np.ndarray:
        """Map the standard simplex onto this set: w -> theta*1 + scale*w."""
        return self.theta + self.scale * np.asarray(w, dtype=float)

    def unembed(self, z: np.ndarray) -> np.ndarray:
        s = self.scale
        if s <= 0.0:
            return np.full(self.d, 1.0 / self.d)
        return (np.asarray(z, dtype=float) - self.theta) / s

    def contains(self, z, tol=DEFAULT_MEMBERSHIP_TOL):
        z = self._check_dim(z)
        return bool(np.all(z >= self.theta - tol) and abs(float(z.sum()) - 1.0) <= tol)

    def project(self, z):
        z = self._check_dim(z)
        s = self.scale
        if s <= 1e-15:
            return np.full(self.d, 1.0 / self.d)
        return self.embed(project_simplex((z - self.theta) / s))

    def diameter(self):
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
        arg = np.full(self.d, self.theta)
        arg[i] += self.scale
        return float(g @ arg), arg


def _retired_run_bandit(scenario: Scenario, resolved: dict, seed: int, emit_series: bool) -> RunResult:
    start = time.perf_counter()
    algo = _build_algorithm(scenario, "bandit_omg_rftl", resolved, seed)
    d1 = scenario.metadata["d1"]
    d2 = scenario.metadata["d2"]
    X_full, Y_full = Simplex(d1), Simplex(d2)
    msum = SumPayoff()
    acc_x = RestrictionSum()
    acc_y = RestrictionSum()
    xs, ys, vals, gaps, iis, jjs, obs = [], [], [], [], [], [], []
    series = {k: [] for k in ("t", "cum_payoff", "cum_sp_regret", "cum_ind_x", "cum_ind_y")} if emit_series else None
    for A in (f.A for f in scenario.payoffs(seed)):
        x_t, y_t = algo.current_action
        i, j, est = algo.step(lambda ii, jj: A[ii, jj])
        xs.append(x_t)
        ys.append(y_t)
        iis.append(i)
        jjs.append(j)
        obs.append(est.observed_entry)
        vals.append(float(A[i, j]))
        gaps.append(algo.last_gap)
        msum.add(BilinearPayoff(A))
        acc_x.add(SeparableQuadratic(np.zeros(d1), A[:, j].copy(), 0.0))
        acc_y.add(SeparableQuadratic(np.zeros(d2), A[i, :].copy(), 0.0))
        if series is not None:
            cum = float(np.sum(vals))
            sol = solve_saddle(msum, X_full, Y_full, _solver_config(resolved))
            series["t"].append(len(vals))
            series["cum_payoff"].append(cum)
            series["cum_sp_regret"].append(abs(cum - sol.value))
            series["cum_ind_x"].append(cum - acc_x.minimize(X_full))
            series["cum_ind_y"].append(acc_y.maximize(Y_full) - cum)
    hv = solve_saddle(msum, X_full, Y_full, _hindsight_cfg(resolved, None)).value
    realized = float(np.sum(vals))
    report = RegretReport(
        sp_regret=abs(realized - hv),
        ind_regret_x=realized - acc_x.minimize(X_full),
        ind_regret_y=acc_y.maximize(Y_full) - realized,
        hindsight_value=hv,
        per_round_series={k: np.asarray(v) for k, v in series.items()} if series else None,
        extras={"delta": float(resolved["delta"][0])},
    )
    trace = RoundTrace(
        xs=np.asarray(xs),
        ys=np.asarray(ys),
        payoff_values=np.asarray(vals),
        solver_gaps=np.asarray(gaps),
        sampled_i=np.asarray(iis),
        sampled_j=np.asarray(jjs),
        observed_entries=np.asarray(obs),
    )
    wall = (time.perf_counter() - start) * 1e3
    return RunResult(seed, trace, report, wall, algo.budget_exceeded_rounds)


# ---------------------------------------------------------------------------
# One simplex type
# ---------------------------------------------------------------------------


def _bits(v):
    """Type, dtype, shape and raw bytes, so -0.0 and 0.0 differ."""
    if isinstance(v, dict):
        return {k: _bits(u) for k, u in v.items()}
    if isinstance(v, tuple):
        return tuple(_bits(u) for u in v)
    a = np.asarray(v)
    return type(v).__name__, a.dtype.str, a.shape, a.tobytes()


def _methods(dset, z, g, tol):
    return {
        "dimension": dset.dimension,
        "contains": dset.contains(z, tol),
        "contains_projection": dset.contains(dset.project(z), tol),
        "project": dset.project(z),
        "diameter": dset.diameter(),
        "uniform": dset.uniform(),
        "origin_projection": dset.origin_projection(),
        "minimize_linear": dset.minimize_linear(g),
        "maximize_linear": dset.maximize_linear(g),
    }


def _embedding(dset, z):
    return {"scale": dset.scale, "embed": dset.embed(z)}


# exact zeros of both signs and magnitudes at and beyond 2**53, where the
# unit mass of the projection vanishes in rounding
_COORD = st.one_of(
    st.floats(-1e18, 1e18),
    st.sampled_from([0.0, -0.0, 1.0, 2.0**53, -(2.0**53), 3e16, -3e16]),
)
_DIMS = st.sampled_from([1, 2, 3, 5, 64])
_TOLS = st.sampled_from([0.0, 1e-12, DEFAULT_MEMBERSHIP_TOL])


@st.composite
def _inputs(draw, floored: bool):
    d = draw(_DIMS)
    theta = 0.0
    if floored:
        theta = draw(
            st.one_of(
                st.floats(0.0, 1.0 / d, exclude_min=True),
                st.sampled_from([1.0 / d, 1.0 / d - 1e-15, 5e-324]),
            )
        )
    vec = st.lists(_COORD, min_size=d, max_size=d).map(np.array)
    return d, theta, draw(vec), draw(vec), draw(_TOLS)


@given(inputs=_inputs(floored=False))
@example(inputs=(3, 0.0, np.array([-0.0, -0.0, 0.0]), np.array([-0.0, 0.0, -0.0]), 0.0))
@example(inputs=(2, 0.0, np.array([0.0, 1e17]), np.array([-(2.0**53), 2.0**53]), 1e-9))
def test_plain_simplex_matches_retired_simplex(inputs):
    d, _, z, g, tol = inputs
    old = _RetiredSimplex(d)
    for new in (Simplex(d), Simplex(d, 0.0)):
        assert new == Simplex(d) and repr(new) == repr(old).replace("_RetiredSimplex", "Simplex")
        got, want = _methods(new, z, g, tol), _methods(old, z, g, tol)
        assert _bits(got) == _bits(want)
        # the embedding at theta = 0 is the retired floored simplex's
        got, want = _embedding(new, z), _embedding(_RetiredRestrictedSimplex(d, 0.0), z)
        assert _bits(got) == _bits(want)


@given(inputs=_inputs(floored=True))
@example(inputs=(2, 0.5 - 1e-15, np.array([-0.0, 50.0]), np.array([0.0, -0.0]), 0.0))
@example(inputs=(64, 1.0 / 64, np.full(64, -3e16), np.full(64, -0.0), 1e-12))
def test_floored_simplex_matches_retired_restricted_simplex(inputs):
    d, theta, z, g, tol = inputs
    new, old = Simplex(d, theta), _RetiredRestrictedSimplex(d, theta)
    assert repr(new) == repr(old).replace("_RetiredRestrictedSimplex", "Simplex")
    got = {**_methods(new, z, g, tol), **_embedding(new, z)}
    want = {**_methods(old, z, g, tol), **_embedding(old, z)}
    assert _bits(got) == _bits(want)


# ---------------------------------------------------------------------------
# One game-run loop
# ---------------------------------------------------------------------------


def _report_fields(run):
    rep = run.report
    fields = {k: getattr(rep, k) for k in ("sp_regret", "ind_regret_x", "ind_regret_y", "hindsight_value")}
    fields.update({f"extras.{k}": v for k, v in rep.extras.items()})
    fields.update({f"series.{k}": v for k, v in (rep.per_round_series or {}).items()})
    fields["budget_exceeded_rounds"] = run.budget_exceeded_rounds
    fields["seed"] = run.seed
    return fields


@pytest.mark.parametrize("d, T, series", [(2, 600, False), (2, 200, True), (3, 200, False), (3, 100, True)])
def test_bandit_runs_match_retired_loop(d, T, series):
    spec = ScenarioSpec("random_bilinear", T, 30, {"d1": d, "d2": d})
    algo = AlgorithmSpec("bandit_omg_rftl")
    scenario = generate_scenario(spec)
    resolved = resolve_parameters(scenario, algo)
    played_set = Simplex(d, float(resolved["delta"][0]))
    for seed in (0, 1):
        new = run_single(spec, algo, seed, series, resolved)
        old = _retired_run_bandit(scenario, resolved, seed, series)
        new_trace, old_trace = dict(vars(new.trace)), dict(vars(old.trace))
        # the game loop also records the final action, the hindsight warm start
        assert old_trace.pop("final_x") is None and old_trace.pop("final_y") is None
        assert played_set.contains(new_trace.pop("final_x")) and played_set.contains(new_trace.pop("final_y"))
        assert _bits(new_trace) == _bits(old_trace)
        got, want = _report_fields(new), _report_fields(old)
        if series and d == 3:
            # the warm-tracked series solve may accept the previous saddle,
            # valued at that pair instead of the LP's: both are certified
            # to tol_gap, so the two values differ by at most 2 tol_gap
            tol = float(resolved["tol_gap"][0])
            a, b = got.pop("series.cum_sp_regret"), want.pop("series.cum_sp_regret")
            assert np.abs(a - b).max() <= 2.0 * tol
        assert _bits(got) == _bits(want)
