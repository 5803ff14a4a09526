"""The exact paths of ``solve_saddle`` and the path each solution names.

The simplex-method LP (``solve_matrix_game_lp``) is checked against
scipy's HiGHS LP solver, which only the tests import; the library stays
numpy-only.  Envelope Newton (``_entropic_newton_path``) is checked on the
round sums of recorded OMG-RFTL runs and against entropic mirror-prox.
"""

import os
import subprocess
import sys
from copy import deepcopy
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import osp_lab
from osp_lab import osp_algorithms, saddle_solver
from osp_lab.geometry import Box, Simplex, interval
from osp_lab.knapsack import KnapsackLagrangian, QuadraticFn
from osp_lab.matrix_games import OMGRFTL, EntropyRegularizer, omg_defaults
from osp_lab.metrics_harness import AlgorithmSpec, ScenarioSpec, run_single
from osp_lab.payoffs import (
    SquaredNormRegularizer,
    SumPayoff,
    make_bilinear,
    make_quadratic_bilinear,
    regularize,
)
from osp_lab.saddle_solver import (
    LP_PIVOTS_PER_DIM,
    SolverConfig,
    gap_estimate,
    solve_matrix_game_lp,
    solve_saddle,
)

from brute_oracles import hindsight_value

# ---------------------------------------------------------------------------
# The simplex-method LP against HiGHS
# ---------------------------------------------------------------------------


def _floor(dset) -> float:
    return getattr(dset, "theta", 0.0)


def _highs_value(A, X, Y) -> float:
    """min_x max_{y in Y} x^T A y as one LP in (x, v).  Over a floored
    simplex the inner maximum is theta_y * x^T A 1 + scale_y * max_j (A^T x)_j,
    so the LP is min theta_y * (A 1)^T x + scale_y * v subject to
    A^T x <= v 1, sum x = 1, x >= theta_x."""
    d1, d2 = A.shape
    ty = _floor(Y)
    c = np.r_[ty * A.sum(axis=1), 1.0 - d2 * ty]
    res = linprog(
        c,
        A_ub=np.c_[A.T, -np.ones(d2)],
        b_ub=np.zeros(d2),
        A_eq=np.r_[np.ones(d1), 0.0][None, :],
        b_eq=[1.0],
        bounds=[(_floor(X), None)] * d1 + [(None, None)],
        method="highs",
    )
    assert res.status == 0, res.message
    return float(res.fun)


def _set(d: int, theta: float | None):
    return Simplex(d) if theta is None else Simplex(d, theta)


@st.composite
def _games(draw):
    """(A, X, Y): sums of +-1 games (integer entries, many ties), {-1, 0, 1}
    games (heavily degenerate pivots), games with a planted pure saddle, and
    uniform games; d up to 64; plain or floored simplexes, floors up to 1/d."""
    kind = draw(st.sampled_from(("pm1_sum", "ties", "pure", "uniform")))
    d1, d2 = draw(st.integers(1, 64)), draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "pm1_sum":
        A = (rng.integers(0, 2, size=(draw(st.integers(1, 60)), d1, d2)) * 2.0 - 1.0).sum(axis=0)
    elif kind == "ties":
        A = rng.integers(-1, 2, size=(d1, d2)).astype(float)
    else:
        A = rng.uniform(-1.0, 1.0, size=(d1, d2))
        if kind == "pure":
            i, j = rng.integers(d1), rng.integers(d2)
            A[i, :] = -np.abs(A[i, :])
            A[:, j] = np.abs(A[:, j])
            A[i, j] = 0.0
    thetas = []
    for d in (d1, d2):
        floored = draw(st.booleans())
        thetas.append(draw(st.floats(0.0, 1.0 / d)) if floored else None)
    return A, _set(d1, thetas[0]), _set(d2, thetas[1])


@settings(max_examples=200)
@given(game=_games())
@example(game=(np.zeros((3, 3)), Simplex(3), Simplex(3)))
@example(game=(np.eye(4), Simplex(4), Simplex(4)))
@example(game=(np.ones((5, 3)), Simplex(5, 0.2), Simplex(3, 1.0 / 3.0)))
@example(game=(np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]]), Simplex(3), Simplex(3)))
@example(game=(np.kron(np.array([[1.0, -1.0], [-1.0, 1.0]]), np.ones((8, 8))), Simplex(16), Simplex(16)))
# a rounded zero of 1.5e-12 in the entering column once passed as a pivot
# element and wrecked the tableau (gap 0.58); pivots now need 1e-9
@example(game=(np.random.default_rng(1586).integers(-1, 2, size=(34, 47)).astype(float), Simplex(34), Simplex(47)))
def test_lp_matches_highs(game):
    A, X, Y = game
    sol = solve_matrix_game_lp(A, X, Y)
    assert sol is not None
    assert sol.path == "lp" and 0 <= sol.iterations <= LP_PIVOTS_PER_DIM * sum(A.shape)
    assert X.contains(sol.x_star) and Y.contains(sol.y_star)
    scale = 1.0 + float(np.abs(A).max())
    assert sol.gap <= 1e-10 * scale
    assert abs(sol.value - _highs_value(A, X, Y)) <= 1e-9 * scale


def test_lp_pure_saddle_is_found_exactly():
    # row 1 is below both other rows everywhere, and column 2 is its largest
    # entry, so the unique saddle is the pure pair (e_1, e_2) with value 2
    A = np.array([[3.0, 2.0, 4.0], [1.0, 0.5, 2.0], [2.0, 1.0, 5.0]])
    sol = solve_matrix_game_lp(A, Simplex(3), Simplex(3))
    assert abs(sol.value - 2.0) <= 1e-12 and sol.gap <= 1e-12
    assert np.abs(sol.x_star - [0.0, 1.0, 0.0]).max() <= 1e-12
    assert np.abs(sol.y_star - [0.0, 0.0, 1.0]).max() <= 1e-12


def test_lp_bitwise_rerun_and_solve_saddle_path():
    rng = np.random.default_rng(5)
    A = (rng.integers(0, 2, size=(300, 32, 32)) * 2.0 - 1.0).sum(axis=0)
    a = solve_matrix_game_lp(A, Simplex(32), Simplex(32))
    b = solve_matrix_game_lp(A, Simplex(32), Simplex(32))
    assert a.x_star.tobytes() == b.x_star.tobytes() and a.y_star.tobytes() == b.y_star.tobytes()
    f = SumPayoff()
    f.add(make_bilinear(A / 300.0))
    sol = solve_saddle(f, Simplex(32), Simplex(32), SolverConfig(tol_gap=1e-9))
    assert sol.path == "lp" and sol.gap == gap_estimate(f, Simplex(32), Simplex(32), sol.x_star, sol.y_star)
    assert sol.gap <= 1e-9


def test_hindsight_value_raises_when_uncertified(monkeypatch):
    rng = np.random.default_rng(3)
    seq = [make_bilinear(rng.uniform(-1, 1, (3, 3))) for _ in range(4)]
    cfg = SolverConfig(tol_gap=1e-12, max_iters=3)
    monkeypatch.setattr(saddle_solver, "solve_matrix_game_lp", lambda A, X, Y: None)
    with pytest.raises(RuntimeError, match="gap .* > tol_gap 1e-12"):
        hindsight_value(seq, Simplex(3), Simplex(3), cfg)


# ---------------------------------------------------------------------------
# Envelope Newton on recorded OMG-RFTL round sums
# ---------------------------------------------------------------------------


def _recorded_omg_rounds(d: int, T: int, seed: int, tol: float):
    """Every round solve of one OMG-RFTL run on random +-1 games, as
    (sum, X, Y, cfg) with the warm start the run used."""
    cfg = omg_defaults(T, 1.0, d, d, SolverConfig(tol_gap=tol))
    algo = OMGRFTL(d, d, cfg)
    rounds = []
    real = osp_algorithms.solve_saddle

    def record(f, X, Y, c):
        rounds.append((deepcopy(f), X, Y, c))
        return real(f, X, Y, c)

    rng = np.random.default_rng(seed)
    osp_algorithms.solve_saddle = record
    try:
        for _ in range(T):
            algo.step(make_bilinear(rng.integers(0, 2, size=(d, d)) * 2.0 - 1.0))
    finally:
        osp_algorithms.solve_saddle = real
    return rounds


@pytest.mark.parametrize("d,T", [(3, 300), (4, 300), (64, 60)])
def test_newton_certifies_every_recorded_round(d, T):
    """Each round certifies to tol_gap, from the first rounds on, where the
    entropy weight t/eta is smallest.  Newton starts at the warm start, so a
    converged warm start is a Newton solve too.  A round leaves Newton only
    when the x floor binds: the same Newton on the floorless simplex then
    puts a coordinate below the floor."""
    tol = 1e-6
    for t, (f, X, Y, cfg) in enumerate(_recorded_omg_rounds(d, T, seed=d, tol=tol)):
        sol = solve_saddle(f, X, Y, cfg)
        assert sol.gap <= tol, (t, sol.path)
        if sol.path != "newton":
            floorless = saddle_solver._entropic_newton_path(f, Simplex(d), Simplex(d), cfg.warm_start[0], cfg)
            assert floorless is not None and floorless.x_star.min() < X.theta, (t, sol.path)


def test_newton_agrees_with_mirror_prox():
    """Both pairs are certified to tol, and the envelope is beta-strongly
    convex in l1 (Pinsker), so each x lies within sqrt(2 tol / beta) of the
    minimizer; Newton's pair is exact to rounding."""
    tol = 1e-7
    for f, X, Y, cfg in _recorded_omg_rounds(8, 120, seed=11, tol=tol)[::10]:
        x0, y0 = cfg.warm_start
        newton = saddle_solver._entropic_newton_path(f, X, Y, x0, cfg)
        mp = saddle_solver._mirror_prox(f, X, Y, x0.copy(), y0.copy(), cfg, True)
        assert newton is not None and newton.gap <= 1e-3 * tol
        assert mp.gap <= tol
        beta = min(f.entropy_weight_x, f.entropy_weight_y)
        assert np.abs(newton.x_star - mp.x_star).sum() <= np.sqrt(2.0 * tol / beta)


def test_newton_from_a_near_vertex_warm_start():
    """Round 2 of an OMG-RFTL run at d = 4, T = 4000, warm-started where
    round 1 left x: three coordinates below 1e-14.  There the entropy's
    curvature bx/x_i makes the decrement about 1e-13 although the minimizer
    is far away, so the first certificate fails and Newton keeps stepping."""
    d, T = 4, 4000
    eta = np.sqrt(T)
    theta = float(np.exp(-eta))
    S_half = np.array([[-1.0, 0, -1, 0], [0, 0, -1, 0], [0, -1, 0, 0], [1, -1, 0, -1]])
    X = Y = Simplex(d, theta)
    reg = EntropyRegularizer(d, theta)
    f = SumPayoff()
    for _ in range(2):
        f.add(regularize(make_bilinear(S_half), reg, reg, 1.0 / eta))
    x0 = np.array([9e-26, 1.0, 1.2e-15, 2.7e-23])
    cfg = SolverConfig(tol_gap=1e-4, warm_start=(x0, Y.uniform()))
    sol = saddle_solver._entropic_newton_path(f, X, Y, x0, cfg)
    assert sol is not None and sol.gap <= cfg.tol_gap and sol.iterations > 5
    assert sol.x_star[0] > 0.5


def _binding_x_floor():
    # row 0 loses against every column, so the minimizer drives x_0 to its floor
    d, theta = 4, 0.15
    A = np.array([[1.0] * 4, [1.0, -1.0, 1.0, -1.0], [-1.0, 1.0, -1.0, 1.0], [0.0] * 4])
    reg = EntropyRegularizer(d, theta)
    f = SumPayoff()
    f.add(regularize(make_bilinear(A), reg, reg, 0.05))
    return f, Simplex(d, theta), Simplex(d, theta)


def test_binding_x_floor_falls_back_certified():
    f, X, Y = _binding_x_floor()
    cfg = SolverConfig(tol_gap=1e-8)
    assert saddle_solver._entropic_newton_path(f, X, Y, X.uniform(), cfg) is None
    sol = solve_saddle(f, X, Y, cfg)
    assert sol.path == "mirror_prox" and sol.gap <= cfg.tol_gap
    assert sol.x_star[0] == X.theta


def test_newton_reruns_are_bitwise_identical():
    def run():
        rounds = _recorded_omg_rounds(16, 40, seed=2, tol=1e-6)
        sols = [solve_saddle(f, X, Y, cfg) for f, X, Y, cfg in rounds]
        assert {s.path for s in sols[1:]} == {"newton"}
        return b"".join(s.x_star.tobytes() + s.y_star.tobytes() for s in sols)

    assert run() == run()


def test_omg_rounds_certify_once(monkeypatch):
    """Newton starts at the warm start, so an OMG-RFTL round that ends on
    Newton makes exactly one certificate: no separate warm-start check."""
    calls = []
    rounds = []
    real_gap, real_solve = saddle_solver.gap_estimate, osp_algorithms.solve_saddle

    def counting_gap(*args):
        calls.append(1)
        return real_gap(*args)

    def one_round(f, X, Y, cfg):
        before = len(calls)
        sol = real_solve(f, X, Y, cfg)
        rounds.append((sol.path, len(calls) - before))
        return sol

    monkeypatch.setattr(saddle_solver, "gap_estimate", counting_gap)
    monkeypatch.setattr(osp_algorithms, "solve_saddle", one_round)
    spec = ScenarioSpec("random_bilinear", T=100, seed=5, params={"d1": 8, "d2": 8})
    run_single(spec, AlgorithmSpec("omg_rftl", {"tol_gap": 1e-6}), 0)
    assert rounds == [("newton", 1)] * 100


# ---------------------------------------------------------------------------
# The path of every solution
# ---------------------------------------------------------------------------


def _entropic(d: int, theta: float, weight: float, seed: int = 0):
    rng = np.random.default_rng(seed)
    reg = EntropyRegularizer(d, theta)
    f = SumPayoff()
    f.add(regularize(make_bilinear(rng.uniform(-1, 1, (d, d))), reg, reg, weight))
    return f, Simplex(d, theta), Simplex(d, theta)


def _knapsack():
    b_over_T = np.array([0.6])
    L = KnapsackLagrangian(QuadraticFn(-1.0, 1.0, 0.0), [QuadraticFn(0.5, 1.0, 0.2)], b_over_T)
    reg = SquaredNormRegularizer(2.0)
    agg = SumPayoff()
    agg.add(regularize(L, reg, reg, 0.5))
    return agg, interval(0.0, 2.0), Box(np.zeros(1), np.array([2.0]))


def _sqnorm_bilinear():
    reg = SquaredNormRegularizer(1.0)
    A = np.random.default_rng(1).uniform(-1, 1, (3, 3))
    return regularize(make_bilinear(A), reg, reg, 0.5), Simplex(3), Simplex(3)


def _warm_accept():
    """A squared-norm sum warm-started at its own certified pair.  An
    entropic sum would not do: Newton starts at the warm start and
    certifies it before the warm-start check."""
    f, X, Y = _sqnorm_bilinear()
    first = solve_saddle(f, X, Y, SolverConfig(tol_gap=1e-8))
    return f, X, Y, SolverConfig(tol_gap=1e-8, warm_start=(first.x_star, first.y_star))


PATH_CASES = {
    "closed_2x2": lambda: (make_bilinear(np.array([[1.0, -1.0], [-1.0, 1.0]])), Simplex(2), Simplex(2)),
    "envelope": _knapsack,
    # scalar sums with a saddle inside and on the boundary of the box
    "envelope_scalar_inside": lambda: (
        make_quadratic_bilinear(1.0, 1.0, 2.0, -1.0), interval(-10, 10), interval(-10, 10)
    ),
    "envelope_scalar_boundary": lambda: (
        make_quadratic_bilinear(1.0, 1.0, 5.0, 5.0, 2.0, 2.0), interval(-2, 2), interval(-2, 2)
    ),
    "warm_accept": _warm_accept,
    "newton": lambda: _entropic(5, 1e-9, 0.3),
    "lp": lambda: (make_bilinear(np.random.default_rng(2).uniform(-1, 1, (4, 3))), Simplex(4), Simplex(3)),
    # an x floor binds, so Newton gives way to the fallback
    "mirror_prox": _binding_x_floor,
    "extragradient": _sqnorm_bilinear,
}


@pytest.mark.parametrize("case", sorted(PATH_CASES))
def test_every_solution_names_its_path(case):
    f, X, Y, *cfg = PATH_CASES[case]()
    cfg = cfg[0] if cfg else SolverConfig(tol_gap=1e-8)
    sol = solve_saddle(f, X, Y, cfg)
    assert sol.path == case.split("_scalar")[0]
    assert sol.gap <= cfg.tol_gap


# ---------------------------------------------------------------------------
# The library stays numpy-only
# ---------------------------------------------------------------------------


def test_library_import_does_not_import_scipy():
    src = str(Path(osp_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import importlib, pkgutil, sys, osp_lab\n"
        "for m in pkgutil.iter_modules(osp_lab.__path__):\n"
        "    importlib.import_module('osp_lab.' + m.name)\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
