from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from osp_lab.geometry import Box, Simplex, interval
from osp_lab.knapsack import KnapsackLagrangian, QuadraticFn
from osp_lab.matrix_games import EntropyRegularizer
from osp_lab.oracles import grid_matrix_game_2x2, grid_saddle_1d
from osp_lab.payoffs import (
    PayoffFunction,
    SeparableQuadratic,
    SquaredNormRegularizer,
    SumPayoff,
    make_bilinear,
    make_quadratic_bilinear,
    make_scalar_convex_concave,
    regularize,
)
from osp_lab.saddle_solver import (
    SolverConfig,
    gap_estimate,
    solve_matrix_game_2x2,
    solve_saddle,
)

from brute_oracles import assemble_sum, hindsight_value, random_feasible_point

MP = np.array([[1.0, -1.0], [-1.0, 1.0]])
BOX10 = Box(np.array([-10.0]), np.array([10.0]))


def test_decoupled_quadratic_saddle():
    f = make_quadratic_bilinear(0.0, 1.0, 0.0, 0.0)
    sol = solve_saddle(f, BOX10, BOX10)
    assert abs(sol.x_star[0]) < 1e-8 and abs(sol.y_star[0]) < 1e-8
    assert abs(sol.value) < 1e-10 and sol.gap <= 1e-8


def test_coupled_quadratic_stationarity():
    # xy + (x-2)^2/2 - (y+1)^2/2: the 2x2 stationarity system
    # y + (x - 2) = 0, x - (y + 1) = 0 has the interior solution (1.5, 0.5)
    # with value -0.25 (grid oracle agrees; see test below)
    f = make_quadratic_bilinear(1.0, 1.0, 2.0, -1.0)
    sol = solve_saddle(f, BOX10, BOX10)
    assert abs(sol.x_star[0] - 1.5) < 1e-9
    assert abs(sol.y_star[0] - 0.5) < 1e-9
    assert abs(sol.value - (-0.25)) < 1e-9
    gval, gx, gy = grid_saddle_1d(f, (-10, 10), (-10, 10))
    assert abs(gval - sol.value) < 1e-5
    assert abs(gx - 1.5) < 1e-5 and abs(gy - 0.5) < 1e-5


def test_entropic_matching_pennies_uniform():
    theta = 0.1
    f = regularize(
        make_bilinear(MP), EntropyRegularizer(2, theta), EntropyRegularizer(2, theta), 1.0
    )
    sol = solve_saddle(
        f, Simplex(2, theta), Simplex(2, theta),
        SolverConfig(tol_gap=1e-10),
    )
    assert np.abs(sol.x_star - 0.5).max() < 1e-6
    assert np.abs(sol.y_star - 0.5).max() < 1e-6


def test_gap_estimate_examples():
    f = make_quadratic_bilinear(1.0, 1.0, 2.0, -1.0)
    g = gap_estimate(f, BOX10, BOX10, np.array([1.5]), np.array([0.5]))
    assert g < 1e-7
    # bilinear at a vertex pair: max_y e1' A y - min_x x' A e1 = 1 - (-1)
    fb = make_bilinear(MP)
    e1 = np.array([1.0, 0.0])
    g = gap_estimate(fb, Simplex(2), Simplex(2), e1, e1)
    assert abs(g - 2.0) < 1e-12
    # degenerate singleton sets
    single = Simplex(2, 0.5)
    g = gap_estimate(fb, single, single, np.array([0.5, 0.5]), np.array([0.5, 0.5]))
    assert g == 0.0


def test_gap_estimate_requires_feasible_point():
    fb = make_bilinear(MP)
    with pytest.raises(ValueError):
        gap_estimate(fb, Simplex(2), Simplex(2), np.array([0.7, 0.7]), np.array([1.0, 0.0]))


def test_matrix_game_2x2_examples():
    sol = solve_matrix_game_2x2(MP)
    assert abs(sol.value) < 1e-15
    assert np.allclose(sol.x_star, 0.5) and np.allclose(sol.y_star, 0.5)
    zero = solve_matrix_game_2x2(np.zeros((2, 2)))
    assert zero.value == 0.0 and np.allclose(zero.x_star, 0.5)
    # rows identical: player 1 indifferent, player 2 maximizes; pure saddle
    # at (1,1) with value +1 (brute-force grid agrees)
    ind = solve_matrix_game_2x2(np.array([[1.0, -1.0], [1.0, -1.0]]))
    gval, _ = grid_matrix_game_2x2(np.array([[1.0, -1.0], [1.0, -1.0]]))
    assert abs(ind.value - 1.0) < 1e-15
    assert abs(gval - ind.value) < 5e-3


def test_matrix_game_closed_form_vs_entropic_solver_500():
    rng = np.random.default_rng(314159)
    theta = 1e-8
    sets = Simplex(2, theta)
    worst = 0.0
    for _ in range(500):
        A = rng.uniform(-1, 1, (2, 2))
        exact = solve_matrix_game_2x2(A)
        f = regularize(
            make_bilinear(A),
            EntropyRegularizer(2, theta),
            EntropyRegularizer(2, theta),
            1e-6,
        )
        sol = solve_saddle(f, sets, sets, SolverConfig(tol_gap=1e-9, max_iters=200_000))
        worst = max(worst, abs(exact.value - sol.value))
    assert worst <= 1e-5


def test_pure_saddle_whenever_mixed_formula_degenerates():
    # the mixed denominator vanishes only when a pure saddle exists
    rng = np.random.default_rng(8)
    for _ in range(500):
        A = rng.integers(-2, 3, size=(2, 2)).astype(float) / 2.0
        denom = A[0, 0] - A[0, 1] - A[1, 0] + A[1, 1]
        if abs(denom) < 1e-12:
            has_pure = any(
                A[i, j] >= A[i, 1 - j] and A[i, j] <= A[1 - i, j]
                for i in range(2)
                for j in range(2)
            )
            assert has_pure
            solve_matrix_game_2x2(A)  # must not raise


def test_kkt_variational_inequalities_on_strong_sums():
    rng = np.random.default_rng(21)
    box = Box(np.array([-1.0]), np.array([1.0]))
    total = assemble_sum(
        make_quadratic_bilinear(1.0, 1.0, rng.uniform(-1, 1), rng.uniform(-1, 1), 1.0, 1.0)
        for _ in range(9)
    )
    cfg = SolverConfig(tol_gap=1e-10)
    sol = solve_saddle(total, box, box, cfg)
    tol_kkt = 10 * cfg.tol_gap * (box.diameter() + box.diameter())
    gx = total.grad_x(sol.x_star, sol.y_star)
    gy = total.grad_y(sol.x_star, sol.y_star)
    for _ in range(100):
        x = random_feasible_point(box, rng)
        y = random_feasible_point(box, rng)
        assert gx @ (x - sol.x_star) >= -tol_kkt
        assert gy @ (y - sol.y_star) <= tol_kkt


def test_warm_start_never_worse_on_repeat():
    f = make_quadratic_bilinear(1.0, 1.0, 0.4, 0.7)
    cold = solve_saddle(f, BOX10, BOX10)
    warm_cfg = SolverConfig(warm_start=(cold.x_star, cold.y_star))
    warm = solve_saddle(f, BOX10, BOX10, warm_cfg)
    assert warm.iterations <= cold.iterations
    assert warm.gap <= warm_cfg.tol_gap


def test_infeasible_warm_start_rejected():
    f = make_bilinear(MP)
    cfg = SolverConfig(warm_start=(np.array([0.7, 0.7]), np.array([0.5, 0.5])))
    with pytest.raises(ValueError):
        solve_saddle(f, Simplex(2), Simplex(2), cfg)


def test_hindsight_value_examples():
    # T copies of matching pennies: value 0
    hv = hindsight_value([make_bilinear(MP)] * 12, Simplex(2), Simplex(2))
    assert abs(hv) < 1e-9
    # single strongly convex-concave quadratic: its closed-form saddle value
    f = make_quadratic_bilinear(1.0, 1.0, 2.0, -1.0)
    assert abs(hindsight_value([f], BOX10, BOX10) - (-0.25)) < 1e-9
    # theorem-6 scenario 2 full sequence sums to value 0
    seq = [make_bilinear(MP)] * 6 + [make_bilinear(np.array([[1.0, -1.0], [1.0, -1.0]]))] * 6
    assert abs(hindsight_value(seq, Simplex(2), Simplex(2))) < 1e-9
    with pytest.raises(ValueError):
        hindsight_value([], BOX10, BOX10)


def test_merely_convex_concave_deterministic_average():
    f = make_scalar_convex_concave(1.0, 0.0, 0.2, 0.0, -0.1)
    box = interval(-1.0, 1.0)
    cfg = SolverConfig(tol_gap=1e-6)
    a = solve_saddle(f, box, box, cfg)
    b = solve_saddle(f, box, box, cfg)
    assert a.x_star[0] == b.x_star[0] and a.y_star[0] == b.y_star[0]
    assert a.gap <= 1e-6


def test_boundary_saddle_via_envelope():
    # strong coupling pushes the saddle to the box boundary
    f = make_quadratic_bilinear(1.0, 1.0, 5.0, 5.0, 2.0, 2.0)
    box = Box(np.array([-2.0]), np.array([2.0]))
    sol = solve_saddle(f, box, box, SolverConfig(tol_gap=1e-8))
    assert sol.gap <= 1e-8
    gval, gx, gy = grid_saddle_1d(f, (-2, 2), (-2, 2))
    assert abs(sol.value - gval) < 1e-4


# ---------------------------------------------------------------------------
# Exact 2x2 values
# ---------------------------------------------------------------------------


def _exact_2x2_value(A) -> Fraction:
    """min_x max_y x^T A y of the float matrix A in rational arithmetic."""
    a = [[Fraction(float(v)) for v in row] for row in A]
    for i in range(2):
        for j in range(2):
            if a[i][1 - j] <= a[i][j] <= a[1 - i][j]:
                return a[i][j]
    return (a[0][0] * a[1][1] - a[0][1] * a[1][0]) / (a[0][0] - a[0][1] - a[1][0] + a[1][1])


@st.composite
def _games_2x2(draw):
    """Entries in [-1, 1]: pure games on a coarse grid, the same moved by a
    few units of 2^-e (near-pure), and c plus a few units of 2^-e
    (near-constant)."""
    kind = draw(st.sampled_from(("pure", "near_pure", "near_constant")))
    units = np.array(draw(st.lists(st.integers(-64, 64), min_size=4, max_size=4)), dtype=float)
    tiny = units * 2.0 ** -draw(st.integers(40, 60))
    if kind == "near_constant":
        A = draw(st.floats(-0.99, 0.99)) + tiny
    else:
        grid = np.array(draw(st.lists(st.integers(-4, 4), min_size=4, max_size=4))) / 4.0
        A = grid if kind == "pure" else np.clip(grid + tiny, -1.0, 1.0)
    return A.reshape(2, 2)


@settings(max_examples=600)
@given(A=_games_2x2())
@example(A=np.array([[0.999999999999987, 1.0], [1.0, 0.999999999999987]]))
def test_matrix_game_2x2_value_is_exact(A):
    sol = solve_matrix_game_2x2(A)
    assert abs(Fraction(sol.value) - _exact_2x2_value(A)) <= Fraction(1, 10**15)


# ---------------------------------------------------------------------------
# The gap certificate
# ---------------------------------------------------------------------------


@st.composite
def _certified_case(draw):
    """(f, X, Y) from one of the three payoff families."""
    family = draw(st.sampled_from(("scalar", "bilinear", "entropic", "knapsack")))

    def coef(lo, hi):
        return draw(st.floats(lo, hi))

    if family == "scalar":
        f = make_scalar_convex_concave(
            coef(-2, 2), coef(0, 2), coef(-2, 2), coef(-2, 0), coef(-2, 2), coef(-2, 2)
        )
        lo_x, lo_y = coef(-2, 1), coef(-2, 1)
        X = Box(np.array([lo_x]), np.array([lo_x + coef(0, 2)]))
        Y = Box(np.array([lo_y]), np.array([lo_y + coef(0, 2)]))
        return f, X, Y
    if family == "knapsack":
        m = draw(st.integers(1, 3))
        H = draw(st.sampled_from((0.0, 0.5)))
        b_over_T = np.array([coef(0, 2) for _ in range(m)])
        reg = SquaredNormRegularizer(2.0)
        agg = SumPayoff()
        for _ in range(draw(st.integers(1, 3))):
            L = KnapsackLagrangian(
                QuadraticFn(-coef(0, 2), coef(0, 2), 0.0),
                [QuadraticFn(coef(0, 2), coef(0, 2), coef(0, 1)) for _ in range(m)],
                b_over_T,
            )
            agg.add(regularize(L, reg, reg, H) if H > 0.0 else L)
        X = Box(np.array([0.0]), np.array([coef(0, 2)]))
        Y = Box(np.zeros(m), np.array([coef(0, 2) for _ in range(m)]))
        return agg, X, Y
    d1, d2 = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    floored = draw(st.booleans())
    theta_x = draw(st.floats(0.0, 1.0 / d1)) if floored else 0.0
    theta_y = draw(st.floats(0.0, 1.0 / d2)) if floored else 0.0
    X = Simplex(d1, theta_x) if floored else Simplex(d1)
    Y = Simplex(d2, theta_y) if floored else Simplex(d2)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    terms = [make_bilinear(rng.uniform(-1, 1, (d1, d2))) for _ in range(draw(st.integers(1, 3)))]
    if family == "entropic":
        w = coef(1e-3, 2.0)
        reg_x, reg_y = EntropyRegularizer(d1, theta_x), EntropyRegularizer(d2, theta_y)
        terms = [regularize(p, reg_x, reg_y, w) for p in terms]
    return (terms[0] if len(terms) == 1 else assemble_sum(terms)), X, Y


@settings(max_examples=400)
@given(case=_certified_case(), seed=st.integers(0, 2**32 - 1))
def test_gap_estimate_bounds_every_sampled_deviation(case, seed):
    f, X, Y = case
    rng = np.random.default_rng(seed)
    x, y = random_feasible_point(X, rng), random_feasible_point(Y, rng)
    g = gap_estimate(f, X, Y, x, y)
    assert g >= 0.0
    best_y = max(f.value(x, random_feasible_point(Y, rng)) for _ in range(16))
    best_x = min(f.value(random_feasible_point(X, rng), y) for _ in range(16))
    assert g >= best_y - best_x - 1e-12


def test_unstructured_payoffs_are_refused():
    # an entropy regularizer on a scalar quadratic has no closed-form restriction
    f = regularize(
        make_quadratic_bilinear(1.0, 1.0, 0.0, 0.0), EntropyRegularizer(1), EntropyRegularizer(1), 1.0
    )
    box = interval(0.1, 1.0)
    with pytest.raises(TypeError):
        gap_estimate(f, box, box, np.array([0.5]), np.array([0.5]))

    class Opaque(PayoffFunction):
        def value(self, x, y):
            return float(x[0] * y[0])

        def grad_x(self, x, y):
            return np.array([y[0]])

        def grad_y(self, x, y):
            return np.array([x[0]])

    with pytest.raises(TypeError):
        gap_estimate(Opaque(), box, box, np.array([0.5]), np.array([0.5]))
    with pytest.raises(TypeError):
        solve_saddle(Opaque(), box, box)
    # a non-isotropic quadratic over a simplex has no closed-form minimizer
    with pytest.raises(TypeError):
        SeparableQuadratic(np.array([1.0, 2.0]), np.zeros(2)).minimize_over(Simplex(2))
