"""A running sum builds its own closed forms.

A matrix `SumPayoff` holds one regularizer slot per axis, None or
(regularizer, summed weight), and builds its restrictions from it; a
`RegularizedPayoff` has none of its own, so ``gap_estimate`` folds it into
a sum first.  A rows sum reads the dual that balances the x-gradient at an
envelope kink off its coefficient rows, at any number m of resources.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osp_lab.geometry import Box, Simplex, interval
from osp_lab.knapsack import KnapsackLagrangian, QuadraticFn
from osp_lab.matrix_games import EntropyRegularizer
from osp_lab.payoffs import (
    LinearPlusEntropy,
    RegularizedPayoff,
    SeparableQuadratic,
    SquaredNormRegularizer,
    SumPayoff,
    make_bilinear,
    regularize,
)
from osp_lab.saddle_solver import SolverConfig, gap_estimate, solve_saddle

A = np.array([[0.5, -1.0, 0.25], [-0.75, 1.0, 0.0], [0.0, 0.5, -0.5]])


# ---------------------------------------------------------------------------
# The rows dual at any m
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [9, 10])
def test_many_resource_knapsack_sum_certifies_on_envelope(m):
    # reward 10x - x^2 and consumptions c_i(x) = x; only b_1 = 2 binds on
    # [0, 20], so the envelope has its kink at x = 2, where the dual that
    # balances the x-gradient is y_1 = r'(2) / c_1'(2) = 6
    b = np.array([2.0] + [100.0] * (m - 1))
    f = SumPayoff()
    for _ in range(2):  # two half rounds, summed exactly
        f.add(KnapsackLagrangian(QuadraticFn(-0.5, 5.0), [QuadraticFn(0.0, 0.5)] * m, b / 2))
    cfg = SolverConfig(tol_gap=1e-10)
    sol = solve_saddle(f, interval(0.0, 20.0), Box(np.zeros(m), np.full(m, 50.0)), cfg)
    assert sol.path == "envelope" and sol.gap <= cfg.tol_gap
    assert sol.x_star[0] == 2.0
    assert sol.y_star[0] == 6.0 and np.all(sol.y_star[1:] == 0.0)
    assert sol.certified_value(cfg) == -16.0


@settings(max_examples=200)
@given(
    m=st.integers(1, 12),
    t=st.integers(1, 100),
    kink=st.floats(0.5, 19.5),
    a2=st.floats(0.0, 5.0),
    a1=st.floats(0.1, 60.0),
    ym=st.floats(0.1, 50.0),
    ra2=st.floats(-2.0, 0.0),
    frac=st.floats(0.05, 0.95),
    slack=st.floats(1.0, 300.0),
)
def test_kink_dual_is_read_off_the_rows(m, t, kink, a2, a1, ym, ra2, frac, slack):
    # resource 0 binds at `kink`, where dphi jumps from -R'(kink) < 0 to
    # -R'(kink) + ym*C'(kink) > 0; the m - 1 others, linear, never bind,
    # so the saddle dual is y_0 = frac*ym and y_i = 0 for the others
    slope = -frac * ym * (2.0 * a2 * kink + a1)  # -R'(kink)
    ra1 = -slope - 2.0 * ra2 * kink
    c = [QuadraticFn(t * a2, t * a1)] + [QuadraticFn(0.0, float(t))] * (m - 1)
    b = np.array([t * (a2 * kink * kink + a1 * kink)] + [t * (20.0 + slack)] * (m - 1))
    f = SumPayoff()
    f.add(KnapsackLagrangian(QuadraticFn(t * ra2, t * ra1), c, b))
    Y = Box(np.zeros(m), np.array([ym] + [1.0] * (m - 1)))
    scale = t * (1.0 + ym) * (400.0 * (a2 - ra2) + 20.0 * (a1 + abs(ra1)))
    cfg = SolverConfig(tol_gap=1e-13 * scale)
    sol = solve_saddle(f, interval(0.0, 20.0), Y, cfg)
    assert sol.path == "envelope" and sol.gap <= cfg.tol_gap
    assert abs(sol.y_star[0] - frac * ym) <= 1e-9 * ym
    assert np.all(sol.y_star[1:] == 0.0)


# ---------------------------------------------------------------------------
# One regularizer slot per axis
# ---------------------------------------------------------------------------


def test_squared_norms_of_different_radii_share_a_slot():
    f = SumPayoff()
    f.add(regularize(make_bilinear(A), SquaredNormRegularizer(1.0), SquaredNormRegularizer(2.0), 0.5))
    f.add(regularize(make_bilinear(A), SquaredNormRegularizer(3.0), SquaredNormRegularizer(0.5), 0.25))
    x, y = np.array([0.2, 0.3, 0.5]), np.array([0.6, 0.1, 0.3])
    assert f.value(x, y) == pytest.approx(float(x @ (2 * A) @ y) + 0.75 * (x @ x - y @ y), abs=1e-15)
    rx, ry = f.restrict_x(y), f.restrict_y(x)
    assert type(rx) is SeparableQuadratic and np.all(rx.quad == 0.75) and rx.const == -0.75 * (y @ y)
    assert type(ry) is SeparableQuadratic and np.all(ry.quad == -0.75) and ry.const == 0.75 * (x @ x)
    assert not f.is_pure_bilinear() and not f.is_entropic_bilinear()
    assert f.entropy_weight_x == f.entropy_weight_y == 0.0


def test_entropies_of_one_dimension_share_a_slot():
    f = SumPayoff()
    for w in (0.5, 0.25):
        f.add(regularize(make_bilinear(A), EntropyRegularizer(3, 0.01), EntropyRegularizer(3), w))
    x = np.array([0.2, 0.3, 0.5])
    ry = f.restrict_y(x)
    assert type(ry) is LinearPlusEntropy and ry.ent_weight == -0.75
    assert f.is_entropic_bilinear() and f.entropy_weight_x == f.entropy_weight_y == 0.75
    for y in (np.array([0.6, 0.1, 0.3]), np.full(3, 1.0 / 3.0)):
        assert ry.value(y) == pytest.approx(f.value(x, y), abs=1e-15)


def test_regularized_payoff_certifies_through_a_sum():
    reg = EntropyRegularizer(3, 0.01)
    f = regularize(make_bilinear(A), reg, reg, 0.3)
    assert "restrict_x" not in vars(RegularizedPayoff) and "restrict_y" not in vars(RegularizedPayoff)
    X = Y = Simplex(3, 0.01)
    s = SumPayoff()
    s.add(f)
    sol = solve_saddle(f, X, Y, SolverConfig(tol_gap=1e-10))
    assert sol.gap <= 1e-10
    for x, y in ((sol.x_star, sol.y_star), (X.uniform(), Y.embed(np.array([1.0, 0.0, 0.0])))):
        assert gap_estimate(f, X, Y, x, y) == gap_estimate(s, X, Y, x, y)
