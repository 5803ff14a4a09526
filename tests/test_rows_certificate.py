"""The closed-form certificate of a coefficient-rows sum.

``gap_estimate`` certifies a sum of rows (p, G, h),

    f(x, y) = p . v + sum_i y_i G_i . v - h ||y||^2,   v = (x^2, x, 1),

straight from the rows.  Its oracle is the restriction route that every
other sum takes: the exact optima of ``f.restrict_y(x)`` over Y and of
``f.restrict_x(y)`` over X.  The envelope path's inner argmax
``_rows_argmax_y`` must also pick the restriction's maximizer bit for bit,
so the solver's duals do not move.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from osp_lab.geometry import Box, Simplex
from osp_lab.knapsack import QuadraticFn, sec82_instance
from osp_lab.payoffs import PayoffFunction, SumPayoff, make_bilinear, powers
from osp_lab.saddle_solver import _rows_argmax_y, gap_estimate

SUBNORMAL_H = (5e-324, 1e-320, 1e-310)


class _Rows(PayoffFunction):
    """A payoff given only by its coefficient rows."""

    def __init__(self, p, G, h):
        self._rows = (np.asarray(p, dtype=float), np.asarray(G, dtype=float), h)

    def envelope_rows(self):
        return self._rows


@st.composite
def _rows_case(draw):
    """(p, G, h, (x_lo, x_hi), y_lo, y_hi, x, y) with f convex in x on the box.

    A row with curvature in x (G_i0 > 0) gets a nonnegative y_i, and p's
    x^2 entry is nonnegative, so the x^2 coefficient of f(., y) is a sum of
    nonnegative terms and never rounds below 0.  Some y_i are pinned
    (lo == hi); x and each y_i are drawn at either bound or inside.
    """
    m = draw(st.integers(1, 12))
    coef = st.floats(-2.0, 2.0)
    width = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    h = draw(st.one_of(st.just(0.0), st.sampled_from(SUBNORMAL_H), st.floats(1e-3, 4.0)))
    p = [draw(st.floats(0.0, 2.0)), draw(coef), draw(coef)]
    G, y_lo, y_hi = [], [], []
    for _ in range(m):
        curved = draw(st.booleans())
        lo = draw(st.floats(0.0, 1.0)) if curved else draw(st.floats(-1.0, 1.0))
        G.append([draw(st.floats(0.0, 2.0)) if curved else 0.0, draw(coef), draw(coef)])
        y_lo.append(lo)
        y_hi.append(lo + draw(width))
    x_lo = draw(st.floats(-1.0, 1.0))
    x_hi = x_lo + draw(width)

    def point(lo, hi):
        return draw(st.one_of(st.sampled_from([lo, hi]), st.floats(lo, hi)))

    x = point(x_lo, x_hi)
    y = [point(lo, hi) for lo, hi in zip(y_lo, y_hi)]
    return p, G, h, (x_lo, x_hi), y_lo, y_hi, x, y


@settings(max_examples=500)
@given(case=_rows_case())
# a subnormal h puts every interior vertex at +-inf
@example(case=([0.0, 1.0, 0.5], [[0.0, 1.0, -0.5], [0.0, -1.0, 0.25]], 5e-324, (0.0, 1.0), [0.0, -1.0], [1.0, 1.0], 0.3, [0.5, 0.0]))
# linear in x and in y, with a pinned y and x on a bound
@example(case=([0.0, 0.0, 1.0], [[0.0, 0.0, 0.0], [0.0, 1.0, -1.0]], 0.0, (-1.0, 1.0), [0.5, 0.0], [0.5, 1.0], -1.0, [0.5, 1.0]))
# a zero slope a_i with h = 0: the tie takes y_i's lower bound
@example(case=([1.0, 0.0, 1.0], [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], 0.0, (-1.0, 1.0), [-1.0, 0.0], [1.0, 1.0], 0.0, [0.5, 0.5]))
def test_rows_gap_matches_the_restriction_route(case):
    p, G, h, (x_lo, x_hi), y_lo, y_hi, x, y = case
    f = SumPayoff()
    f.add(_Rows(p, G, h))
    X, Y = Box(np.array([x_lo]), np.array([x_hi])), Box(np.array(y_lo), np.array(y_hi))
    x, y = np.array([x]), np.array(y)

    with np.errstate(over="raise", divide="raise", invalid="raise"):  # no warning on a subnormal h
        gap = gap_estimate(f, X, Y, x, y)
    upper, y_star = f.restrict_y(x).maximize_over(Y)
    lower, _ = f.restrict_x(y).minimize_over(X)
    assert gap >= 0.0
    assert abs(gap - max(upper - lower, 0.0)) <= 1e-12 * (1.0 + abs(upper) + abs(lower))

    rows = f.envelope_rows()
    _, y_hat = _rows_argmax_y(rows[1], rows[2], powers(x), Y)
    assert y_hat.tobytes() == y_star.tobytes()


def _knapsack_rows_sum():
    """A rows sum at the corner (lower(X), lower(Y)); ``off`` moves a point
    d below the lower bound of its first coordinate."""
    inst = sec82_instance(50)
    f = SumPayoff()
    f.add(inst.lagrangian(QuadraticFn(-1.0, 10.0), [QuadraticFn(1.0, 50.0), QuadraticFn(0.0, 1.0)]))
    assert f.envelope_rows() is not None
    X, Y = inst.X, inst.dual_set()

    def off(z, d):
        z = z.copy()
        z[0] -= d
        return z

    return f, X, Y, X.lower.copy(), Y.lower.copy(), off


def _matrix_sum():
    """A matrix sum at the vertex pair (e1, e1); ``off`` moves mass d from
    the second coordinate, which is 0, to the first, so the point sits d
    below the simplex's floor with its mass kept at 1."""
    f = SumPayoff()
    f.add(make_bilinear(np.array([[1.0, -1.0], [-1.0, 1.0]])))
    assert f.matrix is not None and f.envelope_rows() is None
    e1 = np.array([1.0, 0.0])

    def off(z, d):
        return z + np.array([d, -d])

    return f, Simplex(2), Simplex(2), e1, e1.copy(), off


@pytest.mark.parametrize("form", [_knapsack_rows_sum, _matrix_sum], ids=["rows", "matrix"])
def test_an_infeasible_pair_raises(form):
    f, X, Y, x, y, off = form()
    # a pair outside the sets by less than the 1e-9 tolerance is certified
    assert gap_estimate(f, X, Y, off(x, 5e-10), off(y, 5e-10)) >= 0.0
    for bad_x, bad_y in (
        (off(x, 3e-9), y),
        (x, off(y, 3e-9)),
        (np.full_like(x, np.nan), y),
        (x, np.full_like(y, np.nan)),
        (np.append(x, x), y),
        (x, y[:-1]),
    ):
        with pytest.raises(ValueError):
            gap_estimate(f, X, Y, bad_x, bad_y)
