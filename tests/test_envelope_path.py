"""The one exact 1-D path, ``envelope_argmin``, on scalar quadratic sums
against an exact rational oracle.

For f = cxy*x*y + cx2*x^2 + cx1*x + cy2*y^2 + cy1*y + c0 plus w*(x^2 - y^2)
over [xl, xu] x [yl, yu], the envelope phi(x) = max_y f(x, y) is convex and
piecewise quadratic: the inner maximizer is clip(g / 2H, yl, yu), with
g = cxy*x + cy1 and H = w - cy2, or the bang-bang yu [g > 0] + yl [g <= 0]
when H = 0.  Its minimum over the interval is therefore attained at an
endpoint, at a breakpoint g = 2H*yl or g = 2H*yu, or at the stationary point
of one piece, all of them rational in the inputs.  The oracle evaluates phi
at each of these in exact arithmetic and keeps the least value.
"""

from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from osp_lab.geometry import Box
from osp_lab.payoffs import (
    ScalarQuadraticBilinear,
    SquaredNormRegularizer,
    SumPayoff,
    make_quadratic_bilinear,
    make_scalar_convex_concave,
    regularize,
)
from osp_lab.saddle_solver import SolverConfig, envelope_argmin, solve_saddle


def _coefs(payoff):
    return (payoff.cxy, payoff.cx2, payoff.cx1, payoff.cy2, payoff.cy1, payoff.c0)


def _payoff(coefs, w):
    f = SumPayoff()
    f.add(ScalarQuadraticBilinear(*coefs))
    if w > 0.0:
        reg = SquaredNormRegularizer(1.0)
        f.add(regularize(ScalarQuadraticBilinear(0.0, 0.0, 0.0, 0.0, 0.0), reg, reg, w))
    return f


def _phi(coefs, w, ybox, x: Fraction) -> Fraction:
    cxy, cx2, cx1, cy2, cy1, c0 = (Fraction(v) for v in coefs)
    w = Fraction(w)
    yl, yu = (Fraction(v) for v in ybox)
    H = w - cy2
    g = cxy * x + cy1
    if H > 0:
        y = min(max(g / (2 * H), yl), yu)
    else:
        y = yu if g > 0 else yl
    return (cx2 + w) * x * x + cx1 * x + c0 + y * g - H * y * y


def _exact_min(coefs, w, xbox, ybox) -> Fraction:
    cxy, cx2, cx1, cy2, cy1, _ = (Fraction(v) for v in coefs)
    w = Fraction(w)
    xl, xu = (Fraction(v) for v in xbox)
    yl, yu = (Fraction(v) for v in ybox)
    P2, H = cx2 + w, w - cy2
    cands = [xl, xu]
    if cxy != 0:
        cands += [(2 * H * yl - cy1) / cxy, (2 * H * yu - cy1) / cxy]
    if P2 != 0:
        cands += [-(cx1 + v * cxy) / (2 * P2) for v in (yl, yu)]
    if H > 0 and 2 * P2 + cxy * cxy / (2 * H) != 0:
        cands.append(-(cx1 + cxy * cy1 / (2 * H)) / (2 * P2 + cxy * cxy / (2 * H)))
    return min(_phi(coefs, w, ybox, x) for x in cands if xl <= x <= xu)


@st.composite
def _interval(draw, pinned=False):
    lo = draw(st.floats(-5.0, 5.0))
    width = 0.0 if pinned else draw(st.floats(0.0, 10.0))
    return (lo, lo + width)


_COEFS = st.tuples(
    st.floats(-5.0, 5.0),
    st.just(0.0) | st.floats(0.0, 5.0),
    st.floats(-5.0, 5.0),
    st.just(0.0) | st.floats(-5.0, 0.0),
    st.floats(-5.0, 5.0),
    st.floats(-5.0, 5.0),
)


@settings(max_examples=500)
@given(
    coefs=_COEFS,
    w=st.just(0.0) | st.floats(0.0, 3.0, exclude_min=True),
    xbox=_interval(),
    ybox=_interval() | _interval(pinned=True),
)
# a saddle inside and one on the boundary of the box, and the merely
# convex-concave sum whose saddle is an h = 0 kink
@example(coefs=_coefs(make_quadratic_bilinear(1.0, 1.0, 2.0, -1.0)), w=0.0, xbox=(-10.0, 10.0), ybox=(-10.0, 10.0))
@example(coefs=_coefs(make_quadratic_bilinear(1.0, 1.0, 5.0, 5.0, 2.0, 2.0)), w=0.0, xbox=(-2.0, 2.0), ybox=(-2.0, 2.0))
@example(coefs=_coefs(make_scalar_convex_concave(1, 0, 0.2, 0, -0.1)), w=0.0, xbox=(-1.0, 1.0), ybox=(-1.0, 1.0))
# a squared-norm sum over boxes below zero, and a pinned y
@example(coefs=(2.0, 0.0, 1.0, 0.0, -3.0, 0.0), w=0.5, xbox=(-4.0, -1.0), ybox=(-3.0, -0.5))
@example(coefs=(1.0, 0.0, 0.5, 0.0, 0.0, 0.0), w=0.0, xbox=(-1.0, 1.0), ybox=(-0.25, -0.25))
def test_scalar_envelope_matches_exact_oracle(coefs, w, xbox, ybox):
    f = _payoff(coefs, w)
    X = Box(np.array([xbox[0]]), np.array([xbox[1]]))
    Y = Box(np.array([ybox[0]]), np.array([ybox[1]]))
    best = _exact_min(coefs, w, xbox, ybox)
    tol = 1e-12 * (1.0 + abs(float(best)))

    x = envelope_argmin(*f.envelope_rows(), X, Y)
    assert xbox[0] <= x <= xbox[1]
    assert float(_phi(coefs, w, ybox, Fraction(x)) - best) <= tol

    cfg = SolverConfig(tol_gap=1e-9)
    sol = solve_saddle(f, X, Y, cfg)
    assert sol.path == "envelope"
    assert sol.gap <= cfg.tol_gap
    assert abs(sol.value - float(best)) <= tol + cfg.tol_gap
