"""The ``newton`` path certifies each pair from its own envelope.

``_newton_gap`` reads the gap off the numbers the path already holds at x
(y*(x), S y and log x), and the solution's value is the envelope value plus
the regularizers' ln d terms.  Both must agree with the generic certificate
``gap_estimate`` and with ``f.value`` on every entropic sum the path takes:
plain simplexes, tiny floors and a y floor that binds, unequal entropy
weights and unequal dimensions.  Every certificate the path makes is
checked, also those that fail tol_gap and make the path step on.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from osp_lab import saddle_solver
from osp_lab.geometry import Simplex
from osp_lab.matrix_games import EntropyRegularizer
from osp_lab.payoffs import BilinearPayoff, SumPayoff, regularize
from osp_lab.saddle_solver import SolverConfig, gap_estimate

DIMS = (2, 3, 8, 64)
FLOORS = ("plain", "tiny", "binding_y")


def _entropic_sum(S: np.ndarray, bx: float, by: float, floor: str):
    """(f, X, Y): S plus entropies of weights bx on x and by on y.

    A `RegularizedPayoff` puts one weight on both axes, so the y slot's
    weight is set on the sum directly: a swapped bx and by then shows."""
    d1, d2 = S.shape
    theta_x, theta_y = {"plain": (0.0, 0.0), "tiny": (1e-12, 1e-12), "binding_y": (1e-12, 0.9 / d2)}[floor]
    f = SumPayoff()
    f.add(regularize(BilinearPayoff(S, entry_bound=None), EntropyRegularizer(d1, theta_x), EntropyRegularizer(d2, theta_y), bx))
    f._reg_y = (f._reg_y[0], by)
    assert (f.entropy_weight_x, f.entropy_weight_y) == (bx, by)
    return f, Simplex(d1, theta_x), Simplex(d2, theta_y)


def _newton_certificates(f, X, Y, x0, tol_gap):
    """The path's solution and every (gap, x, y) it certified on the way."""
    made = []
    real = saddle_solver._newton_gap

    def recording(bx, X_, Y_, x, y, log_x, Sy):
        g = real(bx, X_, Y_, x, y, log_x, Sy)
        made.append((g, x.copy(), y.copy()))
        return g

    with mock.patch.object(saddle_solver, "_newton_gap", recording):
        sol = saddle_solver._entropic_newton_path(f, X, Y, x0, SolverConfig(tol_gap=tol_gap))
    return sol, made


@settings(max_examples=150)
@given(
    d1=st.sampled_from(DIMS),
    d2=st.sampled_from(DIMS),
    floor=st.sampled_from(FLOORS),
    bx=st.floats(0.01, 5.0),
    by=st.floats(0.01, 5.0),
    scale=st.sampled_from((1.0, 30.0, 1000.0)),
    seed=st.integers(0, 2**32 - 1),
    warm=st.booleans(),
    tol_gap=st.sampled_from((1e-4, 1e-8)),
)
@example(d1=2, d2=2, floor="plain", bx=0.5, by=0.5, scale=1.0, seed=0, warm=False, tol_gap=1e-8)
@example(d1=64, d2=3, floor="binding_y", bx=0.05, by=2.0, scale=1000.0, seed=7, warm=True, tol_gap=1e-4)
def test_newton_certificate_matches_gap_estimate(d1, d2, floor, bx, by, scale, seed, warm, tol_gap):
    rng = np.random.default_rng(seed)
    S = rng.uniform(-1.0, 1.0, (d1, d2)) * scale
    f, X, Y = _entropic_sum(S, bx, by, floor)
    x0 = rng.dirichlet(np.ones(d1)) if warm else X.uniform()
    sol, made = _newton_certificates(f, X, Y, x0, tol_gap)
    if sol is None:
        return
    assert sol.path == "newton"
    assert made and made[-1][0] == sol.gap <= tol_gap
    value = f.value(sol.x_star, sol.y_star)
    bound = 1e-12 * (1.0 + abs(value))
    assert abs(sol.value - value) <= bound
    for g, x, y in made:
        assert abs(g - gap_estimate(f, X, Y, x, y)) <= bound


@pytest.mark.parametrize(
    "seed, d1, d2, floor, bx, by, scale, pinned, certificates",
    [
        (1, 8, 8, "binding_y", 0.5, 0.2, 30.0, 5, 1),
        (9, 3, 64, "plain", 0.3, 1.5, 1000.0, 8, 3),
    ],
)
def test_the_certificate_sees_pinned_y_and_failed_certificates(seed, d1, d2, floor, bx, by, scale, pinned, certificates):
    """The property above is not vacuous: Newton certifies pairs whose y
    sits on its floor (a binding floor, and on the plain simplex exact
    zeros where the weights underflow), and a pair after certificates that
    failed tol_gap (a near-vertex decrement) made it step on."""
    S = np.random.default_rng(seed).uniform(-1.0, 1.0, (d1, d2)) * scale
    f, X, Y = _entropic_sum(S, bx, by, floor)
    sol, made = _newton_certificates(f, X, Y, X.uniform(), 1e-8)
    assert sol is not None and sol.path == "newton"
    assert int(np.sum(sol.y_star == Y.theta)) == pinned and len(made) == certificates
    bound = 1e-12 * (1.0 + abs(sol.value))
    for g, x, y in made:
        assert abs(g - gap_estimate(f, X, Y, x, y)) <= bound


def test_newton_certificate_refuses_an_infeasible_pair():
    rng = np.random.default_rng(0)
    S = rng.uniform(-1.0, 1.0, (3, 3))
    X = Y = Simplex(3)
    y = np.full(3, 1.0 / 3.0)
    x_bad = np.array([0.6, 0.6, -0.2])
    with pytest.raises(ValueError, match="feasible"):
        saddle_solver._newton_gap(0.5, X, Y, x_bad, y, np.log(np.abs(x_bad)), S @ y)
    x = np.full(3, 1.0 / 3.0)
    with pytest.raises(ValueError, match="feasible"):
        saddle_solver._newton_gap(0.5, X, Y, x, np.array([0.5, 0.5, 0.5]), np.log(x), S @ y)
