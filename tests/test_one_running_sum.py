"""One running sum: the knapsack Lagrangians fold into `SumPayoff` as
coefficient rows.

The retired ``KnapsackAggregate`` (kept verbatim in
``retired_knapsack_aggregate``) summed L_t(x, y) + H x^2 - H ||y||^2 over the
observed rounds with H*t as a product.  A `SumPayoff` of the regularized
Lagrangians holds the same function as rows p, G, h, with H*t a running sum
of H.  Its evaluations must match the aggregate's to rounding; the summed
reward and consumption coefficients must be equal as values; and a solve on
the Lagrangian of summed coefficients, as the hindsight and r* solves are,
must give the retired solve's bits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osp_lab.knapsack import KnapsackEnvironment, KnapsackLagrangian, quadratics, sec82_instance
from osp_lab.matrix_games import EntropyRegularizer
from osp_lab.payoffs import SquaredNormRegularizer, SumPayoff, make_quadratic_bilinear, regularize
from osp_lab.saddle_solver import SolverConfig, solve_saddle

from retired_knapsack_aggregate import KnapsackAggregate, solve_unwrapped

RTOL = 1e-12


def _scale(rows, x: float, y: np.ndarray) -> float:
    """A bound on every summand of the value and of both gradients at
    (x, y); the tolerance is relative to it, not to a result that may
    cancel."""
    p, G, h = rows
    v = 2.0 * (1.0 + x * x + abs(x))
    return v * (np.abs(p).sum() + (1.0 + np.abs(y).sum()) * np.abs(G).sum() + h * (1.0 + np.linalg.norm(y)) ** 2)


def _close(a, b, scale: float) -> None:
    assert np.all(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) <= RTOL * scale)


def _same_quadratic(a, b, scale: float) -> None:
    _close(a.quad, b.quad, scale)
    _close(a.lin, b.lin, scale)
    _close(a.const, b.const, scale)


@settings(max_examples=200)
@given(
    T=st.integers(2, 20_000),
    use_default_H=st.booleans(),
    budgets=st.tuples(st.floats(0.5, 300.0), st.floats(0.5, 8.0)),
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    points=st.lists(
        st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=4
    ),
)
def test_sum_of_regularized_lagrangians_matches_retired_aggregate(T, use_default_H, budgets, n, seed, points):
    inst = sec82_instance(T, budgets)
    H = float(T ** (-1.0 / 6.0)) if use_default_H else 0.5
    X, Y = inst.X, inst.dual_set()
    R, C = inst.sampler.draw_coefficients(np.random.default_rng(seed), n)
    reg_x, reg_y = SquaredNormRegularizer(20.0), SquaredNormRegularizer(float(np.linalg.norm(inst.y_max)))
    new, old = SumPayoff(), KnapsackAggregate(inst.m, inst.b / inst.T, H)
    for t in range(n):
        L = inst.lagrangian(*quadratics(R[t], C[t]))
        new.add(regularize(L, reg_x, reg_y, H))
        old.add(L)

    rows, ref = new.envelope_rows(), old.envelope_rows()
    # the summed coefficients are equal as values; p_2, h and the b/T column
    # of G differ by the rounding of a running sum against a product
    assert np.array_equal(rows[1][:, :2], old.c_coef[:, :2])
    assert rows[0][1] == -old.r_coef[1] and rows[0][2] == -old.r_coef[2]
    for a, b in zip(rows, ref):
        assert np.all(np.abs(np.asarray(a) - np.asarray(b)) <= RTOL * (1.0 + np.abs(np.asarray(b))))
    assert abs(new.strong_H - old.strong_H) <= RTOL * old.strong_H

    for fx, fy0, fy1 in points:
        x = X.lower + fx * (X.upper - X.lower)
        y = Y.upper * np.array([fy0, fy1])
        scale = _scale(ref, float(x[0]), y)
        _close(new.value(x, y), old.value(x, y), scale)
        _close(new.grad_x(x, y), old.grad_x(x, y), scale)
        _close(new.grad_y(x, y), old.grad_y(x, y), scale)
        _same_quadratic(new.restrict_x(y), old.restrict_x(y), scale)
        _same_quadratic(new.restrict_y(x), old.restrict_y(x), scale)


def _same_solution(new, old) -> None:
    for a, b in ((new.x_star, old.x_star), (new.y_star, old.y_star)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert np.float64(new.value).tobytes() == np.float64(old.value).tobytes()
    assert np.float64(new.gap).tobytes() == np.float64(old.gap).tobytes()
    assert (new.iterations, new.path) == (old.iterations, old.path) and new.path == "envelope"


@pytest.mark.parametrize("budgets", [(200.0, 4.0), (0.5, 0.5), (50.0, 0.5)])
def test_hindsight_solves_match_retired_from_sums(budgets):
    """The harness's hindsight sums, cold and warm-started, on one stream."""
    T, seed = 3000, 7
    inst = sec82_instance(T, budgets)
    X, Y = inst.X, inst.dual_set()
    env = KnapsackEnvironment(inst, seed)
    R, C = env.reward_coef, env.consumption_coef
    r_sums = np.cumsum(np.concatenate([np.zeros((1, 3)), R]), axis=0)[1:]
    c_sums = np.cumsum(np.concatenate([np.zeros((1, inst.m, 3)), C]), axis=0)[1:]
    bT = inst.b / inst.T
    warm = (np.array([3.0]), Y.upper / 2.0)
    for t in (0, 1, 2, 9, 99, 777, 1500, T - 1):
        new = KnapsackLagrangian(*quadratics(r_sums[t], c_sums[t]), (t + 1) * bT)
        old = KnapsackAggregate.from_sums(bT, t + 1, r_sums[t], c_sums[t])
        for cfg in (SolverConfig(tol_gap=1e-6), SolverConfig(tol_gap=1e-6, max_iters=200_000, warm_start=warm)):
            _same_solution(solve_saddle(new, X, Y, cfg), solve_unwrapped(old, X, Y, cfg))


@pytest.mark.parametrize("T", [1000, 3000, 10_000, 12_345])
@pytest.mark.parametrize("budgets", [(200.0, 4.0), (0.5, 0.5), (50.0, 0.5)])
def test_r_star_solve_matches_retired_from_sums(T, budgets):
    inst = sec82_instance(T, budgets)
    e_r, e_c = inst.sampler.expectation()
    old = KnapsackAggregate.from_sums(
        inst.b / inst.T, 1, e_r.coefficients(), np.array([ci.coefficients() for ci in e_c])
    )
    cfg = SolverConfig(tol_gap=1e-10, max_iters=200_000)
    X, Y = inst.X, inst.dual_set()
    _same_solution(solve_saddle(inst.lagrangian(e_r, e_c), X, Y, cfg), solve_unwrapped(old, X, Y, cfg))


def test_sum_refuses_an_entropic_lagrangian():
    inst = sec82_instance(100)
    e_r, e_c = inst.sampler.expectation()
    L = inst.lagrangian(e_r, e_c)
    sq, ent_x, ent_y = SquaredNormRegularizer(1.0), EntropyRegularizer(1), EntropyRegularizer(2)
    for reg_x, reg_y in ((ent_x, ent_y), (ent_x, sq), (sq, ent_y)):
        with pytest.raises(TypeError):
            SumPayoff().add(regularize(L, reg_x, reg_y, 1.0))
    # a squared norm folded before the entropy arrives is refused as well
    s = SumPayoff()
    s.add(regularize(L, sq, sq, 1.0))
    with pytest.raises(TypeError):
        s.add(regularize(L, sq, ent_y, 1.0))


def test_sum_refuses_rows_of_another_shape():
    # one scalar row would broadcast over both resources of a knapsack sum
    inst = sec82_instance(100)
    s = SumPayoff()
    s.add(inst.lagrangian(*inst.sampler.expectation()))
    with pytest.raises(TypeError):
        s.add(make_quadratic_bilinear(1.0, 1.0, 0.0, 0.0))
