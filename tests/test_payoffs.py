import numpy as np
import pytest

from osp_lab.geometry import Box, Simplex
from osp_lab.knapsack import QuadraticFn, sec82_instance
from osp_lab.matrix_games import EntropyRegularizer
from osp_lab.payoffs import (
    Regularizer,
    SeparableQuadratic,
    SquaredNormRegularizer,
    SumPayoff,
    bilinear_lipschitz,
    make_bilinear,
    make_quadratic_bilinear,
    make_scalar_convex_concave,
    regularize,
)

from brute_oracles import finite_difference_grads, random_feasible_point

MP = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _constructors():
    rng = np.random.default_rng(42)
    out = [
        ("quadratic", make_quadratic_bilinear(1.0, 1.0, 2.0, -1.0), Box(np.array([-10.0]), np.array([10.0])), Box(np.array([-10.0]), np.array([10.0]))),
        ("linear_cc", make_scalar_convex_concave(0.7, 0.0, 0.3, 0.0, -0.4), Box(np.array([-1.0]), np.array([1.0])), Box(np.array([-1.0]), np.array([1.0]))),
        ("bilinear", make_bilinear(rng.uniform(-1, 1, (3, 4))), Simplex(3), Simplex(4)),
    ]
    reg = regularize(
        make_bilinear(MP),
        EntropyRegularizer(2, 0.1),
        EntropyRegularizer(2, 0.1),
        0.5,
    )
    out.append(("entropic", reg, Simplex(2, 0.1), Simplex(2, 0.1)))
    return out


def test_quadratic_bilinear_examples():
    f = make_quadratic_bilinear(1.0, 1.0, 2.0, -1.0)
    # quadratic terms vanish at (p, q)
    assert abs(f.value(np.array([2.0]), np.array([-1.0])) - (-2.0)) < 1e-12
    gx = f.grad_x(np.array([0.0]), np.array([0.0]))
    gy = f.grad_y(np.array([0.0]), np.array([0.0]))
    fx, fy = finite_difference_grads(f, np.array([0.0]), np.array([0.0]))
    assert abs(gx[0] - (-2.0)) < 1e-12 and abs(gy[0] - (-1.0)) < 1e-12
    assert abs(gx[0] - fx[0]) < 1e-5 and abs(gy[0] - fy[0]) < 1e-5
    decoupled = make_quadratic_bilinear(0.0, 1.0, 0.0, 0.0)
    assert decoupled.value(np.array([0.0]), np.array([0.0])) == 0.0
    assert decoupled.strong_H == 1.0


def test_quadratic_rejects_negative_curvature():
    with pytest.raises(ValueError):
        make_quadratic_bilinear(1.0, -0.5, 0.0, 0.0)


def test_bilinear_examples():
    f = make_bilinear(MP)
    u = np.array([0.5, 0.5])
    assert abs(f.value(u, u)) < 1e-15
    assert f.lipschitz_G == 1.0  # l1 constant is the entry bound
    f2 = make_bilinear(MP, norm_tag="l2")
    assert abs(f2.lipschitz_G - np.sqrt(1.0) * (np.sqrt(2) + np.sqrt(2))) < 1e-12
    z = make_bilinear(np.zeros((2, 2)))
    assert z.value(u, u) == 0.0 and z.lipschitz_G == 0.0
    with pytest.raises(ValueError):
        make_bilinear(np.array([[1.5, 0.0], [0.0, 0.0]]))


def test_bilinear_lipschitz_formulas():
    A = np.array([[0.5, -0.25], [0.1, 0.5]])
    assert bilinear_lipschitz(A, "l1") == 0.5
    assert abs(bilinear_lipschitz(A, "l2") - np.sqrt(0.5) * 2 * np.sqrt(2)) < 1e-12


def test_regularize_sum_rule_and_entropy_offset():
    base = make_bilinear(MP)
    u = np.array([0.5, 0.5])
    reg = regularize(base, EntropyRegularizer(2, 0.1), EntropyRegularizer(2, 0.1), 2.0)
    # entropy offset ln d makes R(uniform) = 0, so the value is untouched there
    assert abs(reg.value(u, u) - base.value(u, u)) < 1e-14
    assert reg.strong_H == 2.0  # weight * min strong modulus (entropy: 1)
    zero_like = regularize(
        base,
        SquaredNormRegularizer(0.0),
        SquaredNormRegularizer(0.0),
        1e-12,
    )
    x, y = np.array([0.3, 0.7]), np.array([0.6, 0.4])
    assert abs(zero_like.value(x, y) - base.value(x, y)) < 1e-9


def test_theorem7_style_regularization():
    zero = make_scalar_convex_concave(0.0, 0.0, 0.0, 0.0, 0.0)
    H = 0.5
    reg = regularize(zero, SquaredNormRegularizer(1.0), SquaredNormRegularizer(1.0), H)
    x, y = np.array([0.8]), np.array([-0.3])
    assert abs(reg.value(x, y) - (H * 0.64 - H * 0.09)) < 1e-14
    assert reg.strong_H == 2.0 * H


def test_regularize_rejects_nonpositive_weight():
    with pytest.raises(ValueError):
        regularize(
            make_bilinear(MP),
            SquaredNormRegularizer(1.0),
            SquaredNormRegularizer(1.0),
            0.0,
        )


@pytest.mark.parametrize("name,payoff,X,Y", _constructors())
def test_gradient_consistency(name, payoff, X, Y):
    rng = np.random.default_rng(hash(name) % 2**32)
    for _ in range(200):
        x = random_feasible_point(X, rng)
        y = random_feasible_point(Y, rng)
        if name == "entropic":
            # keep strictly inside so the log-gradient difference quotient behaves
            x = 0.9 * x + 0.1 / X.d
            y = 0.9 * y + 0.1 / Y.d
        gx, gy = payoff.grad_x(x, y), payoff.grad_y(x, y)
        fx, fy = finite_difference_grads(payoff, x, y)
        scale = 1.0 + max(np.abs(gx).max(), np.abs(gy).max())
        assert np.abs(gx - fx).max() / scale < 1e-4
        assert np.abs(gy - fy).max() / scale < 1e-4


@pytest.mark.parametrize("name,payoff,X,Y", _constructors())
def test_midpoint_convexity_concavity(name, payoff, X, Y):
    rng = np.random.default_rng(hash(name) % 2**31)
    for _ in range(200):
        x1, x2 = random_feasible_point(X, rng), random_feasible_point(X, rng)
        y = random_feasible_point(Y, rng)
        mid = payoff.value((x1 + x2) / 2, y)
        assert mid <= (payoff.value(x1, y) + payoff.value(x2, y)) / 2 + 1e-9
        x = random_feasible_point(X, rng)
        y1, y2 = random_feasible_point(Y, rng), random_feasible_point(Y, rng)
        mid = payoff.value(x, (y1 + y2) / 2)
        assert mid >= (payoff.value(x, y1) + payoff.value(x, y2)) / 2 - 1e-9


@pytest.mark.parametrize("name,payoff,X,Y", _constructors())
def test_lipschitz_certificate(name, payoff, X, Y):
    rng = np.random.default_rng(hash(name) % 2**30)
    dual_inf = payoff.norm_tag == "l1"  # dual of l1 is the sup norm
    for _ in range(300):
        x = random_feasible_point(X, rng)
        y = random_feasible_point(Y, rng)
        g = np.concatenate([payoff.grad_x(x, y), payoff.grad_y(x, y)])
        norm = np.abs(g).max() if dual_inf else np.linalg.norm(g)
        assert norm <= payoff.lipschitz_G + 1e-9


def test_sum_payoff_matches_explicit_sum():
    rng = np.random.default_rng(0)
    payoffs = [
        make_quadratic_bilinear(1.0, 1.0, rng.uniform(-1, 1), rng.uniform(-1, 1), 1.0, 1.0)
        for _ in range(17)
    ]
    sp = SumPayoff()
    for f in payoffs:
        sp.add(f)
    x, y = np.array([0.4]), np.array([-0.2])
    assert abs(sp.value(x, y) - sum(f.value(x, y) for f in payoffs)) < 1e-10
    assert abs(sp.grad_x(x, y)[0] - sum(f.grad_x(x, y)[0] for f in payoffs)) < 1e-10
    assert abs(sp.strong_H - sum(f.strong_H for f in payoffs)) < 1e-12


def test_sum_payoff_regularized_bilinear_bookkeeping():
    sp = SumPayoff()
    reg_x, reg_y = EntropyRegularizer(2, 0.1), EntropyRegularizer(2, 0.1)
    for _ in range(5):
        sp.add(regularize(make_bilinear(MP), reg_x, reg_y, 0.25))
    assert sp.is_entropic_bilinear()
    assert abs(sp.entropy_weight_x - 1.25) < 1e-12
    assert np.allclose(sp.matrix, 5 * MP)
    x, y = np.array([0.7, 0.3]), np.array([0.2, 0.8])
    explicit = 5 * (x @ MP @ y) + 1.25 * (
        reg_x.value(x) - reg_y.value(y)
    )
    assert abs(sp.value(x, y) - explicit) < 1e-12


class _Quartic(Regularizer):
    """sum z^4: strongly convex enough, but with no closed-form restriction."""

    def value(self, z):
        return float(np.sum(np.asarray(z) ** 4))

    def grad(self, z):
        return 4.0 * np.asarray(z) ** 3


def test_sum_refuses_payoffs_without_closed_form_restrictions():
    scalar = make_quadratic_bilinear(1.0, 1.0, 0.0, 0.0)
    sq, ent2, quartic = SquaredNormRegularizer(1.0), EntropyRegularizer(2), _Quartic()
    entropic_scalar = regularize(scalar, EntropyRegularizer(1), EntropyRegularizer(1), 1.0)
    r, c = QuadraticFn(-1.0, 5.0), [QuadraticFn(1.0, 50.0), QuadraticFn(0.0, 1.0)]
    lagrangian = sec82_instance(10).lagrangian(r, c)
    mixed_regs = regularize(make_bilinear(MP), sq, sq, 1.0)
    entropic = regularize(make_bilinear(MP), ent2, ent2, 1.0)
    refused = (
        [entropic_scalar],
        [entropic, mixed_regs],
        [entropic, scalar],
        # one regularizer slot per axis: a second kind on the y axis alone,
        # an entropy of another d, a tag other than sqnorm and entropy
        [entropic, regularize(make_bilinear(MP), ent2, sq, 1.0)],
        [entropic, regularize(make_bilinear(MP), EntropyRegularizer(3), ent2, 1.0)],
        [regularize(make_bilinear(MP), quartic, sq, 1.0)],
        [mixed_regs, regularize(make_bilinear(MP), sq, quartic, 1.0)],
        # a rows sum keeps no slot: only squared norms on both axes fold
        [regularize(scalar, sq, EntropyRegularizer(1), 1.0)],
        [regularize(lagrangian, quartic, sq, 1.0)],
    )
    for parts in refused:
        s = SumPayoff()
        with pytest.raises(TypeError):
            for p in parts:
                s.add(p)
    # the families it folds still combine; the knapsack Lagrangian gives rows
    s = SumPayoff()
    for p in (entropic, make_bilinear(MP), entropic):
        s.add(p)
    assert s.count == 3 and s.is_entropic_bilinear()
    s = SumPayoff()
    s.add(lagrangian)
    assert s.count == 1 and s.envelope_rows() is not None


def test_simplex_minimizer_requires_exact_isotropy():
    # projecting with quad[0] minimizes only an exactly isotropic quadratic;
    # a relative spread of 9e-6 once passed a closeness test, and its
    # minimum came out 1e-8 above the true one
    lin = np.array([-3.0, 1.0])
    near = SeparableQuadratic(np.array([1e3, 1e3 * (1 + 9e-6)]), lin)
    with pytest.raises(TypeError, match="non-isotropic"):
        near.minimize_over(Simplex(2))
    with pytest.raises(TypeError, match="non-isotropic"):
        SeparableQuadratic(-near.quad, -lin).maximize_over(Simplex(2, 0.1))
    exact = SeparableQuadratic(np.full(2, 1e3), lin)
    val, arg = exact.minimize_over(Simplex(2))
    assert np.array_equal(arg, Simplex(2).project(-lin / 2e3)) and val == exact.value(arg)


# ---------------------------------------------------------------------------
# Gradient map and restriction kernels: the ufunc forms keep the bits of
# np.zeros_like, np.all, np.any and np.clip
# ---------------------------------------------------------------------------


def _grads_wrapped(s, x, y, w):
    """SumPayoff.grad_x/grad_y of a matrix sum, as written with
    np.zeros_like, for squared-norm slots of summed weight w (or none)."""
    gx = np.zeros_like(np.asarray(x, dtype=float))
    gx = gx + s.matrix @ y
    gy = np.zeros_like(np.asarray(y, dtype=float))
    gy = gy + s.matrix.T @ x
    if w is not None:
        gx = gx + w * SquaredNormRegularizer(1.0).grad(x)
        gy = gy - w * SquaredNormRegularizer(1.0).grad(y)
    return gx, gy


def test_sum_gradients_have_the_bits_of_the_zeros_like_start():
    M = np.array([[-1.0, -0.5], [1.0, -0.75]])
    sq = SquaredNormRegularizer(1.0)
    # the slot's product w * 2x is -0.0 at x = -0.0; the zero start turns it
    # into +0.0
    x, y = np.array([-0.0, 0.5]), np.array([0.25, -0.0])
    assert np.signbit(0.5 * sq.grad(x)[0]) and np.signbit(0.5 * sq.grad(y)[1])
    for terms, w in ((1, None), (1, 0.5), (3, 1.5)):
        s = SumPayoff()
        for _ in range(terms):
            s.add(make_bilinear(M) if w is None else regularize(make_bilinear(M), sq, sq, 0.5))
        gx, gy = _grads_wrapped(s, x, y, w)
        assert s.grad_x(x, y).tobytes() == gx.tobytes()
        assert s.grad_y(x, y).tobytes() == gy.tobytes()
    rng = np.random.default_rng(22)
    for _ in range(200):
        d1, d2 = (int(k) for k in rng.integers(1, 9, size=2))
        A = rng.choice([0.0, -0.0, 1.0, -1.0, 0.5], size=(d1, d2)) * rng.choice([1.0, rng.uniform(-1.0, 1.0)])
        x = rng.choice([0.0, -0.0, 0.25, -0.75], size=d1) * rng.choice([1.0, rng.normal()])
        y = rng.choice([0.0, -0.0, 0.25, -0.75], size=d2) * rng.choice([1.0, rng.normal()])
        s = SumPayoff()
        w = None if rng.random() < 0.5 else 0.25
        s.add(make_bilinear(A) if w is None else regularize(make_bilinear(A), sq, sq, w))
        gx, gy = _grads_wrapped(s, x, y, w)
        assert s.grad_x(x, y).tobytes() == gx.tobytes()
        assert s.grad_y(x, y).tobytes() == gy.tobytes()


def _minimize_over_box_wrapped(q, box):
    """The Box branch of SeparableQuadratic.minimize_over, as written with
    np.clip and np.any."""
    lo, hi = box.lower, box.upper
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vertex = np.where(q.quad > 0, -q.lin / (2.0 * q.quad), 0.0)
    arg = np.clip(vertex, lo, hi)
    zero = q.quad == 0.0
    if np.any(zero):
        arg = np.where(zero, np.where(q.lin >= 0, lo, hi), arg)
    return q.value(arg), arg


def test_box_minimizer_has_the_bits_of_clip():
    tiny = np.nextafter(0.0, 1.0)
    # a subnormal quad puts the vertex at -inf (lin > 0) and +inf (lin < 0)
    q = SeparableQuadratic(np.array([tiny, tiny, 1.0, 0.0, 0.0, 2.0]), np.array([1.0, -1.0, -0.0, 0.0, -2.0, 3.0]), 0.5)
    with np.errstate(divide="ignore", over="ignore"):
        assert np.array_equal(-q.lin[:2] / (2.0 * q.quad[:2]), [-np.inf, np.inf])
    box = Box(np.array([-1.0, -2.0, -0.0, 0.0, -1.0, -5.0]), np.array([1.0, 2.0, 0.0, 1.0, 1.0, -0.0]))
    val, arg = q.minimize_over(box)
    ref_val, ref_arg = _minimize_over_box_wrapped(q, box)
    assert arg.tobytes() == ref_arg.tobytes() and val == ref_val
    assert arg[:2].tolist() == [-1.0, 2.0]
    rng = np.random.default_rng(23)
    for _ in range(300):
        d = int(rng.integers(1, 9))
        quad = rng.choice([0.0, tiny, 3 * tiny, 1.0, 0.5], size=d) * rng.choice([1.0, rng.exponential()])
        lin = rng.choice([0.0, -0.0, 1.0, -1.0], size=d) * rng.normal(size=d)
        lo = rng.normal(size=d)
        box = Box(lo, lo + rng.exponential(size=d) * (rng.random(d) < 0.8))
        q = SeparableQuadratic(quad, lin, float(rng.normal()))
        val, arg = q.minimize_over(box)
        ref_val, ref_arg = _minimize_over_box_wrapped(q, box)
        assert arg.tobytes() == ref_arg.tobytes() and val == ref_val
        neg_val, neg_arg = SeparableQuadratic(-quad, -lin, -q.const).maximize_over(box)
        assert neg_arg.tobytes() == ref_arg.tobytes() and neg_val == -ref_val
