import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osp_lab.geometry import (
    Box,
    Simplex,
    interval,
    project_simplex,
)
from osp_lab.oracles import grid_simplex_projection_3d
from osp_lab.saddle_solver import _norm

from brute_oracles import random_feasible_point


def test_contains_examples():
    assert Simplex(2).contains(np.array([0.5, 0.5]), tol=0.0)
    assert not Simplex(3, 0.1).contains(np.array([0.05, 0.45, 0.5]))
    assert Box(np.array([-10.0]), np.array([10.0])).contains(np.array([10.0]))


def test_contains_dimension_mismatch():
    with pytest.raises(ValueError):
        Simplex(2).contains(np.array([1.0, 0.0, 0.0]))


def test_project_fixed_point_and_clamp():
    assert np.allclose(Simplex(2).project(np.array([0.5, 0.5])), [0.5, 0.5])
    box = Box(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    assert np.allclose(box.project(np.array([2.0, -1.0])), [1.0, 0.0])


def test_restricted_projection_of_vertex():
    # projecting the first unit vector floors every other coordinate
    for d, theta in ((3, 0.1), (5, 0.05), (4, 0.2)):
        rs = Simplex(d, theta)
        e1 = np.zeros(d)
        e1[0] = 1.0
        p = rs.project(e1)
        expected = np.full(d, theta)
        expected[0] = 1.0 - theta * (d - 1)
        assert np.allclose(p, expected, atol=1e-12)
        assert abs(np.abs(p - e1).sum() - 2 * theta * (d - 1)) < 1e-12


def test_projection_against_grid_oracle():
    p = Simplex(3).project(np.array([0.9, 0.6, 0.1]))
    g = grid_simplex_projection_3d(np.array([0.9, 0.6, 0.1]))
    assert np.abs(p - g).max() < 2e-4


def test_projection_idempotent_and_feasible():
    rng = np.random.default_rng(11)
    sets = [
        Simplex(4),
        Simplex(4, 0.05),
        Box(np.array([-1.0, 0.0]), np.array([2.0, 0.5])),
        Box(np.zeros(2), np.array([1.0, 3.0])),
    ]
    for dset in sets:
        for _ in range(200):
            z = rng.normal(size=dset.dimension) * 3.0
            p = dset.project(z)
            assert dset.contains(p, tol=1e-12)
            assert np.allclose(dset.project(p), p, atol=1e-12)


def test_diameters():
    assert abs(Simplex(2).diameter() - np.sqrt(2)) < 1e-15
    assert Box(np.array([-10.0]), np.array([10.0])).diameter() == 20.0
    assert Simplex(2, 0.5).diameter() == 0.0
    assert abs(Box(np.zeros(2), np.array([3.0, 4.0])).diameter() - 5.0) < 1e-15
    assert Simplex(1).diameter() == 0.0


def test_projection_nonexpansive():
    rng = np.random.default_rng(7)
    for dset in (Simplex(5), Simplex(5, 0.08), Box(-np.ones(3), np.ones(3))):
        for _ in range(300):
            z1 = rng.normal(size=dset.dimension) * 2
            z2 = rng.normal(size=dset.dimension) * 2
            d_proj = np.linalg.norm(dset.project(z1) - dset.project(z2))
            assert d_proj <= np.linalg.norm(z1 - z2) + 1e-10


def test_projection_optimality_vs_random_feasible_points():
    rng = np.random.default_rng(13)
    for dset in (Simplex(4), Simplex(4, 0.1), Box(np.zeros(3), np.ones(3))):
        z = rng.normal(size=dset.dimension) * 2
        p = dset.project(z)
        base = np.linalg.norm(p - z)
        for _ in range(1000):
            q = random_feasible_point(dset, rng)
            assert base <= np.linalg.norm(q - z) + 1e-10


def test_embedding_bijective():
    rng = np.random.default_rng(3)
    rs = Simplex(6, 0.07)
    for _ in range(100):
        w = rng.dirichlet(np.ones(6))
        # the inverse map z -> (z - theta) / scale recovers w
        assert np.abs((rs.embed(w) - rs.theta) / rs.scale - w).max() < 1e-12


def test_degenerate_restricted_simplex_is_singleton():
    rs = Simplex(4, 0.25)
    z = rs.project(np.array([5.0, -1.0, 0.0, 0.3]))
    assert np.allclose(z, 0.25)


def test_projection_of_inputs_beyond_unit_precision():
    # |z| >= 2**53 absorbs the unit mass in rounding; the floored simplex at
    # theta = 1/d - 1e-15 scales moderate inputs up to that size
    assert np.array_equal(Simplex(2).project(np.array([0.0, 1e17])), [0.0, 1.0])
    assert np.array_equal(Simplex(3).project(np.full(3, -3e16)), np.full(3, 1.0 / 3.0))
    rs = Simplex(2, 0.5 - 1e-15)
    p = rs.project(np.array([0.0, 50.0]))
    assert rs.contains(p, tol=1e-15) and p[1] >= p[0]


def test_box_rejects_crossed_bounds():
    with pytest.raises(ValueError):
        Box(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        Simplex(3, 0.5)


def test_linear_optimization_closed_forms():
    g = np.array([2.0, -1.0, 0.5])
    val, arg = Simplex(3).minimize_linear(g)
    assert val == -1.0 and np.allclose(arg, [0, 1, 0])
    val, arg = Simplex(3, 0.1).minimize_linear(g)
    assert np.allclose(arg, [0.1, 0.8, 0.1])
    assert abs(val - (0.2 - 0.8 + 0.05)) < 1e-12
    val, arg = Box(-np.ones(3), np.ones(3)).maximize_linear(g)
    assert np.allclose(arg, [1, -1, 1]) and abs(val - 3.5) < 1e-12


def test_interval_helper():
    iv = interval(-2.0, 5.0)
    assert iv.dimension == 1
    assert np.allclose(iv.project(np.array([9.0])), [5.0])


def test_sorted_threshold_matches_quadratic_program_conditions():
    # KKT: on the support, z - tau = p; off support p = 0 and z <= tau
    rng = np.random.default_rng(5)
    for _ in range(200):
        z = rng.normal(size=6) * 2
        p = project_simplex(z)
        assert abs(p.sum() - 1.0) < 1e-9
        support = p > 0
        taus = z[support] - p[support]
        assert np.ptp(taus) < 1e-9
        if (~support).any():
            assert z[~support].max() <= taus.mean() + 1e-9


# ---------------------------------------------------------------------------
# Projection properties, including the degenerate floors theta = 1/d and
# 1/d - 1e-15, where the floored simplex is a point or almost one
# ---------------------------------------------------------------------------

_PROJECTION_SETS = [
    Box(np.array([-1.0, 0.0]), np.array([2.0, 0.5])),
    Box(np.array([0.0, 3.0, -2.0]), np.array([0.0, 3.0, 5.0])),  # flat in two coordinates
    Simplex(1),
    Simplex(2),
    Simplex(5),
    Simplex(3, 0.1),
    *(Simplex(d, 1.0 / d) for d in (2, 3, 64)),
    *(Simplex(d, 1.0 / d - 1e-15) for d in (2, 3, 64)),
]


def _feasible(dset, rng):
    # stays inside the set under rounding, also where the floored simplex is
    # a point: theta + scale * w sums to 1 only up to one ulp per coordinate
    return dset.project(random_feasible_point(dset, rng))


@pytest.mark.parametrize("dset", _PROJECTION_SETS, ids=repr)
@settings(max_examples=60)
@given(data=st.data(), scale=st.sampled_from([1e-3, 1.0, 50.0]), seed=st.integers(0, 2**32 - 1))
def test_projection_properties(dset, data, scale, seed):
    z = scale * np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=dset.dimension, max_size=dset.dimension)))
    p = dset.project(z)
    # feasible and idempotent
    assert dset.contains(p, tol=1e-12)
    assert np.abs(dset.project(p) - p).max() <= 1e-12
    # variational inequality: z - P(z) makes an obtuse angle with every w - P(z)
    rng = np.random.default_rng(seed)
    for _ in range(20):
        w = _feasible(dset, rng)
        assert (z - p) @ (w - p) <= 1e-12 * max(1.0, scale)
    # a point already inside stays put
    inside = _feasible(dset, rng)
    assert np.abs(dset.project(inside) - inside).max() <= 1e-12


# ---------------------------------------------------------------------------
# Box and Simplex kernels: the ufunc forms keep the answers of np.clip,
# np.all and ndarray.sum
# ---------------------------------------------------------------------------

_SPECIAL = (0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan)


def _box_triples():
    """Every (z, lower, upper) over the special values that Box accepts
    (no lower > upper; NaN bounds compare false, so Box takes them)."""
    return [t for t in itertools.product(_SPECIAL, repeat=3) if not t[1] > t[2]]


def test_box_project_has_the_bits_of_clip():
    z, lo, hi = (np.array(c) for c in zip(*_box_triples()))
    assert Box(lo, hi).project(z).tobytes() == np.clip(z, lo, hi).tobytes()
    rng = np.random.default_rng(7)
    for _ in range(200):
        d = int(rng.integers(1, 9))
        lo = rng.normal(size=d)
        hi = lo + rng.exponential(size=d) * (rng.random(d) < 0.7)  # some lo == hi
        z = rng.normal(scale=2.0, size=d)
        assert Box(lo, hi).project(z).tobytes() == np.clip(z, lo, hi).tobytes()


def test_box_contains_keeps_its_answers_at_the_tolerance():
    def reference(box, z, tol):
        return bool(np.all(z >= box.lower - tol) and np.all(z <= box.upper + tol))

    box = Box(np.array([-1.0, 0.0]), np.array([1.0, 0.0]))
    for tol in (0.0, 1e-9):
        edges = (-1.0 - tol, 1.0 + tol, -tol, tol)
        values = {v for e in edges for v in (e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf))}
        values |= set(_SPECIAL)
        answers = set()
        for z0, z1 in itertools.product(sorted(values, key=repr), repeat=2):
            z = np.array([z0, z1])
            answers.add(box.contains(z, tol))
            assert box.contains(z, tol) is reference(box, z, tol), (z, tol)
        assert answers == {True, False}
    for z, lo, hi in _box_triples():
        special = Box(np.array([lo]), np.array([hi]))
        assert special.contains(np.array([z])) is reference(special, np.array([z]), 1e-9)


def test_simplex_contains_keeps_its_answers_at_the_tolerance():
    def reference(dset, z, tol):
        return bool(np.all(z >= dset.theta - tol) and abs(float(z.sum()) - 1.0) <= tol)

    def around(e):
        return (np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf))

    for theta in (0.0, 0.1):
        dset = Simplex(3, theta)
        for tol in (0.0, 1e-9):
            answers = set()
            firsts = {*around(theta - tol), *around(theta), 0.5, *_SPECIAL}
            for z0, excess in itertools.product(sorted(firsts, key=repr), (-tol, 0.0, tol, 2 * tol + 1e-12)):
                for z2 in around(1.0 - z0 - 0.3 + excess):
                    z = np.array([z0, 0.3, z2])
                    answers.add(dset.contains(z, tol))
                    assert dset.contains(z, tol) is reference(dset, z, tol), (theta, tol, z)
            assert answers == {True, False}
        for special in _SPECIAL:
            z = np.array([special, 0.5, 0.5 - special])
            assert dset.contains(z) is reference(dset, z, 1e-9)


# ---------------------------------------------------------------------------
# project_simplex and the solver's norm: the ufunc forms keep the bits of
# np.sort, np.cumsum, np.nonzero and np.linalg.norm
# ---------------------------------------------------------------------------


def _project_simplex_wrapped(z):
    """project_simplex as written with numpy's wrappers."""
    z = np.asarray(z, dtype=float)
    d = z.shape[0]
    if d == 1:
        return np.ones(1)
    u = np.sort(z)[::-1]
    if not u[0] - (u[0] - 1.0) > 0:
        z, u = z - u[0], u - u[0]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, d + 1)
    cond = u - css / ks > 0
    rho = np.nonzero(cond)[0][-1]
    tau = css[rho] / (rho + 1.0)
    return np.maximum(z - tau, 0.0)


def _kernel_vectors(rng, d):
    """Random d-vectors of every kind the kernels must keep the bits of."""
    tiny = np.nextafter(0.0, 1.0)
    yield rng.normal(size=d)
    yield 50.0 * rng.normal(size=d)
    yield 1e-3 * rng.normal(size=d)
    yield rng.integers(-3, 4, size=d) / 2.0  # ties
    yield rng.choice([0.0, -0.0, 0.5, -0.5, 1.0], size=d)  # signed zeros
    yield rng.integers(-5, 6, size=d) * tiny  # subnormals
    yield np.where(rng.random(d) < 0.5, rng.integers(-5, 6, size=d) * tiny, rng.choice([0.0, -0.0, 1.0], size=d))
    yield 2.0**60 * rng.normal(size=d)  # |z| >= 2**53: the shift guard
    yield np.full(d, -3e16)


def test_project_simplex_has_the_bits_of_the_wrapped_form():
    rng = np.random.default_rng(20)
    shifted = 0
    for d in range(1, 65):
        for z in _kernel_vectors(rng, d):
            assert project_simplex(z).tobytes() == _project_simplex_wrapped(z).tobytes(), (d, z)
            top = float(z.max())
            shifted += d > 1 and not top - (top - 1.0) > 0
    assert shifted > 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=repr)
def test_project_simplex_rejects_non_finite_entries(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in ([bad, 0.2], [0.0, bad], [0.3, bad, -0.5], [bad, bad, bad]):
            with pytest.raises(ValueError, match="finite"):
                project_simplex(np.array(z))
        with pytest.raises(ValueError, match="finite"):
            Simplex(3, 0.1).project(np.array([0.2, bad, 0.1]))
    with pytest.raises(ValueError, match="finite"):
        project_simplex(np.array([np.nan, np.inf, -np.inf, 0.0]))


def test_norm_has_the_bits_of_linalg_norm():
    rng = np.random.default_rng(21)
    for d in range(1, 65):
        for v in [*_kernel_vectors(rng, d), np.zeros(d), np.full(d, 1e200)]:
            with np.errstate(over="ignore"):  # 1e200 squared overflows in both
                assert _norm(v).tobytes() == np.linalg.norm(v).tobytes(), (d, v)
