"""The entropic mirror-prox kernel and its water-fill.

``payoffs.waterfill`` replaced two loops: the water-fill behind the
solver's KL prox step and the one inside ``entropy_tilted_argopt``.  Both
retired loops, and the mirror-prox kernel that called the first, are kept
here verbatim as references: the new code must reproduce them bit for bit,
on single water-fills and on whole solves.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osp_lab import payoffs, saddle_solver
from osp_lab.geometry import FeasibleSet, Simplex
from osp_lab.matrix_games import EntropyRegularizer
from osp_lab.payoffs import SumPayoff, entropy_tilted_argopt, make_bilinear, regularize, waterfill
from osp_lab.saddle_solver import SaddleSolution, SolverConfig, solve_saddle

# ---------------------------------------------------------------------------
# Retired references
# ---------------------------------------------------------------------------


def _reference_waterfill(b: np.ndarray, theta: float) -> np.ndarray:
    d = b.shape[0]
    if d == 2:
        b0, b1 = float(b[0]), float(b[1])
        tot = b0 + b1
        if tot <= 0.0:
            return np.array([0.5, 0.5])
        s0 = b0 / tot
        if s0 < theta:
            return np.array([theta, 1.0 - theta])
        if 1.0 - s0 < theta:
            return np.array([1.0 - theta, theta])
        return np.array([s0, 1.0 - s0])
    free = np.ones(d, dtype=bool)
    for _ in range(d):
        mass = 1.0 - theta * float(np.sum(~free))
        denom = float(b[free].sum())
        if denom <= 0.0:
            idx = np.flatnonzero(free)
            out = np.full(d, theta)
            out[idx[0]] += mass - theta * len(idx)
            return out
        share = b * (mass / denom)
        newly = free & (share < theta)
        if not newly.any():
            return np.where(free, share, theta)
        free &= ~newly
        if not free.any():
            return np.full(d, 1.0 / d if theta == 0.0 else theta)
    return np.where(free, share, theta)


def _reference_kl_prox(p, step_lin, step_ent, dset):
    theta = dset.theta
    a = 1.0 / (1.0 + step_ent)
    logits = a * (np.log(np.maximum(p, 1e-300)) - step_lin)
    b = np.exp(logits - logits.max())
    return _reference_waterfill(b, theta)


def _reference_entropy_tilted_argopt(g: np.ndarray, beta: float, dset: FeasibleSet) -> np.ndarray:
    if isinstance(dset, Simplex):
        d, theta = dset.d, dset.theta
    else:
        raise TypeError("entropy-tilted optimization needs a simplex-family set")
    g = np.asarray(g, dtype=float)
    if beta <= 0.0:
        _, arg = dset.maximize_linear(g)
        return arg
    b = np.exp((g - g.max()) / beta)
    free = np.ones(d, dtype=bool)
    z = np.full(d, theta)
    for _ in range(d):
        mass = 1.0 - theta * float(np.sum(~free))
        denom = float(b[free].sum())
        if denom <= 0.0:
            idx = np.flatnonzero(free)
            k = idx[int(np.argmax(g[idx]))]
            share = np.zeros(d)
            share[k] = mass - theta * (len(idx) - 1)
            share[idx] = np.maximum(share[idx], theta)
            z[free] = share[free]
            return z
        share = np.where(free, b * (mass / denom), theta)
        newly = free & (share < theta)
        if not newly.any():
            z = np.where(free, share, theta)
            return z
        free &= ~newly
        if not free.any():
            return np.full(d, 1.0 / d) if theta == 0 else np.full(d, theta)
    return np.where(free, share, theta)


def _reference_mirror_prox_entropic(f, X, Y, x, y, cfg):
    S = f.matrix
    bx = f.entropy_weight_x
    by = f.entropy_weight_y
    strongly = bx > 0 or by > 0
    L = max(float(np.abs(S).max()), 1e-12)
    gamma = 1.0 / (2.0 * L)
    sum_x = np.zeros_like(x)
    sum_y = np.zeros_like(y)
    navg = 0
    best = None
    check_at = 4
    it = 0
    scale = 2.0 + 1.0
    while it < cfg.max_iters:
        it += 1
        gx = S @ y
        gy = S.T @ x
        xh = _reference_kl_prox(x, gamma * gx, gamma * bx, X)
        yh = _reference_kl_prox(y, -gamma * gy, gamma * by, Y)
        gxh = S @ yh
        gyh = S.T @ xh
        xn = _reference_kl_prox(x, gamma * gxh, gamma * bx, X)
        yn = _reference_kl_prox(y, -gamma * gyh, gamma * by, Y)
        residual = (
            float(np.abs(x - xh).sum()) + float(np.abs(y - yh).sum())
        ) / gamma
        sum_x += xh
        sum_y += yh
        navg += 1
        x, y = xn, yn
        if it >= check_at or residual * scale <= 0.5 * cfg.tol_gap:
            if strongly:
                cx, cy = x, y
            else:
                cx, cy = sum_x / navg, sum_y / navg
            g = saddle_solver.gap_estimate(f, X, Y, cx, cy)
            cand = SaddleSolution(cx.copy(), cy.copy(), f.value(cx, cy), g, it)
            if best is None or g < best.gap:
                best = cand
            if g <= cfg.tol_gap:
                return cand
            check_at = max(check_at * 2, it + 1)
    if best is None:
        best = SaddleSolution(x.copy(), y.copy(), f.value(x, y), saddle_solver.gap_estimate(f, X, Y, x, y), it)
    best.iterations = cfg.max_iters
    return best


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# One water-fill against both references
# ---------------------------------------------------------------------------

FLOORS = ("zero", "tiny", "half", "near", "full")


def _floor(d: int, which: str) -> float:
    return {"zero": 0.0, "tiny": 1e-14, "half": 1.0 / (2 * d), "near": 1.0 / d - 1e-12, "full": 1.0 / d}[which]


def _check_kkt(z: np.ndarray, b: np.ndarray, theta: float) -> None:
    """Unit mass, floor respected, free coordinates proportional to b and
    pinned ones below the free multiplier's share."""
    assert abs(float(z.sum()) - 1.0) <= 1e-12
    assert np.all(z >= theta - 1e-15)
    free = z > theta
    if free.any():
        # the multiplier, read off a coordinate of weight max(b) = 1; the
        # absolute slack covers subnormal weights
        c = z[int(np.argmax(b))]
        assert np.all(np.abs(z[free] - c * b[free]) <= 1e-12 * z[free] + 1e-300)
        assert np.all(c * b[~free] <= theta * (1.0 + 1e-12) + 1e-300)


@settings(max_examples=300)
@given(
    d=st.sampled_from([3, 8, 64]),
    which=st.sampled_from(FLOORS),
    data=st.data(),
)
def test_waterfill_matches_retired_loops(d, which, data):
    theta = _floor(d, which)
    logits = np.array(
        data.draw(st.lists(st.floats(-700.0, 700.0), min_size=d, max_size=d)), dtype=float
    )
    beta = data.draw(st.sampled_from([0.5, 1.0, 7.0]))
    dset = Simplex(d, theta)

    b = np.exp(logits - logits.max())
    z = waterfill(b, theta)
    assert _same_bits(z, _reference_waterfill(b, theta))
    _check_kkt(z, b, theta)

    z = entropy_tilted_argopt(logits, beta, dset)
    assert _same_bits(z, _reference_entropy_tilted_argopt(logits, beta, dset))
    _check_kkt(z, np.exp((logits - logits.max()) / beta), theta)


# ---------------------------------------------------------------------------
# Whole solves against the retired kernel
# ---------------------------------------------------------------------------


def _reference_entropic_loop(f, X, Y, x, y, cfg, entropic):
    assert entropic
    return _reference_mirror_prox_entropic(f, X, Y, x, y, cfg)


def _solve_both(monkeypatch, f, X, Y, cfg):
    new = solve_saddle(f, X, Y, cfg)
    with monkeypatch.context() as m:
        m.setattr(saddle_solver, "_mirror_prox", _reference_entropic_loop)
        m.setattr(payoffs, "entropy_tilted_argopt", _reference_entropy_tilted_argopt)
        old = solve_saddle(f, X, Y, cfg)
    return new, old


def _assert_same_solution(new, old):
    assert _same_bits(new.x_star, old.x_star)
    assert _same_bits(new.y_star, old.y_star)
    assert new.gap == old.gap and new.iterations == old.iterations
    assert new.value == old.value


@pytest.mark.parametrize(
    "d,theta", [(2, 1e-3), (3, 1e-3), (3, 1.0 / 6.0), (8, 1e-14), (8, 1.0 / 16.0), (64, np.exp(-31.6))]
)
def test_warm_started_solves_match_retired_kernel(monkeypatch, d, theta):
    """OMG-RFTL's per-round solves: entropy-regularized running sums on the
    floored simplex, each warm-started at the previous round's pair; d = 2
    runs the prox step's own closed form."""
    rng = np.random.default_rng(1000 + d)
    X = Y = Simplex(d, theta)
    reg = EntropyRegularizer(d, theta)
    total = SumPayoff()
    warm = (X.uniform(), Y.uniform())
    iterative = 0
    for _ in range(6):
        A = rng.integers(0, 2, size=(d, d)) * 2.0 - 1.0
        total.add(regularize(make_bilinear(A), reg, reg, 0.2))
        cfg = SolverConfig(tol_gap=1e-6, max_iters=512, warm_start=warm)
        new, old = _solve_both(monkeypatch, total, X, Y, cfg)
        _assert_same_solution(new, old)
        iterative += new.iterations > 0
        warm = (new.x_star, new.y_star)
    assert iterative > 0


def test_cold_started_bilinear_hindsight_matches_retired_kernel(monkeypatch):
    """A hindsight solve: the pure bilinear sum over the plain simplex, from
    the uniform point, run into its iteration budget."""
    rng = np.random.default_rng(16)
    X = Y = Simplex(16)
    total = SumPayoff()
    for _ in range(40):
        total.add(make_bilinear(rng.integers(0, 2, size=(16, 16)) * 2.0 - 1.0))
    new, old = _solve_both(monkeypatch, total, X, Y, SolverConfig(tol_gap=1e-3, max_iters=300))
    _assert_same_solution(new, old)
    assert new.iterations > 0


@pytest.mark.parametrize("d,theta", [(3, 1e-3), (8, 1e-14), (64, np.exp(-31.6))])
def test_fallback_kernel_matches_retired_kernel(d, theta):
    """From d = 3 on, solve_saddle answers these sums by envelope Newton and
    pure bilinear sums by the LP, so the whole-solve comparisons above reach
    mirror-prox only at d = 2 and where a floor binds; the fallback kernel
    itself must still reproduce the retired one bit for bit."""
    rng = np.random.default_rng(2000 + d)
    X = Y = Simplex(d, theta)
    reg = EntropyRegularizer(d, theta)
    entropic, bilinear = SumPayoff(), SumPayoff()
    for _ in range(6):
        A = rng.integers(0, 2, size=(d, d)) * 2.0 - 1.0
        entropic.add(regularize(make_bilinear(A), reg, reg, 0.2))
        bilinear.add(make_bilinear(A))
    cfg = SolverConfig(tol_gap=1e-6, max_iters=256)
    for f in (entropic, bilinear):
        x0, y0 = rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(d))
        new = saddle_solver._mirror_prox(f, X, Y, x0.copy(), y0.copy(), cfg, True)
        old = _reference_mirror_prox_entropic(f, X, Y, x0.copy(), y0.copy(), cfg)
        _assert_same_solution(new, old)
        assert new.iterations > 0


# ---------------------------------------------------------------------------
# Degenerate floors: theta at and just below 1/d
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3, 8, 64])
@pytest.mark.parametrize("offset", [0.0, 1e-15])
def test_degenerate_floors(d, offset):
    theta = 1.0 / d - offset
    X = Simplex(d, theta)
    rng = np.random.default_rng(d)
    A = rng.uniform(-1.0, 1.0, size=(d, d))
    p = rng.dirichlet(np.ones(d))

    z = saddle_solver._kl_prox(np.log(p), rng.normal(size=d), 0.5, theta)
    assert X.contains(z)
    for beta in (0.0, 1e-3, 1.0):
        assert X.contains(entropy_tilted_argopt(rng.normal(size=d) * 50.0, beta, X))

    reg = EntropyRegularizer(d, theta)
    cfg = SolverConfig(tol_gap=1e-9)
    for f in (make_bilinear(A), regularize(make_bilinear(A), reg, reg, 0.5)):
        sol = solve_saddle(f, X, X, cfg)
        assert X.contains(sol.x_star) and X.contains(sol.y_star)
        assert sol.gap <= cfg.tol_gap


# ---------------------------------------------------------------------------
# negentropy: the one-pass form of a positive vector
# ---------------------------------------------------------------------------


def _masked_negentropy(z):
    pos = z > 0
    return float(np.sum(z[pos] * np.log(z[pos])))


def test_negentropy_one_pass_has_the_bits_of_the_masked_form():
    rng = np.random.default_rng(31)
    tiny = (5e-324, 2.5e-310, 2.2250738585072014e-308, 1e-300)
    for d in range(1, 65):
        for _ in range(4):
            z = rng.dirichlet(np.full(d, rng.choice([0.05, 1.0, 20.0])))
            z = np.maximum(z, 1e-300)
            subnormal = z.copy()
            subnormal[rng.integers(d, size=max(1, d // 4))] = rng.choice(tiny)
            for v in (z, subnormal, np.repeat(z, 2)[::2]):
                assert payoffs.negentropy(v).hex() == _masked_negentropy(v).hex(), (d, v)


def test_negentropy_keeps_zero_log_zero():
    assert payoffs.negentropy(np.array([0.0, 1.0])) == 0.0
    assert payoffs.negentropy(np.zeros(3)) == 0.0
    z = np.array([0.0, 0.25, 0.0, 0.75, 5e-324])
    assert payoffs.negentropy(z).hex() == _masked_negentropy(z).hex()
    assert payoffs.negentropy(z) == 0.25 * np.log(0.25) + 0.75 * np.log(0.75) + 5e-324 * np.log(5e-324)
