from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from osp_lab import knapsack, saddle_solver
from osp_lab.geometry import Box
from osp_lab.knapsack import (
    KnapsackEnvironment,
    KnapsackInstance,
    KnapsackLagrangian,
    PDRFTL,
    PDRFTLConfig,
    QuadraticFn,
    SPFTLKnapsackAgent,
    Sec82Sampler,
    benchmark_r_star,
    knapsack_regret,
    monte_carlo_expectation,
    reward_lower_bound,
    sec82_instance,
    theorem8_steps,
)
from osp_lab.metrics_harness import AlgorithmSpec, ScenarioSpec, run_single
from osp_lab.oracles import grid_knapsack_benchmark, sec82_expectation_check
from osp_lab.payoffs import SeparableQuadratic, SquaredNormRegularizer, SumPayoff, regularize
from osp_lab.saddle_solver import SolverConfig, envelope_argmin, solve_saddle

from brute_oracles import RestrictionSum


def _restrict_x(L: KnapsackLagrangian, y) -> SeparableQuadratic:
    """x -> L(x, y), by the retired ``KnapsackLagrangian.restrict_x``."""
    quad = -L.r.a2 + sum(float(y[i]) * L.c[i].a2 for i in range(len(L.c)))
    lin = -L.r.a1 + sum(float(y[i]) * L.c[i].a1 for i in range(len(L.c)))
    const = -L.r.a0 + sum(float(y[i]) * L.c[i].a0 for i in range(len(L.c))) - float(y @ L.b_over_T)
    return SeparableQuadratic(np.array([quad]), np.array([lin]), const)


def _restrict_y(L: KnapsackLagrangian, x) -> SeparableQuadratic:
    """y -> L(x, y), by the retired ``KnapsackLagrangian.restrict_y``."""
    xv = float(x[0])
    return SeparableQuadratic(np.zeros(L.b_over_T.shape[0]), np.array([ci(xv) for ci in L.c]) - L.b_over_T, -L.r(xv))


def test_lagrangian_values():
    inst = sec82_instance(100)
    r = QuadraticFn(-1.0, 10.0, 0.0)
    c = [QuadraticFn(1.0, 50.0, 0.0), QuadraticFn(0.0, 1.0, 0.0)]
    L = inst.lagrangian(r, c)
    # dual term vanishes at y = 0
    x1, y0 = np.array([1.0]), np.array([0.0, 0.0])
    assert abs(L.value(x1, y0) - (-r(1.0))) < 1e-12
    assert abs(L.value(x1, y0) - (-9.0)) < 1e-12  # a_t=1, b_t=10, x=1
    # null action: value reduces to -y . b/T
    y = np.array([0.3, 0.7])
    assert abs(L.value(np.array([0.0]), y) - (-(y @ (inst.b / inst.T)))) < 1e-12


def test_lagrangian_gradients_and_restrictions():
    inst = sec82_instance(50)
    r = QuadraticFn(-1.0, 7.0, 0.0)
    c = [QuadraticFn(4.0, 50.0, 0.0), QuadraticFn(0.0, 1.0, 0.0)]
    L = inst.lagrangian(r, c)
    x, y = np.array([2.0]), np.array([0.2, 1.5])
    gx = L.grad_x(x, y)
    assert abs(gx[0] - (-(-4.0 + 7.0) + 0.2 * (16.0 + 50.0) + 1.5 * 1.0)) < 1e-12
    gy = L.grad_y(x, y)
    assert np.allclose(gy, [16.0 + 100.0 - 200.0, 2.0 - 4.0])
    rx = _restrict_x(L, y)
    assert abs(rx.value(x) - L.value(x, y)) < 1e-12
    ry = _restrict_y(L, x)
    assert abs(ry.value(y) - L.value(x, y)) < 1e-12


def test_env_null_action_neutral():
    inst = sec82_instance(20)
    env = KnapsackEnvironment(inst, seed=1)
    for _ in range(20):
        out = env.step(np.array([0.0]))
        assert out.reward_collected == 0.0
        assert np.all(out.consumption == 0.0)
    assert env.state.cumulative_reward == 0.0
    assert np.all(env.state.cumulative_consumption == 0.0)
    assert not env.state.violated


def test_env_infinite_budget_reduces_to_unconstrained():
    inst = KnapsackInstance(
        X=Box(np.array([0.0]), np.array([20.0])),
        b=np.array([np.inf, np.inf]),
        T=30,
        sampler=Sec82Sampler(),
        y_max=np.array([0.0, 0.0]),
    )
    env = KnapsackEnvironment(inst, seed=2)
    total = 0.0
    for _ in range(30):
        out = env.step(np.array([3.0]))
        total += out.reward_value
        assert out.reward_collected == out.reward_value
    assert abs(env.state.cumulative_reward - total) < 1e-9
    assert not env.state.violated


def test_env_violation_example_and_monotonicity():
    # remaining budget (10, 10): consuming (104, 2) overruns resource 1
    inst = KnapsackInstance(
        X=Box(np.array([0.0]), np.array([20.0])),
        b=np.array([10.0, 10.0]),
        T=5,
        sampler=Sec82Sampler(),
        y_max=np.array([1.0, 1.0]),
    )
    env = KnapsackEnvironment(inst, seed=3)
    saw_violation = False
    for _ in range(5):
        out = env.step(np.array([2.0]))
        if env.state.violated:
            saw_violation = True
            assert out.reward_collected == 0.0
        if saw_violation:
            assert env.state.violated  # once true, stays true
    assert saw_violation
    # direct consumption check: c1(2) = (a*2)^2 + 50*2 >= 100 > 10
    assert env.state.cumulative_consumption[0] > 10.0


def test_env_rejects_infeasible_action():
    inst = sec82_instance(5)
    env = KnapsackEnvironment(inst, seed=4)
    with pytest.raises(ValueError):
        env.step(np.array([25.0]))


def test_instance_verifies_null_action():
    class ShiftedSampler(Sec82Sampler):
        def draw(self, rng):
            r, c = super().draw(rng)
            return QuadraticFn(r.a2, r.a1, 1.0), c  # r(0) = 1 != 0

    with pytest.raises(ValueError):
        KnapsackInstance(
            X=Box(np.array([0.0]), np.array([20.0])),
            b=np.array([100.0, 100.0]),
            T=10,
            sampler=ShiftedSampler(),
            y_max=np.array([1.0, 1.0]),
        )


def test_default_y_max_is_reward_per_unit_budget():
    inst = sec82_instance(1000)
    # max per-round reward 100 = max_x max_b (-x^2 + b x); budgets/round (200, 4)
    assert np.allclose(inst.y_max, [0.5, 25.0])


def test_pd_rftl_initialization_and_steps():
    inst = sec82_instance(10)
    agent = PDRFTL(inst.X, inst.dual_set(), PDRFTLConfig(0.5, 0.5))
    x1, y1 = agent.current_action
    assert x1[0] == 0.0 and np.all(y1 == 0.0)  # projections of the origin

    # zero gradients freeze the iterates
    zero = inst.lagrangian(
        QuadraticFn(0.0, 0.0, 0.0), [QuadraticFn(0.0, 0.0, 0.0)] * 2
    )
    frozen = PDRFTL(inst.X, inst.dual_set(), PDRFTLConfig(0.5, 0.5))
    frozen.grad_sum_y = frozen.grad_sum_y + inst.b / inst.T  # cancel the -b/T term
    # single hand-computed step: grad f = [1] on X = [0, 20], eta1 = 0.5
    hand = PDRFTL(Box(np.array([0.0]), np.array([20.0])), inst.dual_set(), PDRFTLConfig(0.5, 0.5))

    class OnePayoff:
        def grad_x(self, x, y):
            return np.array([1.0])

        def grad_y(self, x, y):
            return np.zeros(2)

    x2, _ = hand.step(OnePayoff())
    assert x2[0] == 0.0  # project([-0.5]) onto [0, 20]


def test_theorem8_steps_formulas():
    inst = sec82_instance(10_000)
    steps = theorem8_steps(inst)
    G, D_X, T = 410.0, 20.0, 10_000
    ym2 = float(np.linalg.norm(inst.y_max))
    assert abs(steps.eta1 - D_X / (G * (1 + ym2) * np.sqrt(T))) < 1e-15
    denom = float(np.linalg.norm(inst.b)) / T + np.sqrt(2 * G * D_X)
    assert abs(steps.eta2 - ym2 / (denom * np.sqrt(T))) < 1e-15


def test_spftl_knapsack_agent_defaults():
    inst = sec82_instance(64)
    agent = SPFTLKnapsackAgent(inst)
    assert abs(agent.H - 0.5) < 1e-12  # 64^(-1/6)
    with pytest.raises(ValueError):
        SPFTLKnapsackAgent(inst, H=0.0)
    # first action: saddle of the first regularized Lagrangian alone
    r = QuadraticFn(-1.0, 10.0, 0.0)
    c = [QuadraticFn(3.0, 50.0, 0.0), QuadraticFn(0.0, 1.0, 0.0)]
    x, y = agent.step(inst.lagrangian(r, c))
    agg = agent.payoff_sum
    from osp_lab.saddle_solver import gap_estimate

    assert gap_estimate(agg, inst.X, inst.dual_set(), x, y) <= 1e-6


def test_benchmark_r_star_examples():
    inst = sec82_instance(200)
    e_r, e_c = inst.sampler.expectation()
    # analytic expectations
    assert (e_r.a2, e_r.a1) == (-1.0, 10.0)
    assert (e_c[0].a2, e_c[0].a1) == (3.0, 50.0)
    assert (e_c[1].a2, e_c[1].a1) == (0.0, 1.0)
    # unconstrained optimum of E[r]: x = 5, value 25 per round
    unconstrained = KnapsackInstance(
        X=inst.X, b=np.array([1e9, 1e9]), T=200, sampler=inst.sampler,
        y_max=np.array([1.0, 1.0]),
    )
    r_unc = benchmark_r_star(unconstrained)
    assert abs(r_unc - 25.0 * 200) < 1e-5
    # binding first constraint: x* = 10/3, r* = 200T/9
    r_star = benchmark_r_star(inst)
    assert abs(r_star - 200.0 * 200 / 9.0) / (200.0 * 200 / 9.0) < 1e-9
    per_round, x_star = grid_knapsack_benchmark(e_r, e_c, inst.b / inst.T, (0.0, 20.0))
    assert abs(r_star - 200 * per_round) / abs(200 * per_round) < 1e-5
    assert abs(x_star - 10.0 / 3.0) < 1e-5


@pytest.mark.parametrize("T", [1000, 3000, 10_000, 12_345])
def test_r_star_is_exact_on_the_envelope_path(monkeypatch, T):
    # the first budget binds at x* = 10/3, where E[r] = 200/9 per round
    paths = []

    def recorded(*args):
        sol = solve_saddle(*args)
        paths.append(sol.path)
        return sol

    monkeypatch.setattr(knapsack, "solve_saddle", recorded)
    r_star = benchmark_r_star(sec82_instance(T))
    exact = T * 200 / 9
    assert paths == ["envelope"]
    assert abs(r_star - exact) <= 2 * np.spacing(exact)


def test_monte_carlo_expectation_close_to_analytic():
    e_r, e_c = monte_carlo_expectation(Sec82Sampler(), n=200_000, seed=5)
    assert abs(e_r.a1 - 10.0) < 0.05
    assert abs(e_c[0].a2 - 3.0) < 0.05


def test_sec82_expectation_check_passes_every_row():
    # E[c2](x) = x averages 10^6 copies of x, whose sample sigma is only
    # rounding noise: a mean that rounds off 10/3 fails its 3-sigma test
    for label, analytic, mc, sigma in sec82_expectation_check():
        assert abs(analytic - mc) <= 3.0 * sigma, label


def test_monte_carlo_expectation_folds_rows_in_draw_order():
    # reference: draw round by round and add each round's coefficients
    sampler, n = Sec82Sampler(), 1000
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((5, 982451653))))
    r, c = sampler.draw(rng)
    r_acc, c_acc = r.coefficients(), [ci.coefficients() for ci in c]
    for _ in range(n - 1):
        r, c = sampler.draw(rng)
        r_acc += r.coefficients()
        for acc, ci in zip(c_acc, c):
            acc += ci.coefficients()
    e_r, e_c = monte_carlo_expectation(sampler, n=n, seed=5)
    assert e_r == QuadraticFn(*(r_acc / n))
    assert e_c == [QuadraticFn(*(acc / n)) for acc in c_acc]


def test_knapsack_regret_definitional():
    inst = sec82_instance(50)
    r_star = benchmark_r_star(inst)
    env = KnapsackEnvironment(inst, seed=9)
    for _ in range(50):
        env.step(np.array([0.0]))  # always the null action
    assert abs(knapsack_regret(env.state.cumulative_reward, r_star) - r_star) < 1e-12


def test_reward_lower_bound_holds_on_traces():
    inst = sec82_instance(120)
    for seed in range(4):
        env = KnapsackEnvironment(inst, seed=seed)
        rng = np.random.default_rng(seed)
        rewards, cons = [], []
        for _ in range(120):
            x = np.array([rng.uniform(0.0, 6.0)])
            out = env.step(x)
            rewards.append(out.reward_value)
            cons.append(out.consumption)
        lb = reward_lower_bound(np.asarray(rewards), np.asarray(cons), inst)
        assert env.state.cumulative_reward >= lb - 1e-9


def test_rftl_component_regret_bound():
    # each embedded no-regret update obeys 2*eta*G^2*T + D^2/eta
    inst = sec82_instance(300)
    steps = theorem8_steps(inst)
    env = KnapsackEnvironment(inst, seed=11)
    agent = PDRFTL(inst.X, inst.dual_set(), steps)
    fs, gs, xs, ys = [], [], [], []
    for _ in range(300):
        x_t, y_t = agent.current_action
        out = env.step(x_t)
        L = inst.lagrangian(out.reward_fn, out.consumption_fns)
        xs.append(x_t)
        ys.append(y_t)
        fs.append(_restrict_x(L, y_t))
        gs.append(_restrict_y(L, x_t))
        agent.step(L)
    # realized linearized losses vs best fixed points
    f_acc = SeparableQuadratic(np.zeros(1), np.zeros(1), 0.0)
    g_acc = SeparableQuadratic(np.zeros(2), np.zeros(2), 0.0)
    f_realized = 0.0
    g_realized = 0.0
    for x_t, y_t, fr, gr in zip(xs, ys, fs, gs):
        f_realized += fr.value(x_t)
        g_realized += gr.value(y_t)
        f_acc = SeparableQuadratic(f_acc.quad + fr.quad, f_acc.lin + fr.lin, f_acc.const + fr.const)
        g_acc = SeparableQuadratic(g_acc.quad + gr.quad, g_acc.lin + gr.lin, g_acc.const + gr.const)
    T = 300
    G = inst.lipschitz_G()
    G_f = G * (1.0 + float(np.abs(inst.y_max).sum()))
    G_g = float(np.linalg.norm(inst.b)) / inst.T + np.sqrt(inst.m * G * inst.X.diameter())
    bound_f = 2 * steps.eta1 * G_f**2 * T + inst.X.diameter() ** 2 / steps.eta1
    bound_g = 2 * steps.eta2 * G_g**2 * T + inst.dual_set().diameter() ** 2 / steps.eta2
    assert f_realized - f_acc.minimize_over(inst.X)[0] <= bound_f
    assert g_acc.maximize_over(inst.dual_set())[0] - g_realized <= bound_g


# ---------------------------------------------------------------------------
# Exact envelope root against the retired bisection
# ---------------------------------------------------------------------------


def _bisection_envelope_argmin(rows, X, Y) -> float:
    """The former KnapsackAggregate.envelope_argmin, on coefficient rows:
    endpoint tests, then 100 bisection steps on the sign of dphi/dx.  Kept
    as the reference."""
    lo, hi = float(X.lower[0]), float(X.upper[0])
    ymax = Y.upper
    p, G, h = rows

    def dphi(xv: float) -> float:
        g = G @ np.array([xv * xv, xv, 1.0])
        if h > 0.0:
            y = np.clip(g / (2.0 * h), 0.0, ymax)
        else:
            y = np.where(g > 0.0, ymax, 0.0)
        return 2.0 * p[0] * xv + p[1] + float(y @ (2.0 * G[:, 0] * xv + G[:, 1]))

    if dphi(lo) >= 0.0:
        return lo
    if dphi(hi) <= 0.0:
        return hi
    a, b = lo, hi
    for _ in range(100):
        mid = 0.5 * (a + b)
        if dphi(mid) > 0.0:
            b = mid
        else:
            a = mid
    return 0.5 * (a + b)


def _aggregate(t, H, r, rows, b_over_T) -> SumPayoff:
    """The running sum of t rounds whose per-round mean reward is
    r = (a2, a1) and mean consumptions are rows[i] = (a2, a1, a0), each
    regularized by H x^2 - H ||y||^2: one Lagrangian of the summed
    coefficients with the regularizer weight H*t."""
    L = KnapsackLagrangian(
        QuadraticFn(*(t * np.array([r[0], r[1], 0.0]))),
        [QuadraticFn(*row) for row in t * np.asarray(rows, dtype=float)],
        t * np.asarray(b_over_T, dtype=float),
    )
    reg = SquaredNormRegularizer(1.0)
    agg = SumPayoff()
    agg.add(regularize(L, reg, reg, H * t) if H > 0.0 else L)
    return agg


def _duals(ymax) -> Box:
    """The dual box prod_i [0, ymax_i]."""
    return Box(np.zeros(len(ymax)), np.array(ymax, dtype=float))


def _phi(rows, xv: float, Y) -> Fraction:
    """phi(x) = max_y of the rows' payoff over Y in exact rational
    arithmetic, so that rounding in the evaluation cannot rank two
    candidates."""
    x = Fraction(xv)
    p, G, h = rows
    h = Fraction(h)
    p2, p1, p0 = (Fraction(v) for v in p.tolist())
    val = p2 * x * x + p1 * x + p0
    for (a2, a1, a0), ym in zip(G.tolist(), Y.upper.tolist()):
        g = Fraction(a2) * x * x + Fraction(a1) * x + Fraction(a0)
        if h == 0:
            y = Fraction(ym) if g > 0 else Fraction(0)
        else:
            y = min(max(g / (2 * h), Fraction(0)), Fraction(ym))
        val += y * g - h * y * y
    return val


def _check_against_bisection(agg, X, Y) -> float:
    rows = agg.envelope_rows()
    x_new = envelope_argmin(*rows, X, Y)
    x_ref = _bisection_envelope_argmin(rows, X, Y)
    assert float(X.lower[0]) <= x_new <= float(X.upper[0])
    phi_new, phi_ref = float(_phi(rows, x_new, Y)), float(_phi(rows, x_ref, Y))
    assert phi_new <= phi_ref + 1e-12 * (1.0 + abs(phi_ref))
    assert abs(x_new - x_ref) <= 1e-9 * (1.0 + abs(x_ref))
    return x_new


# Per-round mean coefficients: concave rewards, convex nonnegative
# consumptions, nonnegative budgets.  A positive H below 1e-3 would only
# overflow the reference's g/(2Ht).
_H = st.just(0.0) | st.floats(1e-3, 2.0)
_T = st.integers(1, 10_000)


@st.composite
def _consumption(draw, lo, hi, zero_budget=None):
    """((a2, a1, a0), b_i/T, ymax_i) for one resource on X = [lo, hi]."""
    coef = (draw(st.floats(0.0, 5.0)), draw(st.floats(0.0, 60.0)), draw(st.floats(0.0, 5.0)))
    if zero_budget is None:
        zero_budget = draw(st.integers(0, 3)) == 0
    if zero_budget:
        return coef, 0.0, 0.0
    # the budget binds where consumption reaches it: at xb, or nowhere on X
    xb = lo + draw(st.floats(0.0, 1.2)) * (hi - lo)
    return coef, coef[0] * xb * xb + coef[1] * xb + coef[2], draw(st.floats(0.1, 50.0))


@settings(max_examples=400)
@given(
    m=st.integers(1, 3),
    H=_H,
    t=_T,
    lo=st.floats(0.0, 5.0),
    width=st.floats(0.1, 20.0),
    ra2=st.floats(-2.0, 0.0),
    peak=st.floats(0.0, 1.0),
    push=st.floats(0.0, 20.0),
    data=st.data(),
)
def test_envelope_argmin_matches_bisection(m, H, t, lo, width, ra2, peak, push, data):
    # without duals, phi would fall up to lo + peak*width, or all the way
    # to hi when H = ra2 = 0; the budgets then bind on the way there
    hi = lo + width
    ra1 = (2.0 * H - 2.0 * ra2) * (lo + peak * width) + push
    cons = [data.draw(_consumption(lo, hi)) for _ in range(m)]
    agg = _aggregate(t, H, (ra2, ra1), [c[0] for c in cons], [c[1] for c in cons])
    X = Box(np.array([lo]), np.array([hi]))
    Y = _duals([c[2] for c in cons])
    _check_against_bisection(agg, X, Y)


@given(H=_H, t=_T, ra1=st.floats(-20.0, 40.0), other=_consumption(0.0, 20.0, zero_budget=False))
def test_envelope_argmin_zero_budget(H, t, ra1, other):
    # resource 0 has b_0 = 0 and so y_max_0 = 0: its dual is pinned at 0
    rows, b, ymax = [(1.0, 10.0, 0.0), other[0]], [0.0, other[1]], [0.0, other[2]]
    agg = _aggregate(t, H, (-1.0, ra1), rows, b)
    X = Box(np.array([0.0]), np.array([20.0]))
    Y = _duals(ymax)
    x = _check_against_bisection(agg, X, Y)
    alone = _aggregate(t, H, (-1.0, ra1), rows[1:], b[1:])
    assert x == envelope_argmin(*alone.envelope_rows(), X, _duals(ymax[1:]))


@given(H=_H, t=_T, ra2=st.floats(-2.0, 0.0), push=st.floats(0.1, 50.0), other=_consumption(1.0, 20.0))
def test_envelope_argmin_at_lower_end(H, t, ra2, push, other):
    # -R' > 0 at lo and every dual term is nonnegative: phi increases on X
    lo = 1.0
    agg = _aggregate(t, H, (ra2, -push), [other[0]], [other[1]])
    X = Box(np.array([lo]), np.array([20.0]))
    assert _check_against_bisection(agg, X, _duals([other[2]])) == lo


@given(H=_H, t=_T, ra2=st.floats(-2.0, 0.0), push=st.floats(0.1, 50.0), cons=_consumption(0.0, 10.0))
def test_envelope_argmin_at_upper_end(H, t, ra2, push, cons):
    # budgets above every consumption on X keep y = 0, and dphi(hi) < 0
    hi = 10.0
    (a2, a1, a0), _, ym = cons
    b = a2 * hi * hi + a1 * hi + a0 + 1.0
    agg = _aggregate(t, H, (ra2, (2.0 * H - 2.0 * ra2) * hi + push), [(a2, a1, a0)], [b])
    X = Box(np.array([0.0]), np.array([hi]))
    assert _check_against_bisection(agg, X, _duals([ym])) == hi


@given(
    t=_T,
    kink=st.floats(0.5, 19.5),
    a2=st.floats(0.0, 5.0),
    a1=st.floats(0.1, 60.0),
    ym=st.floats(0.1, 50.0),
    ra2=st.floats(-2.0, 0.0),
    frac=st.floats(0.05, 0.95),
    slack=st.floats(1.0, 300.0),
)
def test_envelope_argmin_at_kink(t, kink, a2, a1, ym, ra2, frac, slack):
    # H = 0: the budget binds at `kink`, where dphi jumps from
    # -R'(kink) < 0 to -R'(kink) + ym*C'(kink) > 0
    slope = -frac * ym * (2.0 * a2 * kink + a1)  # -R'(kink)
    ra1 = -slope - 2.0 * ra2 * kink
    rows = [(a2, a1, 0.0), (0.0, 1.0, 0.0)]
    b = [a2 * kink * kink + a1 * kink, 20.0 + slack]  # resource 1 never binds
    agg = _aggregate(t, 0.0, (ra2, ra1), rows, b)
    X = Box(np.array([0.0]), np.array([20.0]))
    x = _check_against_bisection(agg, X, _duals([ym, 1.0]))
    assert abs(x - kink) <= 1e-12 * (1.0 + kink)


def test_envelope_argmin_kink_root_rounded_past():
    # H = 0: the float root of g = 0 rounds past the exact kink, where phi
    # already climbs at slope ~2e5; the minimizer is the float below it
    rows, b = [(0.0, 33.310474670970876, 0.0)], [69.35344921729484]
    agg = _aggregate(5733, 0.0, (0.0, 0.001953125), rows, b)
    X, Y = Box(np.array([0.0]), np.array([10.25])), _duals([1.0])
    x = _check_against_bisection(agg, X, Y)
    _, G, _ = agg.envelope_rows()
    kink = -Fraction(G[0, 2]) / Fraction(G[0, 1])
    assert Fraction(x) <= kink


# ---------------------------------------------------------------------------
# One certificate per SP-FTL knapsack round
# ---------------------------------------------------------------------------


def test_spftl_knapsack_round_certifies_once(monkeypatch):
    calls = []
    real = saddle_solver.gap_estimate

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(saddle_solver, "gap_estimate", counted)
    T = 200
    inst = sec82_instance(T)
    agent = SPFTLKnapsackAgent(inst)
    env = KnapsackEnvironment(inst, seed=3)
    for _ in range(T):
        out = env.step(agent.current_action[0])
        before = len(calls)
        agent.step(inst.lagrangian(out.reward_fn, out.consumption_fns))
        assert len(calls) - before == 1
        assert agent.last_gap <= agent.config.solver.tol_gap
    assert agent.budget_exceeded_rounds == 0


def test_knapsack_solve_rejects_infeasible_warm_start():
    inst = sec82_instance(50)
    agg = SumPayoff()
    r = QuadraticFn(-1.0, 10.0, 0.0)
    reg = SquaredNormRegularizer(1.0)
    agg.add(regularize(inst.lagrangian(r, [QuadraticFn(1.0, 50.0, 0.0), QuadraticFn(0.0, 1.0, 0.0)]), reg, reg, 0.5))
    Y = inst.dual_set()
    for warm in ((np.array([-1.0]), np.zeros(2)), (np.array([1.0]), Y.upper + 1.0)):
        with pytest.raises(ValueError):
            solve_saddle(agg, inst.X, Y, SolverConfig(warm_start=warm))


# ---------------------------------------------------------------------------
# OGDA on the knapsack Lagrangian
# ---------------------------------------------------------------------------


def test_ogda_knapsack_steps_each_block_with_its_own_size():
    # budgets that bind within the horizon, so the dual block moves too
    T, seed, budgets = 200, 11, (0.5, 0.5)
    spec = ScenarioSpec("ocowk_sec8", T=T, seed=3, params={"budgets_per_round": budgets})
    run = run_single(spec, AlgorithmSpec("ogda_knapsack"), seed)
    inst = sec82_instance(T, budgets)
    steps = theorem8_steps(inst)
    eta1, eta2 = steps.eta1, steps.eta2
    assert eta1 != eta2
    # x <- clip(x - eta1 * grad_x L), y <- clip(y + eta2 * grad_y L), from the null action
    env = KnapsackEnvironment(inst, seed)
    x, y = np.zeros(1), np.zeros(inst.m)
    for t in range(T):
        assert run.trace.xs[t].tobytes() == x.tobytes()
        assert run.trace.ys[t].tobytes() == y.tobytes()
        out = env.step(x)
        L = inst.lagrangian(out.reward_fn, out.consumption_fns)
        x, y = (
            np.clip(x - eta1 * L.grad_x(x, y), inst.X.lower, inst.X.upper),
            np.clip(y + eta2 * L.grad_y(x, y), 0.0, inst.y_max),
        )
    assert np.sum(run.trace.ys[:, 0] > 0.0) >= 100


# ---------------------------------------------------------------------------
# Whole-run streams and the one budget rule
# ---------------------------------------------------------------------------


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 300))
@example(seed=0, n=0)
@example(seed=5, n=1)
@example(seed=77770001, n=300)
def test_batched_draw_equals_per_round_draws(seed, n):
    sampler = Sec82Sampler()
    R, C = sampler.draw_coefficients(np.random.default_rng(seed), n)
    assert R.shape == (n, 3) and C.shape == (n, sampler.m, 3)
    one_by_one = np.random.default_rng(seed)
    scalar = np.random.default_rng(seed)
    for t in range(n):
        r, c = sampler.draw(one_by_one)
        assert r.coefficients().tobytes() == R[t].tobytes()
        assert np.array([ci.coefficients() for ci in c]).tobytes() == C[t].tobytes()
        # the stream order: one b, then one a, per round
        b, a = scalar.uniform(0.0, 20.0), scalar.uniform(0.0, 3.0)
        assert (R[t, 1], C[t, 0, 0]) == (b, a * a)


def _budget_instance(T: int, b, y_max=None) -> KnapsackInstance:
    return KnapsackInstance(
        X=Box(np.array([0.0]), np.array([20.0])),
        b=np.asarray(b, dtype=float),
        T=T,
        sampler=Sec82Sampler(),
        y_max=y_max,
    )


def _settle_and_step(inst: KnapsackInstance, seed: int, xs: np.ndarray, cut: int):
    """Settle xs in two blocks split at `cut`, and step it round by round on
    a second environment with the same seed; both must agree bit for bit."""
    blocks = KnapsackEnvironment(inst, seed)
    parts = [blocks.settle(xs[:cut]), blocks.settle(xs[cut:])]
    steps = KnapsackEnvironment(inst, seed)
    outs = [steps.step(x) for x in xs]
    rewards = np.concatenate([p.rewards for p in parts])
    assert rewards.tobytes() == np.array([o.reward_value for o in outs]).tobytes()
    collected = np.concatenate([p.collected for p in parts])
    assert collected.tobytes() == np.array([o.reward_collected for o in outs]).tobytes()
    cons = np.concatenate([p.consumptions for p in parts])
    assert cons.tobytes() == np.array([o.consumption for o in outs]).tobytes()
    for t, o in enumerate(outs):
        r, c = blocks.functions(t)
        assert (r, c) == (o.reward_fn, o.consumption_fns)
    a, b = blocks.state, steps.state
    assert a.cumulative_consumption.tobytes() == b.cumulative_consumption.tobytes()
    assert (a.cumulative_reward, a.violated, a.round) == (b.cumulative_reward, b.violated, b.round)
    return np.concatenate([p.violated for p in parts]), collected, rewards


_ACTIONS = st.lists(st.floats(0.0, 20.0), min_size=1, max_size=60)


@given(
    xs=_ACTIONS,
    b=st.tuples(st.floats(0.0, 2000.0), st.floats(0.0, 200.0)),
    seed=st.integers(0, 99),
    cut=st.integers(0, 60),
)
@example(xs=[2.0] * 5, b=(10.0, 10.0), seed=3, cut=2)
@example(xs=[0.0] * 8, b=(0.0, 0.0), seed=1, cut=0)
def test_settle_blocks_equal_steps(xs, b, seed, cut):
    xs = np.array(xs)[:, None]
    # settling never reads y_max, and the default one of a budget with a
    # subnormal b/T is infinite, which the instance rejects
    inst = _budget_instance(len(xs), b, y_max=(1.0, 1.0))
    violated, collected, rewards = _settle_and_step(inst, seed, xs, min(cut, len(xs)))
    assert np.all(violated[1:] >= violated[:-1])
    assert np.all(collected == np.where(violated, 0.0, rewards))


def test_instance_rejects_a_non_finite_or_negative_y_max():
    # b/T subnormal: the default bound r_max / (b/T) overflows to inf
    with pytest.raises(ValueError, match="y_max"):
        _budget_instance(10, (1e-310, 1.0))
    for y_max in ((np.inf, 1.0), (np.nan, 1.0), (1.0, -1.0)):
        with pytest.raises(ValueError, match="y_max"):
            _budget_instance(10, (1.0, 1.0), y_max=y_max)
    assert np.all(np.isfinite(_budget_instance(10, (1e-300, 0.0)).y_max))


def test_settle_last_round_crossing_by_a_small_margin():
    # the budget of resource 1 is crossed only by the last round, by 1e-9
    T, seed, x = 40, 7, np.full((40, 1), 3.0)
    probe = KnapsackEnvironment(_budget_instance(T, (np.inf, np.inf), y_max=(0.0, 0.0)), seed)
    total = probe.settle(x).cumulative_consumption[-1]
    inst = _budget_instance(T, (total[0] - 1e-9, np.inf), y_max=(1.0, 0.0))
    violated, collected, rewards = _settle_and_step(inst, seed, x, T // 2)
    assert not violated[:-1].any() and violated[-1]
    assert collected[-1] == 0.0 and collected[:-1].tobytes() == rewards[:-1].tobytes()


def test_settle_without_budgets_and_with_the_null_action():
    T, seed = 25, 4
    xs = np.random.default_rng(0).uniform(0.0, 20.0, size=(T, 1))
    free = _budget_instance(T, (np.inf, np.inf), y_max=(0.0, 0.0))
    violated, collected, rewards = _settle_and_step(free, seed, xs, 10)
    assert not violated.any() and collected.tobytes() == rewards.tobytes()
    tight = _budget_instance(T, (0.0, 0.0))
    violated, collected, _ = _settle_and_step(tight, seed, np.zeros((T, 1)), 0)
    assert not violated.any() and np.all(collected == 0.0)


def test_settle_rejects_infeasible_actions_and_the_end_of_the_horizon():
    inst = sec82_instance(6)
    env = KnapsackEnvironment(inst, seed=2)
    for bad in (np.array([[1.0], [25.0]]), np.array([[1.0], [np.nan]]), np.ones((2, 2)), np.ones(2)):
        with pytest.raises(ValueError):
            env.settle(bad)
    assert env.state.round == 0
    env.settle(np.ones((6, 1)))
    with pytest.raises(ValueError):
        env.step(np.ones(1))


@pytest.mark.parametrize("emit_series", [False, True])
@pytest.mark.parametrize(
    "name, budgets",
    # binding budgets; at (50, 0.5) both duals of SP-FTL are positive, so
    # every y . v adds two nonzero products
    [("pd_rftl", (0.5, 0.5)), ("spftl_knapsack", (0.5, 0.5)), ("spftl_knapsack", (50.0, 0.5))],
)
def test_ocowk_run_matches_a_hand_loop_over_steps(name, budgets, emit_series):
    # the harness settles the budget after the run; this reference steps the
    # environment and folds every accumulator round by round
    T, seed = 200, 5
    spec = ScenarioSpec("ocowk_sec8", T=T, seed=3, params={"budgets_per_round": budgets})
    run = run_single(spec, AlgorithmSpec(name), seed, emit_series=emit_series)
    inst = sec82_instance(T, budgets)
    X, Y = inst.X, inst.dual_set()
    solver = SolverConfig(tol_gap=1e-6, max_iters=50_000)
    if name == "pd_rftl":
        agent = PDRFTL(X, Y, theorem8_steps(inst))
    else:
        agent = SPFTLKnapsackAgent(inst, H=T ** (-1.0 / 6.0), solver=solver)
    env = KnapsackEnvironment(inst, seed)
    raw_sum = SumPayoff()
    acc_x, acc_y = RestrictionSum(), RestrictionSum()
    cols = {
        k: []
        for k in ("xs", "ys", "payoff_values", "solver_gaps", "reward_values",
                  "rewards_collected", "consumptions", "violated_flags")
    }
    series = {
        k: []
        for k in ("t", "cum_payoff", "cum_sp_regret", "cum_ind_x", "cum_ind_y", "cum_reward", "violated",
                  "budget_frac_1", "budget_frac_2")
    }
    for t in range(T):
        x_t, y_t = agent.current_action
        out = env.step(x_t)
        L = inst.lagrangian(out.reward_fn, out.consumption_fns)
        raw_sum.add(L)
        acc_x.add(_restrict_x(L, y_t))
        acc_y.add(_restrict_y(L, x_t))
        agent.step(L)
        st = env.state
        row = (x_t, y_t, L.value(x_t, y_t), agent.last_gap, out.reward_value, out.reward_collected,
               out.consumption, st.violated)
        for col, v in zip(cols.values(), row):
            col.append(v)
        cum = float(np.sum(cols["payoff_values"]))
        row = (
            t + 1,
            cum,
            abs(cum - solve_saddle(raw_sum, X, Y, solver).value),
            cum - acc_x.minimize(X),
            acc_y.maximize(Y) - cum,
            st.cumulative_reward,
            float(st.violated),
            *(st.cumulative_consumption / inst.b),
        )
        for col, v in zip(series.values(), row):
            col.append(v)
    assert env.state.violated  # the budgets bind
    for k, v in cols.items():
        got, want = getattr(run.trace, k), np.asarray(v)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), k
    realized = float(np.sum(cols["payoff_values"]))
    hindsight = SolverConfig(tol_gap=1e-6, max_iters=200_000, warm_start=agent.current_action)
    hv = solve_saddle(raw_sum, X, Y, hindsight).value
    rep = run.report
    assert rep.hindsight_value == hv and rep.sp_regret == abs(realized - hv)
    assert rep.ind_regret_x == realized - acc_x.minimize(X)
    assert rep.ind_regret_y == acc_y.maximize(Y) - realized == rep.extras["dagger"]
    assert rep.extras["cumulative_reward"] == env.state.cumulative_reward
    assert rep.extras["violated"] is True
    lb = reward_lower_bound(np.asarray(cols["reward_values"]), np.asarray(cols["consumptions"]), inst)
    assert rep.extras["reward_lower_bound"] == lb
    if not emit_series:
        assert rep.per_round_series is None
        return
    assert list(rep.per_round_series) == list(series)
    for k, v in series.items():
        got, want = rep.per_round_series[k], np.asarray(v)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), k
