from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osp_lab import saddle_solver
from osp_lab.geometry import Box
from osp_lab.knapsack import (
    KnapsackAggregate,
    KnapsackEnvironment,
    KnapsackInstance,
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
from osp_lab.oracles import grid_knapsack_benchmark
from osp_lab.payoffs import SeparableQuadratic
from osp_lab.saddle_solver import SolverConfig, solve_saddle


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
    rx = L.restrict_x(y)
    assert abs(rx.value(x) - L.value(x, y)) < 1e-12
    ry = L.restrict_y(x)
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
    x, y = agent.step(r, c)
    agg = agent.aggregate
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


def test_monte_carlo_expectation_close_to_analytic():
    e_r, e_c = monte_carlo_expectation(Sec82Sampler(), n=200_000, seed=5)
    assert abs(e_r.a1 - 10.0) < 0.05
    assert abs(e_c[0].a2 - 3.0) < 0.05


def test_knapsack_regret_definitional():
    inst = sec82_instance(50)
    r_star = benchmark_r_star(inst)
    env = KnapsackEnvironment(inst, seed=9)
    for _ in range(50):
        env.step(np.array([0.0]))  # always the null action
    assert abs(knapsack_regret(env.state, r_star) - r_star) < 1e-12


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
        fs.append(L.restrict_x(y_t))
        gs.append(L.restrict_y(x_t))
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


def _bisection_envelope_argmin(agg, X, Y) -> float:
    """The former KnapsackAggregate.envelope_argmin: endpoint tests, then 100
    bisection steps on the sign of dphi/dx.  Kept as the reference."""
    lo, hi = float(X.lower[0]), float(X.upper[0])
    ymax = Y.upper
    ra2, ra1 = agg.r_coef[0], agg.r_coef[1]
    ca2, ca1 = agg.c_coef[:, 0], agg.c_coef[:, 1]
    tb = agg.t * agg.b_over_T
    Ht2 = 2.0 * agg.H * agg.t

    def dphi(xv: float) -> float:
        g = agg.c_coef @ np.array([xv * xv, xv, 1.0]) - tb
        if Ht2 > 0.0:
            y = np.clip(g / Ht2, 0.0, ymax)
        else:
            y = np.where(g > 0.0, ymax, 0.0)
        return -(2.0 * ra2 * xv + ra1) + Ht2 * xv + float(y @ (2.0 * ca2 * xv + ca1))

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


def _aggregate(t, H, r, rows, b_over_T):
    """Aggregate of t rounds whose per-round mean reward is r = (a2, a1) and
    mean consumptions are rows[i] = (a2, a1, a0)."""
    agg = KnapsackAggregate(len(rows), np.asarray(b_over_T, dtype=float), H)
    agg.t = t
    agg.r_coef = t * np.array([r[0], r[1], 0.0])
    agg.c_coef = t * np.asarray(rows, dtype=float)
    return agg


def _duals(ymax) -> Box:
    """The dual box prod_i [0, ymax_i]."""
    return Box(np.zeros(len(ymax)), np.array(ymax, dtype=float))


def _phi(agg, xv: float, Y) -> Fraction:
    """phi(x) = max_y of the aggregate over Y in exact rational arithmetic,
    so that rounding in the evaluation cannot rank two candidates."""
    x = Fraction(xv)
    Ht = Fraction(agg.H) * agg.t
    ra2, ra1, ra0 = (Fraction(v) for v in agg.r_coef.tolist())
    val = -(ra2 * x * x + ra1 * x + ra0) + Ht * x * x
    tb = (agg.t * agg.b_over_T).tolist()
    for (a2, a1, a0), tbi, ym in zip(agg.c_coef.tolist(), tb, Y.upper.tolist()):
        g = Fraction(a2) * x * x + Fraction(a1) * x + Fraction(a0) - Fraction(tbi)
        if Ht == 0:
            y = Fraction(ym) if g > 0 else Fraction(0)
        else:
            y = min(max(g / (2 * Ht), Fraction(0)), Fraction(ym))
        val += y * g - Ht * y * y
    return val


def _check_against_bisection(agg, X, Y) -> float:
    x_new = agg.envelope_argmin(X, Y)
    x_ref = _bisection_envelope_argmin(agg, X, Y)
    assert float(X.lower[0]) <= x_new <= float(X.upper[0])
    phi_new, phi_ref = float(_phi(agg, x_new, Y)), float(_phi(agg, x_ref, Y))
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
    assert x == alone.envelope_argmin(X, _duals(ymax[1:]))


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
    kink = Fraction(agg.t) * Fraction(agg.b_over_T[0]) / Fraction(agg.c_coef[0, 1])
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
        agent.step(out.reward_fn, out.consumption_fns)
        assert len(calls) - before == 1
        assert agent.last_gap <= agent.solver.tol_gap
    assert agent.budget_exceeded_rounds == 0


def test_knapsack_solve_rejects_infeasible_warm_start():
    inst = sec82_instance(50)
    agg = KnapsackAggregate(inst.m, inst.b / inst.T, H=0.5)
    agg.add(QuadraticFn(-1.0, 10.0, 0.0), [QuadraticFn(1.0, 50.0, 0.0), QuadraticFn(0.0, 1.0, 0.0)])
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
