import numpy as np
import pytest

from osp_lab import knapsack, metrics_harness
from osp_lab.geometry import Box, Simplex
from osp_lab.knapsack import benchmark_r_star, sec82_instance
from osp_lab.metrics_harness import (
    AlgorithmSpec,
    IncompatiblePairingError,
    RoundTrace,
    ScenarioSpec,
    generate_scenario,
    resolve_parameters,
    run_experiment,
    run_single,
)
from osp_lab.payoffs import make_bilinear, make_quadratic_bilinear
from osp_lab.saddle_solver import SolverConfig, solve_saddle

from brute_oracles import assemble_sum, compute_individual_regrets, compute_sp_regret

MP = np.array([[1.0, -1.0], [-1.0, 1.0]])
BOX1 = Box(np.array([-1.0]), np.array([1.0]))


def _trace(xs, ys, vals):
    return RoundTrace(
        xs=np.asarray(xs, dtype=float),
        ys=np.asarray(ys, dtype=float),
        payoff_values=np.asarray(vals, dtype=float),
    )


def test_sp_regret_at_hindsight_saddle_is_zero():
    f = make_quadratic_bilinear(1.0, 1.0, 2.0, -1.0)
    history = [f] * 10
    trace = _trace([[1.5]] * 10, [[0.5]] * 10, [f.value(np.array([1.5]), np.array([0.5]))] * 10)
    box = Box(np.array([-10.0]), np.array([10.0]))
    assert compute_sp_regret(trace, history, box, box) < 1e-7


def test_sp_regret_uniform_play_on_theorem6_scenario1():
    history = [make_bilinear(MP)] * 4 + [make_bilinear(np.zeros((2, 2)))] * 4
    u = [[0.5, 0.5]] * 8
    trace = _trace(u, u, [0.0] * 8)
    assert compute_sp_regret(trace, history, Simplex(2), Simplex(2)) < 1e-10


def test_sp_regret_constant_play_quadratic():
    # value of the saddle per round is -0.25; playing (0,0) earns L(0,0) = -2.5
    f = make_quadratic_bilinear(1.0, 1.0, 2.0, -1.0)
    T = 6
    v0 = f.value(np.array([0.0]), np.array([0.0]))
    trace = _trace([[0.0]] * T, [[0.0]] * T, [v0] * T)
    box = Box(np.array([-10.0]), np.array([10.0]))
    expected = abs(T * v0 - T * (-0.25))
    assert abs(compute_sp_regret(trace, [f] * T, box, box) - expected) < 1e-7


def test_individual_regrets_single_round_example():
    # L = xy on [-1,1]^2, play (1,1): Ind_x = 1 - (-1) = 2, Ind_y = 1 - 1 = 0
    f = make_quadratic_bilinear(1.0, 0.0, 0.0, 0.0, 1.0, 1.0)
    trace = _trace([[1.0]], [[1.0]], [1.0])
    ind_x, ind_y = compute_individual_regrets(trace, [f], BOX1, BOX1)
    assert abs(ind_x - 2.0) < 1e-12
    assert abs(ind_y - 0.0) < 1e-12


def test_individual_regrets_at_saddle_nonpositive():
    f = make_quadratic_bilinear(1.0, 1.0, 2.0, -1.0)
    T = 5
    trace = _trace([[1.5]] * T, [[0.5]] * T, [f.value(np.array([1.5]), np.array([0.5]))] * T)
    box = Box(np.array([-10.0]), np.array([10.0]))
    ind_x, ind_y = compute_individual_regrets(trace, [f] * T, box, box)
    assert ind_x <= 1e-9 and ind_y <= 1e-9


def test_saddle_inequality_sanity():
    rng = np.random.default_rng(2)
    suite = [
        make_quadratic_bilinear(1.0, 1.0, rng.uniform(-1, 1), rng.uniform(-1, 1), 1.0, 1.0)
        for _ in range(7)
    ]
    total = assemble_sum(suite)
    sol = solve_saddle(total, BOX1, BOX1, SolverConfig(tol_gap=1e-11))
    v = sol.value
    for _ in range(100):
        x = np.array([rng.uniform(-1, 1)])
        y = np.array([rng.uniform(-1, 1)])
        assert total.value(sol.x_star, y) <= v + 1e-7
        assert total.value(x, sol.y_star) >= v - 1e-7


def test_generate_scenario_theorem6_structure():
    spec = ScenarioSpec("theorem6_scenario1", T=8)
    scen = generate_scenario(spec)
    mats = [f.A for f in scen.payoffs(0)]
    assert np.allclose(mats[3], MP)
    assert np.allclose(mats[4], 0.0)  # zero matrix after the switch
    spec2 = ScenarioSpec("theorem6_scenario2", T=8)
    mats2 = [f.A for f in generate_scenario(spec2).payoffs(0)]
    assert np.allclose(mats2[7], [[1, -1], [1, -1]])
    with pytest.raises(ValueError):
        generate_scenario(ScenarioSpec("theorem6_scenario1", T=7))


def test_generate_scenario_sec8_parameters():
    scen = generate_scenario(ScenarioSpec("sec8_instance1", T=9))
    payoffs = list(scen.payoffs(0))
    # prefix: coupling 1, convex center 2, concave center -1
    assert payoffs[0].cxy == 1.0
    assert payoffs[0].cx1 == -2.0  # -h*p with p=2
    assert payoffs[2].cy1 == -1.0  # h*q with q=-1
    # suffix switches at floor(T/3) = 3
    assert payoffs[3].cx1 == 1.0  # p = -1
    scen2 = generate_scenario(ScenarioSpec("sec8_instance2", T=9))
    p2 = list(scen2.payoffs(0))
    assert p2[3].cy1 == 3.0  # q = +3


def test_generate_scenario_streams_deterministic():
    spec = ScenarioSpec("ocowk_sec8", T=50, seed=4)
    scen = generate_scenario(spec)
    from osp_lab.knapsack import KnapsackEnvironment

    draws1 = KnapsackEnvironment(scen.instance, seed=3)
    draws2 = KnapsackEnvironment(scen.instance, seed=3)
    for _ in range(10):
        a = draws1.step(np.array([1.0]))
        b = draws2.step(np.array([1.0]))
        assert a.reward_fn.a1 == b.reward_fn.a1
        assert a.consumption_fns[0].a2 == b.consumption_fns[0].a2

    spec_iid = ScenarioSpec("iid_quadratic", T=5, seed=8)
    s1 = [f.cx1 for f in generate_scenario(spec_iid).payoffs(0)]
    s2 = [f.cx1 for f in generate_scenario(spec_iid).payoffs(0)]
    s3 = [f.cx1 for f in generate_scenario(spec_iid).payoffs(1)]
    assert s1 == s2 and s1 != s3


def test_incompatible_pairings_rejected():
    scen = generate_scenario(ScenarioSpec("iid_quadratic", T=4))
    with pytest.raises(IncompatiblePairingError):
        resolve_parameters(scen, AlgorithmSpec("pd_rftl"))
    with pytest.raises(IncompatiblePairingError):
        resolve_parameters(scen, AlgorithmSpec("bandit_omg_rftl"))
    ocowk = generate_scenario(ScenarioSpec("ocowk_sec8", T=4))
    with pytest.raises(IncompatiblePairingError):
        resolve_parameters(ocowk, AlgorithmSpec("spftl"))


def test_run_experiment_smoke_and_metric_consistency():
    res = run_experiment(
        ScenarioSpec("iid_quadratic", T=60, seed=1),
        AlgorithmSpec("spftl"),
        seeds=[0, 1],
        workers=1,
    )
    assert res.summary["seed_count"] == 2
    for run in res.runs:
        # report matches a recomputation from the stored raw values
        assert abs(
            abs(run.trace.payoff_values.sum() - run.report.hindsight_value)
            - run.report.sp_regret
        ) < 1e-9


@pytest.mark.parametrize("seeds", [[], range(0), iter(())])
def test_run_experiment_refuses_an_empty_seed_list(seeds):
    # the summary of no runs would be the NaN mean of an empty slice
    with pytest.raises(ValueError, match="seeds"):
        run_experiment(ScenarioSpec("iid_quadratic", T=5, seed=0), AlgorithmSpec("spftl"), seeds=seeds, workers=1)


def test_run_experiment_matches_post_hoc_metrics():
    spec = ScenarioSpec("iid_quadratic", T=40, seed=6)
    res = run_experiment(spec, AlgorithmSpec("spftl"), seeds=[0], workers=1)
    run = res.runs[0]
    scen = generate_scenario(spec)
    history = list(scen.payoffs(0))
    sp = compute_sp_regret(run.trace, history, scen.X, scen.Y, SolverConfig(tol_gap=1e-9))
    ind_x, ind_y = compute_individual_regrets(run.trace, history, scen.X, scen.Y)
    assert abs(sp - run.report.sp_regret) < 1e-5
    assert abs(ind_x - run.report.ind_regret_x) < 1e-7
    assert abs(ind_y - run.report.ind_regret_y) < 1e-7


def test_series_emission():
    res = run_experiment(
        ScenarioSpec("iid_quadratic", T=12, seed=2),
        AlgorithmSpec("spftl"),
        seeds=[0],
        workers=1,
        emit_series=True,
    )
    series = res.runs[0].report.per_round_series
    assert len(series["t"]) == 12
    assert series["t"][-1] == 12
    # the series and the final report agree at the last round
    assert abs(series["cum_sp_regret"][-1] - res.runs[0].report.sp_regret) < 1e-6


def test_ocowk_series_columns():
    res = run_experiment(
        ScenarioSpec("ocowk_sec8", T=10, seed=0),
        AlgorithmSpec("pd_rftl"),
        seeds=[0],
        workers=1,
        emit_series=True,
    )
    series = res.runs[0].report.per_round_series
    for col in ("cum_reward", "budget_frac_1", "budget_frac_2", "violated"):
        assert col in series


def test_parallel_workers_match_sequential():
    spec = ScenarioSpec("iid_quadratic", T=30, seed=3)
    algo = AlgorithmSpec("spftl")
    seq = run_experiment(spec, algo, seeds=[0, 1], workers=1)
    par = run_experiment(spec, algo, seeds=[0, 1], workers=2)
    assert seq.summary["sp_regret_mean"] == par.summary["sp_regret_mean"]
    assert seq.summary["hindsight_value"] == par.summary["hindsight_value"]


def test_figure1_shape_spftl_flat_ogda_grows():
    spec = ScenarioSpec("sec8_instance1", T=900)
    spftl = run_experiment(spec, AlgorithmSpec("spftl"), seeds=[0], workers=1)
    ogda = run_experiment(spec, AlgorithmSpec("ogda"), seeds=[0], workers=1)
    assert spftl.summary["sp_regret_mean"] < 0.05 * ogda.summary["sp_regret_mean"]
    # at least one player's individual regret grows linearly under SP-FTL
    worst = max(spftl.summary["ind_x_mean"], spftl.summary["ind_y_mean"])
    assert worst / 900 > 0.05
    # OGDA keeps both individual regrets small on this strongly convex suite
    assert abs(ogda.summary["ind_x_mean"]) < 25
    assert abs(ogda.summary["ind_y_mean"]) < 25


def test_ogda_log_individual_regret_scaling():
    # ratio regret/ln(T) roughly stable across a factor-8 horizon change
    vals = {}
    for T in (250, 2000):
        res = run_experiment(
            ScenarioSpec("iid_quadratic", T=T, seed=5),
            AlgorithmSpec("ogda"),
            seeds=[0, 1, 2],
            workers=1,
        )
        worst = max(abs(res.summary["ind_x_mean"]), abs(res.summary["ind_y_mean"]))
        vals[T] = worst / np.log(T)
    assert vals[2000] <= 3.0 * max(vals[250], 0.05)


def test_impossibility_triple_quick():
    # every full-information algorithm trips at least one linear regret on
    # some theorem-6 scenario (quick version of the acceptance criterion)
    for algo in ("spftl", "sprftl", "ogda", "omg_rftl"):
        worst = 0.0
        for scen_id in ("theorem6_scenario1", "theorem6_scenario2"):
            res = run_experiment(
                ScenarioSpec(scen_id, T=400),
                AlgorithmSpec(algo),
                seeds=[0],
                workers=1,
            )
            s = res.summary
            worst = max(
                worst,
                s["sp_regret_mean"] / 400,
                abs(s["ind_x_mean"]) / 400,
                abs(s["ind_y_mean"]) / 400,
            )
        assert worst >= 0.05, algo


def test_unknown_generator_and_algorithm():
    with pytest.raises(ValueError):
        generate_scenario(ScenarioSpec("nope", T=4))
    scen = generate_scenario(ScenarioSpec("iid_quadratic", T=4))
    with pytest.raises(ValueError):
        resolve_parameters(scen, AlgorithmSpec("nope"))


def _spent_budget(solve):
    """solve_saddle whose every solution reports a spent budget above tol_gap."""

    def wrapper(f, X, Y, cfg=None):
        sol = solve(f, X, Y, cfg)
        sol.iterations, sol.gap = cfg.max_iters, 2.0 * cfg.tol_gap
        return sol

    return wrapper


@pytest.mark.parametrize(
    "generator, algorithm",
    [("iid_quadratic", "spftl"), ("random_bilinear", "bandit_omg_rftl"), ("ocowk_sec8", "pd_rftl")],
)
def test_uncertified_hindsight_value_raises(monkeypatch, generator, algorithm):
    spec = ScenarioSpec(generator, T=20)
    algo = AlgorithmSpec(algorithm)
    resolved = resolve_parameters(generate_scenario(spec), algo)
    monkeypatch.setattr(metrics_harness, "solve_saddle", _spent_budget(metrics_harness.solve_saddle))
    with pytest.raises(RuntimeError, match=r"gap .* > tol_gap"):
        run_single(spec, algo, 0, resolved=resolved)


def test_uncertified_r_star_raises(monkeypatch):
    monkeypatch.setattr(knapsack, "solve_saddle", _spent_budget(knapsack.solve_saddle))
    with pytest.raises(RuntimeError, match=r"gap .* > tol_gap 1e-10"):
        benchmark_r_star(sec82_instance(20, (200.0, 4.0)))
