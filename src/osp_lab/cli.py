"""Command-line entry point: run experiments from config files, export CSV
(optionally per-round series and a standalone SVG chart), and self-check the
brute-force oracles.

Config format: flat UTF-8 key-value lines with dotted section prefixes, one
assignment per line, '#' comments.  Identical configs produce byte-identical
CSV output except for the wall_ms timing column.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import oracles
from .geometry import Box, Simplex
from .knapsack import benchmark_r_star, sec82_instance
from .matrix_games import EntropyRegularizer
from .metrics_harness import (
    ALGORITHM_IDS,
    AlgorithmSpec,
    GENERATOR_IDS,
    IncompatiblePairingError,
    ScenarioSpec,
    default_workers,
    run_experiment,
)
from .payoffs import make_bilinear, make_quadratic_bilinear, regularize
from .saddle_solver import SolverConfig, solve_matrix_game_2x2, solve_saddle

EXIT_OK = 0
EXIT_ORACLE_FAIL = 1
EXIT_CONFIG = 2
EXIT_PAIRING = 3
EXIT_SOLVER = 4


class ConfigError(ValueError):
    pass


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _parse_value(raw: str):
    raw = raw.strip()
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    if "," in raw:
        try:
            return tuple(float(x) for x in raw.split(","))
        except ValueError:
            pass
    return raw


@dataclass
class RunConfig:
    generator: str
    T: int
    scenario_seed: int = 0
    scenario_params: dict = field(default_factory=dict)
    algorithm: str = "spftl"
    algorithm_params: dict = field(default_factory=dict)
    seed_count: int = 1
    master_seed: int = 0
    output_path: str = "results.csv"
    emit_series: bool = False
    emit_svg: bool = False

    def seeds(self) -> list[int]:
        return [self.master_seed + i for i in range(self.seed_count)]

    def to_text(self) -> str:
        lines = [
            f"scenario.generator = {self.generator}",
            f"scenario.T = {self.T}",
            f"scenario.seed = {self.scenario_seed}",
        ]
        for k in sorted(self.scenario_params):
            lines.append(f"scenario.{k} = {_fmt_param(self.scenario_params[k])}")
        lines.append(f"algorithm.name = {self.algorithm}")
        for k in sorted(self.algorithm_params):
            lines.append(f"algorithm.{k} = {_fmt_param(self.algorithm_params[k])}")
        lines += [
            f"seeds.count = {self.seed_count}",
            f"seeds.master = {self.master_seed}",
            f"output.path = {self.output_path}",
            f"output.emit_series = {_fmt(self.emit_series)}",
            f"output.emit_svg = {_fmt(self.emit_svg)}",
        ]
        return "\n".join(lines) + "\n"


def _fmt_param(v) -> str:
    if isinstance(v, tuple):
        return ",".join(f"{x:.12g}" for x in v)
    return _fmt(v)


def parse_config(text: str) -> RunConfig:
    pairs = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value'")
        key, raw = line.split("=", 1)
        key = key.strip()
        if not key or "." not in key:
            raise ConfigError(f"line {ln}: keys need a dotted section prefix")
        if key in pairs:
            raise ConfigError(f"line {ln}: duplicate key {key!r}")
        pairs[key] = _parse_value(raw)

    def pop(key, default=None, required=False):
        if key in pairs:
            return pairs.pop(key)
        if required:
            raise ConfigError(f"missing required key {key!r}")
        return default

    def pop_int(key, default, least, required=False):
        value = pop(key, default, required)
        if type(value) is not int or value < least:  # refuses true/false too
            kind = "positive" if least == 1 else "nonnegative"
            raise ConfigError(f"{key} must be a {kind} integer, got {value!r}")
        return value

    def pop_flag(key):
        value = pop(key, False)
        if not isinstance(value, bool):
            raise ConfigError(f"{key} must be true or false, got {value!r}")
        return value

    generator = pop("scenario.generator", required=True)
    T = pop_int("scenario.T", None, 1, required=True)
    if generator not in GENERATOR_IDS:
        raise ConfigError(f"unknown scenario.generator {generator!r}")
    scenario_seed = pop_int("scenario.seed", 0, 0)
    algorithm = pop("algorithm.name", required=True)
    if algorithm not in ALGORITHM_IDS:
        raise ConfigError(f"unknown algorithm.name {algorithm!r}")
    seed_count = pop_int("seeds.count", 1, 1)
    master_seed = pop_int("seeds.master", 0, 0)
    output_path = str(pop("output.path", "results.csv"))
    emit_series = pop_flag("output.emit_series")
    emit_svg = pop_flag("output.emit_svg")
    scenario_params = {}
    algorithm_params = {}
    for key, value in list(pairs.items()):
        section, sub = key.split(".", 1)
        if section == "scenario":
            scenario_params[sub] = value
        elif section == "algorithm":
            algorithm_params[sub] = value
        else:
            raise ConfigError(f"unknown config key {key!r}")
    return RunConfig(
        generator=generator,
        T=T,
        scenario_seed=scenario_seed,
        scenario_params=scenario_params,
        algorithm=algorithm,
        algorithm_params=algorithm_params,
        seed_count=seed_count,
        master_seed=master_seed,
        output_path=output_path,
        emit_series=emit_series,
        emit_svg=emit_svg,
    )


# ---------------------------------------------------------------------------
# Output writers
# ---------------------------------------------------------------------------


def write_summary_csv(path: Path, summary: dict) -> None:
    cols = list(summary.keys())
    lines = [",".join(cols), ",".join(_fmt(summary[c]) for c in cols)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_series_csv(path: Path, runs) -> None:
    first = runs[0].report.per_round_series
    cols = ["seed"] + list(first.keys())
    lines = [",".join(cols)]
    for run in runs:
        series = run.report.per_round_series
        n = len(series["t"])
        for k in range(n):
            row = [str(run.seed)] + [_fmt(float(series[c][k])) for c in cols[1:]]
            lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_metadata(path: Path, config: RunConfig, resolved: dict) -> None:
    lines = [
        f"scenario.generator = {config.generator}",
        f"scenario.T = {config.T}",
        f"scenario.seed = {config.scenario_seed}",
        f"algorithm.name = {config.algorithm}",
        f"seeds = {','.join(str(s) for s in config.seeds())}",
    ]
    for key in sorted(resolved):
        value, tag = resolved[key]
        lines.append(f"param.{key} = {_fmt_param(value)}  # {tag}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_svg(path: Path, runs) -> None:
    """Standalone polyline chart of the first run's cumulative series."""
    series = runs[0].report.per_round_series
    keys = [k for k in series if k != "t"]
    W, H, pad = 800, 480, 40
    ts = np.asarray(series["t"], dtype=float)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
    ]
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf"]
    all_vals = np.concatenate([np.asarray(series[k], dtype=float) for k in keys])
    lo, hi = float(all_vals.min()), float(all_vals.max())
    if hi - lo < 1e-12:
        hi = lo + 1.0
    for idx, key in enumerate(keys):
        vals = np.asarray(series[key], dtype=float)
        xs = pad + (W - 2 * pad) * (ts - ts[0]) / max(ts[-1] - ts[0], 1.0)
        ys = H - pad - (H - 2 * pad) * (vals - lo) / (hi - lo)
        pts = " ".join(f"{x:.1f},{y:.1f}" for x, y in zip(xs, ys))
        color = palette[idx % len(palette)]
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'
        )
        parts.append(
            f'<text x="{pad}" y="{pad + 14 * idx}" fill="{color}" font-size="12">{key}</text>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts), encoding="utf-8")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_run(config_path: str) -> int:
    try:
        text = Path(config_path).read_text(encoding="utf-8")
        config = parse_config(text)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    spec = ScenarioSpec(
        generator_id=config.generator,
        T=config.T,
        seed=config.scenario_seed,
        params=config.scenario_params,
    )
    algo = AlgorithmSpec(name=config.algorithm, params=config.algorithm_params)
    try:
        result = run_experiment(
            spec,
            algo,
            config.seeds(),
            emit_series=config.emit_series,
            workers=default_workers(),
        )
    except IncompatiblePairingError as exc:
        print(f"error: incompatible pairing: {exc}", file=sys.stderr)
        return EXIT_PAIRING
    except ValueError as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out = Path(config.output_path)
    write_summary_csv(out, result.summary)
    write_metadata(out.with_suffix(out.suffix + ".meta"), config, result.resolved)
    if config.emit_series:
        write_series_csv(out.with_suffix(".series.csv"), result.runs)
        if config.emit_svg:
            write_svg(out.with_suffix(".svg"), result.runs)
    print(
        " ".join(
            f"{k}={_fmt(v)}" for k, v in result.summary.items() if k != "wall_ms"
        )
    )
    exceeded = sum(r.budget_exceeded_rounds for r in result.runs)
    if exceeded:
        worst = max(float(np.max(r.trace.solver_gaps, initial=0.0)) for r in result.runs)
        print(
            f"error: solver budget exceeded in {exceeded} round(s); "
            f"outputs written; inspect per-round gaps (max recorded gap {worst:g})",
            file=sys.stderr,
        )
        return EXIT_SOLVER
    return EXIT_OK


def _oracle_suite() -> list[tuple[str, bool, str]]:
    results = []
    rng = np.random.Generator(np.random.PCG64(20240601))

    # 2x2 closed form vs grid and vs entropic-regularized solver
    worst_solver = 0.0
    worst_grid = 0.0
    for _ in range(200):
        A = rng.uniform(-1.0, 1.0, size=(2, 2))
        exact = solve_matrix_game_2x2(A)
        gval, _ = oracles.grid_matrix_game_2x2(A, 1e-3)
        worst_grid = max(worst_grid, abs(exact.value - gval))
        theta = 1e-8
        payoff = regularize(
            make_bilinear(A),
            EntropyRegularizer(2, theta),
            EntropyRegularizer(2, theta),
            1e-6,
        )
        sol = solve_saddle(
            payoff,
            Simplex(2, theta),
            Simplex(2, theta),
            SolverConfig(tol_gap=1e-9, max_iters=200_000),
        )
        worst_solver = max(worst_solver, abs(exact.value - sol.value))
    results.append(
        (
            "matrix_game_2x2_closed_form",
            worst_solver <= 1e-5 and worst_grid <= 5e-3,
            f"max |closed-form - solver| = {worst_solver:.2e} (tol 1e-5), "
            f"max |closed-form - grid| = {worst_grid:.2e} (tol 5e-3)",
        )
    )

    # Euclidean simplex projection vs two-phase grid search
    worst = 0.0
    simplex = Simplex(3)
    for _ in range(25):
        z = rng.uniform(-1.5, 1.5, size=3)
        p = simplex.project(z)
        g = oracles.grid_simplex_projection_3d(z)
        worst = max(worst, float(np.abs(p - g).max()))
    results.append(
        (
            "simplex_projection_vs_grid",
            worst <= 2e-4,
            f"max l_inf deviation = {worst:.2e} (tol 2e-4)",
        )
    )

    # sec-8.2 closed-form expectations vs Monte-Carlo
    rows = oracles.sec82_expectation_check()
    bad = [r for r in rows if abs(r[1] - r[2]) > 3.0 * r[3]]
    results.append(
        (
            "sec82_expectations_vs_monte_carlo",
            not bad,
            "all analytic values within 3 sigma"
            if not bad
            else "; ".join(f"{r[0]}: {r[1]:.4f} vs {r[2]:.4f} (sigma {r[3]:.2g})" for r in bad),
        )
    )

    # one-point estimator enumeration, plus an off-by-one mutation that must fail
    ok = True
    detail = "E[Ahat] = A entrywise to 1e-12 on 50 draws; mutated estimator detected"
    for _ in range(50):
        d1, d2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        A = rng.uniform(-1.0, 1.0, size=(d1, d2))
        x = Simplex(d1, 0.05).embed(rng.dirichlet(np.ones(d1)))
        y = Simplex(d2, 0.05).embed(rng.dirichlet(np.ones(d2)))
        exp = oracles.enumerate_estimator_expectation(A, x, y)
        if float(np.abs(exp - A).max()) > 1e-12:
            ok, detail = False, "enumeration mismatch on an unmutated estimator"
            break
        mutated = np.zeros_like(A)
        for i in range(d1):
            for j in range(d2):
                mutated[i, (j + 1) % d2] += A[i, j]  # deliberate index bug
        if float(np.abs(mutated - A).max()) <= 1e-12:
            ok, detail = False, "mutation check failed to fail"
            break
    results.append(("estimator_enumeration", ok, detail))

    # 1-D grid saddle vs solver on a strongly convex-concave quadratic sum
    payoff = make_quadratic_bilinear(1.0, 1.0, 2.0, -1.0, 10.0, 10.0)
    box = Box(np.array([-10.0]), np.array([10.0]))
    sol = solve_saddle(payoff, box, box, SolverConfig(tol_gap=1e-10))
    gval, gx, gy = oracles.grid_saddle_1d(payoff, (-10.0, 10.0), (-10.0, 10.0))
    err = abs(sol.value - gval)
    results.append(
        (
            "grid_saddle_1d_vs_solver",
            err <= 1e-5,
            f"|solver - grid| = {err:.2e} (tol 1e-5), grid argmin ({gx:.6f}, {gy:.6f})",
        )
    )

    # knapsack benchmark: duality-based value vs feasibility grid
    inst = sec82_instance(1000)
    r_star = benchmark_r_star(inst)
    e_r, e_c = inst.sampler.expectation()
    per_round, x_star = oracles.grid_knapsack_benchmark(
        e_r, e_c, inst.b_over_T, (0.0, 20.0)
    )
    rel = abs(r_star - inst.T * per_round) / abs(inst.T * per_round)
    results.append(
        (
            "knapsack_benchmark_vs_grid",
            rel <= 1e-5,
            f"relative gap {rel:.2e} (tol 1e-5), grid x* = {x_star:.6f}",
        )
    )
    return results


def cmd_oracle_check() -> int:
    results = _oracle_suite()
    failed = [name for name, ok, _ in results if not ok]
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    if failed:
        print(f"{len(failed)} oracle(s) failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_ORACLE_FAIL
    return EXIT_OK


def cmd_list_scenarios() -> int:
    for gid in GENERATOR_IDS:
        print(gid)
    return EXIT_OK


def cmd_list_algorithms() -> int:
    for aid in ALGORITHM_IDS:
        print(aid)
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="osp-lab",
        description="Online saddle-point experiments: run configs, export CSV, self-check oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute the experiment described by a config file")
    run_p.add_argument("config", help="path to a flat key=value config file")
    sub.add_parser("oracle-check", help="run every brute-force oracle and report pass/fail")
    sub.add_parser("list-scenarios", help="print available scenario generators")
    sub.add_parser("list-algorithms", help="print available algorithms")
    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config)
    if args.command == "oracle-check":
        return cmd_oracle_check()
    if args.command == "list-scenarios":
        return cmd_list_scenarios()
    return cmd_list_algorithms()


if __name__ == "__main__":
    sys.exit(main())
