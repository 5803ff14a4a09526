import subprocess
import sys

import pytest

from osp_lab.cli import (
    ConfigError,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PAIRING,
    EXIT_SOLVER,
    RunConfig,
    cmd_run,
    main,
    parse_config,
)

SMOKE = """
scenario.generator = theorem6_scenario1
scenario.T = 200
scenario.seed = 0
algorithm.name = spftl
seeds.count = 1
seeds.master = 0
output.path = {out}
output.emit_series = false
output.emit_svg = false
"""


def _strip_wall(text: str) -> str:
    header, row = text.strip().splitlines()
    cols = header.split(",")
    vals = row.split(",")
    keep = [i for i, c in enumerate(cols) if c != "wall_ms"]
    return ",".join(cols[i] for i in keep) + "\n" + ",".join(vals[i] for i in keep)


def test_config_round_trip():
    cfg = RunConfig(
        generator="iid_quadratic",
        T=500,
        scenario_seed=3,
        scenario_params={"H": 2.0, "halfwidth": 1.0},
        algorithm="sprftl",
        algorithm_params={"eta": 4.5},
        seed_count=2,
        master_seed=11,
        output_path="x.csv",
        emit_series=True,
        emit_svg=False,
    )
    assert parse_config(cfg.to_text()) == cfg


def test_parse_errors():
    with pytest.raises(ConfigError):
        parse_config("scenario.generator = iid_quadratic\n")  # missing T
    with pytest.raises(ConfigError):
        parse_config("scenario.generator = bogus\nscenario.T = 10\nalgorithm.name = spftl\n")
    with pytest.raises(ConfigError):
        parse_config("noprefix = 1\n")
    with pytest.raises(ConfigError):
        parse_config(
            "scenario.generator = iid_quadratic\nscenario.T = 10\n"
            "algorithm.name = spftl\nscenario.T = 20\n"
        )
    with pytest.raises(ConfigError):
        parse_config(
            "scenario.generator = iid_quadratic\nscenario.T = 10\n"
            "algorithm.name = spftl\nbad.key = 1\n"
        )


BASE = "scenario.generator = iid_quadratic\nscenario.T = 10\nalgorithm.name = spftl\n"


@pytest.mark.parametrize(
    "line",
    [
        "scenario.seed = 2.5",
        "scenario.seed = -1",
        "seeds.master = 1.5",
        "seeds.master = -3",
        "seeds.master = seven",
        "seeds.count = 0",
        "scenario.T = 1.5",
        "output.emit_series = no",
        "output.emit_series = 1",
        "output.emit_svg = yes",
    ],
)
def test_parse_rejects_bad_seeds_and_flags(line):
    with pytest.raises(ConfigError, match=line.split(" =")[0]):
        parse_config(BASE + line + "\n")


@pytest.mark.parametrize("flag", ["true", "false"])
@pytest.mark.parametrize("key", ["scenario.T", "scenario.seed", "seeds.count", "seeds.master"])
def test_parse_rejects_booleans_for_integer_keys(key, flag):
    # bool is a subclass of int: true must not pass as 1, nor false as 0
    text = BASE.replace("scenario.T = 10\n", "") if key == "scenario.T" else BASE
    with pytest.raises(ConfigError, match=key):
        parse_config(text + f"{key} = {flag}\n")


def test_cmd_run_bad_seed_or_flag_exits_config(tmp_path):
    """A float seed is a config error (exit 2), not numpy's TypeError, and
    a flag that is not true/false writes nothing."""
    out = tmp_path / "r.csv"
    conf = tmp_path / "r.conf"
    for line in ("seeds.master = 1.5", "scenario.seed = 2.5", "output.emit_series = no"):
        conf.write_text(BASE + f"output.path = {out}\n{line}\n")
        assert cmd_run(str(conf)) == EXIT_CONFIG
    assert not out.exists() and not (tmp_path / "r.series.csv").exists()


def test_cmd_run_smoke(tmp_path):
    out = tmp_path / "res.csv"
    conf = tmp_path / "run.conf"
    conf.write_text(SMOKE.format(out=out))
    assert cmd_run(str(conf)) == EXIT_OK
    text = out.read_text()
    header = text.splitlines()[0].split(",")
    assert "sp_regret_mean" in header
    meta = (tmp_path / "res.csv.meta").read_text()
    assert "param.tol_gap" in meta


def test_cmd_run_exit_codes(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("scenario.generator = iid_quadratic\n")
    assert cmd_run(str(conf)) == EXIT_CONFIG
    assert cmd_run(str(tmp_path / "missing.conf")) == EXIT_CONFIG
    pairing = tmp_path / "pair.conf"
    pairing.write_text(
        "scenario.generator = iid_quadratic\nscenario.T = 10\n"
        f"algorithm.name = pd_rftl\noutput.path = {tmp_path/'p.csv'}\n"
    )
    assert cmd_run(str(pairing)) == EXIT_PAIRING


def test_cmd_run_solver_budget_exit_reports_max_gap(tmp_path, capsys):
    out = tmp_path / "budget.csv"
    conf = tmp_path / "budget.conf"
    conf.write_text(
        "scenario.generator = random_bilinear\nscenario.T = 5\nscenario.seed = 0\n"
        "scenario.d1 = 3\nscenario.d2 = 3\n"
        "algorithm.name = omg_rftl\nalgorithm.max_iters = 1\nalgorithm.tol_gap = 1e-14\n"
        f"algorithm.hindsight_tol = 1e-3\nseeds.count = 1\noutput.path = {out}\n"
    )
    assert cmd_run(str(conf)) == EXIT_SOLVER
    assert out.exists()
    err = capsys.readouterr().err
    assert "solver budget exceeded" in err
    worst = float(err.split("max recorded gap ")[1].split(")")[0])
    assert worst > 0.0


def test_cmd_run_deterministic_output(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        conf = tmp_path / f"{out.stem}.conf"
        conf.write_text(
            "scenario.generator = iid_quadratic\nscenario.T = 60\nscenario.seed = 5\n"
            f"algorithm.name = spftl\nseeds.count = 2\nseeds.master = 1\noutput.path = {out}\n"
        )
        assert cmd_run(str(conf)) == EXIT_OK
    # byte-identical except for the timing column
    assert _strip_wall(out1.read_text()) == _strip_wall(out2.read_text())
    assert (tmp_path / "a.csv.meta").read_text() == (tmp_path / "b.csv.meta").read_text()


def test_series_and_svg_outputs(tmp_path):
    out = tmp_path / "series.csv"
    conf = tmp_path / "series.conf"
    conf.write_text(
        "scenario.generator = iid_quadratic\nscenario.T = 15\n"
        f"algorithm.name = spftl\noutput.path = {out}\n"
        "output.emit_series = true\noutput.emit_svg = true\n"
    )
    assert cmd_run(str(conf)) == EXIT_OK
    series = (tmp_path / "series.series.csv").read_text().splitlines()
    assert series[0].startswith("seed,t,cum_payoff")
    assert len(series) == 16
    svg = (tmp_path / "series.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_metadata_records_overrides(tmp_path):
    out = tmp_path / "o.csv"
    conf = tmp_path / "o.conf"
    conf.write_text(
        "scenario.generator = random_bilinear\nscenario.T = 40\n"
        "scenario.d1 = 2\nscenario.d2 = 2\n"
        "algorithm.name = bandit_omg_rftl\nalgorithm.delta = 0.2\nalgorithm.eta = 3.5\n"
        f"output.path = {out}\n"
    )
    assert cmd_run(str(conf)) == EXIT_OK
    meta = (tmp_path / "o.csv.meta").read_text()
    assert "param.delta = 0.2  # override" in meta
    assert "param.eta = 3.5  # override" in meta


def test_metadata_records_formula_tags(tmp_path):
    out = tmp_path / "f.csv"
    conf = tmp_path / "f.conf"
    conf.write_text(
        "scenario.generator = ocowk_sec8\nscenario.T = 50\n"
        f"algorithm.name = pd_rftl\noutput.path = {out}\n"
    )
    assert cmd_run(str(conf)) == EXIT_OK
    meta = (tmp_path / "f.csv.meta").read_text()
    assert "D_X/(G*(1+||y_max||_2)*sqrt(T))" in meta
    assert "param.r_star" in meta


def test_list_commands(capsys):
    assert main(["list-scenarios"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "theorem6_scenario1" in out and "ocowk_sec8" in out
    assert main(["list-algorithms"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "spftl" in out and "pd_rftl" in out


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "osp_lab.cli", "list-algorithms"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "bandit_omg_rftl" in proc.stdout
