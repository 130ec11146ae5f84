import csv
import dataclasses
import json
import os
import re

import numpy as np
import pytest

from condemp import build_analytic_basis, project, unit_interval
from condemp.cli import main as cli_main
from condemp.domains import NEUMANN
from condemp.harness import (ConfigError, ExperimentConfig, _occupation_measures,
                             limit_report, mu0_measure, run_convergence,
                             run_mc_crosscheck, run_sandwich, run_w2)
from condemp.limits import LimitError
from condemp.measures import GridMeasure, InitialDistribution
from condemp.semigroup import mean_empirical_density

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

BASE_CONFIG = {
    "version": "1",
    "domain": {"kind": "interval", "bounds": [0.0, 1.0], "boundary": "dirichlet"},
    "nu": {"kind": "mu"},
    "times": [1.0, 2.0, 4.0],
    "modes": 48,
    "n_quantiles": 20000,
    "grid_nodes": 4097,
    "seed": 777,
}


def write_config(tmp_path, **overrides):
    doc = dict(BASE_CONFIG)
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_unknown_keys_rejected(tmp_path):
    path = write_config(tmp_path, bogus=1)
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.load(path)


def test_unknown_version_rejected(tmp_path):
    path = write_config(tmp_path, version="99")
    with pytest.raises(ConfigError, match="version"):
        ExperimentConfig.load(path)


def test_times_must_increase(tmp_path):
    for times, match in (([2.0, 1.0], "strictly increasing"),
                         ([], "nonempty list of positive times"),
                         ([-1.0, 2.0], "nonempty list of positive times")):
        path = write_config(tmp_path, times=times)
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig.load(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="does not exist"):
        ExperimentConfig.load(tmp_path / "nope.json")


def test_unknown_mc_keys_rejected(tmp_path):
    path = write_config(tmp_path, mc={"paths": 3})
    with pytest.raises(ConfigError, match="unknown mc keys"):
        ExperimentConfig.load(path)


def test_unknown_w2_method_rejected(tmp_path):
    path = write_config(tmp_path, w2_method="bogus")
    with pytest.raises(ConfigError, match="unknown w2_method 'bogus'"):
        ExperimentConfig.load(path)
    assert run_cli("w2", "--config", str(path), "--out", str(tmp_path / "res")) == 2


@pytest.mark.parametrize("source, key, value", [
    ("file", "modes", 0), ("file", "grid_nodes", 1), ("file", "tol", 0.0),
    ("file", "tol", -1.0), ("cli", "modes", 0), ("cli", "tol", 0.0),
    ("cli", "tol", -1.0), ("cli", "tol", float("nan")),
])
def test_bad_numbers_rejected_naming_the_key(tmp_path, capsys, source, key, value):
    out = str(tmp_path / "res")
    if source == "file":
        path = write_config(tmp_path, **{key: value})
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.load(path)
        assert run_cli("limit", "--config", str(path), "--out", out) == 2
    else:
        path = write_config(tmp_path)
        assert run_cli("limit", "--config", str(path), "--out", out,
                       f"--{key}", str(value)) == 2
    assert f"error: {key} must be" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "limit.json"))


BAD_AT_LOAD = {
    "mc.dt-0": ({"mc": {"dt": 0}}, "mc.dt must be finite and positive"),
    "mc.dt-inf": ({"mc": {"dt": float("inf")}}, "mc.dt must be finite and positive"),
    "mc.horizon-neg": ({"mc": {"horizon": -1.0}}, "mc.horizon must be finite and positive"),
    "mc.n_paths-str": ({"mc": {"n_paths": "many"}}, "mc.n_paths must be an integer of at least 1"),
    "mc.n_paths-frac": ({"mc": {"n_paths": 2.5}}, "mc.n_paths must be an integer of at least 1"),
    "mc.n_bins-0": ({"mc": {"n_bins": 0}}, "mc.n_bins must be an integer of at least 1"),
    "mc.islands-1": ({"mc": {"islands": 1}}, "mc.islands must be an integer of at least 2"),
    "mc.slope_times-empty": ({"mc": {"slope_times": []}}, "mc.slope_times must be a nonempty"),
    "mc.slope_times-zero": ({"mc": {"slope_times": [0.0, 0.2]}}, "mc.slope_times must be"),
    "mc.slope_times-order": ({"mc": {"slope_times": [0.4, 0.2]}}, "mc.slope_times must be"),
    "mc.checkpoints": ({"mc": {"checkpoints": [0.1]}}, "unknown mc keys: \\['checkpoints'\\]"),
    "nu-point-no-x": ({"nu": {"kind": "point"}}, "nu of kind 'point' needs \\['x'\\]"),
    "nu-density-no-nodes": ({"nu": {"kind": "density_mu", "values": [1.0]}},
                            "nu of kind 'density_mu' needs \\['nodes'\\]"),
    "nu-unknown": ({"nu": {"kind": "bogus"}}, "unknown nu kind 'bogus'"),
    "n_quantiles-3999": ({"n_quantiles": 3999}, "n_quantiles must be at least 4000"),
    "n_quantiles-0": ({"n_quantiles": 0}, "n_quantiles must be at least 4000"),
    "modes_limit": ({"modes_limit": 2000}, "unknown config keys: \\['modes_limit'\\]"),
    "sl_grid": ({"sl_grid": 2000}, "unknown config keys: \\['sl_grid'\\]"),
}


@pytest.mark.parametrize("overrides, message", BAD_AT_LOAD.values(), ids=BAD_AT_LOAD)
def test_bad_values_rejected_at_load(tmp_path, capsys, overrides, message):
    path = write_config(tmp_path, **overrides)
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig.load(path)
    out = str(tmp_path / "res")
    assert run_cli("limit", "--config", str(path), "--out", out) == 2
    assert "error: " in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "limit.json"))


RECTANGLE = {"kind": "rectangle", "bounds": [0.0, 1.0, 0.0, 0.5], "boundary": "dirichlet"}
NEUMANN_INTERVAL = {"kind": "interval", "bounds": [0.0, 1.0], "boundary": "neumann"}


def _no_basis(self):
    raise AssertionError("basis built for a config that should have been rejected")


def test_rectangle_rejected_where_measures_are_1d(tmp_path, capsys, monkeypatch):
    cfg_path = write_config(tmp_path, domain=RECTANGLE, modes=64)
    cfg = ExperimentConfig.load(cfg_path)
    out = str(tmp_path / "res")
    with monkeypatch.context() as m:
        m.setattr(ExperimentConfig, "build_basis", _no_basis)
        for run in (run_convergence, lambda c: run_sandwich(c, 2.0), run_mc_crosscheck):
            with pytest.raises(ConfigError, match="needs an interval domain"):
                run(cfg)
        for command in ("converge", "sandwich", "mc", "w2", "density"):
            assert run_cli(command, "--config", str(cfg_path), "--out", out) == 2
            assert "needs an interval domain" in capsys.readouterr().err
    for command in ("basis", "project", "limit"):
        assert run_cli(command, "--config", str(cfg_path), "--out", out) == 0
    assert not os.path.exists(os.path.join(out, "density_t1.csv"))

    # a reflecting interval: the commands that evaluate h_t stop before the basis
    cfg_path = write_config(tmp_path, domain=NEUMANN_INTERVAL)
    monkeypatch.setattr(ExperimentConfig, "build_basis", _no_basis)
    with pytest.raises(ConfigError, match="sandwich needs boundary 'dirichlet'"):
        run_sandwich(ExperimentConfig.load(cfg_path), 2.0)
    for command in ("sandwich", "w2", "density"):
        assert run_cli(command, "--config", str(cfg_path), "--out", out) == 2
        assert f"error: {command} needs boundary 'dirichlet', got 'neumann'" in \
            capsys.readouterr().err


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------

def test_convergence_dirichlet_small(tmp_path):
    cfg = ExperimentConfig.load(write_config(tmp_path))
    report = run_convergence(cfg)
    gaps = [abs(r["rel_gap"]) for r in report.rows]
    assert gaps[0] > gaps[1] > gaps[2]
    assert report.gap_monotone_tail
    assert 0.5 <= report.gap_exponent <= 1.5
    for row in report.rows:
        assert row["method"] == "quantile1d"
        assert row["seed"] == 777
        assert row["tail_bound"] >= 0.0


def test_convergence_report_files(tmp_path):
    out = tmp_path / "out"
    cfg = ExperimentConfig.load(write_config(tmp_path, out=str(out),
                                             times=[1.0, 2.0]))
    report = run_convergence(cfg)
    data = json.loads((out / "convergence.json").read_text())
    assert data["schema"] == "condemp.convergence/1"
    # the header is the README's column list, and a killed run fills every cell
    with open(README) as fh:
        listed = re.search(r"CSV columns, in order:\s*`([^`]+)`", fh.read()).group(1)
    with open(out / "convergence.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == [c.strip() for c in listed.split(",")]
    assert len(rows) == 2
    assert all(cell != "" for row in rows for cell in row)


def test_convergence_deterministic(tmp_path):
    cfg = ExperimentConfig.load(write_config(tmp_path, times=[1.0, 2.0]))
    r1 = run_convergence(cfg)
    r2 = run_convergence(cfg)
    assert r1.to_dict() == r2.to_dict()


def test_convergence_neumann(tmp_path):
    path = write_config(
        tmp_path,
        domain={"kind": "interval", "bounds": [0.0, 1.0], "boundary": "neumann"},
        nu={"kind": "point", "x": 0.0},
        times=[4.0, 8.0], modes=256)
    report = run_convergence(ExperimentConfig.load(path))
    target = 2.0 / 945.0
    assert report.limit.I_value == pytest.approx(target, rel=1e-4)
    assert abs(report.rows[-1]["rel_gap"]) < 0.05
    # no h_t, so no sandwich: the rows carry no bounds
    for row in report.rows:
        assert not {"lower", "upper", "ordered"} & set(row)


def test_occupation_measures_share_one_mode_table():
    # one table for every t gives each t's density bitwise as a table of its own
    basis = build_analytic_basis(unit_interval(boundary=NEUMANN), 512)
    nu_c = project(InitialDistribution.from_point(0.0), basis)
    times, x = [4.0, 8.0, 16.0], np.linspace(0.0, 1.0, 8193)
    for t, got in zip(times, _occupation_measures(nu_c, basis, times, x.size)):
        own = np.maximum(mean_empirical_density(nu_c, basis, t, basis.eval_modes(x)), 0.0)
        expected = GridMeasure.normalized(x, own * basis.mu_lebesgue_at(x))
        assert np.array_equal(got.lebesgue_density, expected.lebesgue_density)


def test_mc_declared_error_covers_at_benchmark_size():
    # 16384 paths and 8 islands on the shipped MC config; on seed 210 the raw
    # W2 was 1.13 times its declared 3 bootstrap SEs before the noise floor
    with open(os.path.join(CONFIGS, "mc_crosscheck.json")) as fh:
        doc = json.load(fh)
    doc.update(seed=210, out=None)
    doc["mc"].update(n_paths=16384, islands=8, slope_times=[0.1, 0.2, 0.3, 0.4])
    out = run_mc_crosscheck(ExperimentConfig.from_dict(doc))
    assert out["w2_occupation"] <= 3.0 * out["w2_bootstrap_se"]
    assert out["w2_occupation"] ** 2 == pytest.approx(
        out["w2_occupation_raw"] ** 2 - out["w2_noise_floor"], rel=1e-12)


def test_killed_rows_carry_their_sandwich(tmp_path):
    cfg = ExperimentConfig.load(write_config(tmp_path))
    for row in run_convergence(cfg).rows:
        assert row["ordered"] is True
        assert row["lower"] <= row["w2"] ** 2 + row["w2_error"]
        assert row["w2"] ** 2 <= row["upper"] + row["w2_error"]


def test_sandwich_is_the_quantile_converge_row(tmp_path):
    # the sandwich takes the quantile route whatever the config's route is
    cfg = ExperimentConfig.load(write_config(tmp_path, times=[2.0]))
    row = run_convergence(cfg).rows[0]
    sw = run_sandwich(dataclasses.replace(cfg, w2_method="exact-discrete"), 2.0)
    assert (sw["lower"], sw["upper"], sw["w2"]) == (row["lower"], row["upper"], row["w2"])
    assert sw["ordered"] == row["ordered"]


def test_sandwich_row(tmp_path):
    cfg = ExperimentConfig.load(write_config(tmp_path, modes=64))
    row = run_sandwich(cfg, 2.0)
    assert row["ordered"]
    assert row["lower"] <= row["w2sq"] * (1 + 1e-9)
    assert row["w2sq"] <= row["upper"] * (1 + 1e-6)


def test_sandwich_degenerate_flat_density(tmp_path):
    # a single-mode basis forces h = 1: every bound collapses to zero
    cfg = ExperimentConfig.load(write_config(tmp_path, modes=1,
                                             n_quantiles=4000,
                                             grid_nodes=1025))
    row = run_sandwich(cfg, 2.0)
    assert row["lower"] == 0.0
    assert row["w2sq"] <= 1e-12
    assert row["upper"] <= 1e-20


def test_single_mode_limit_asks_for_more_modes(tmp_path, capsys):
    cfg_path = write_config(tmp_path, modes=1)
    with pytest.raises(LimitError, match="raise the mode count"):
        run_convergence(ExperimentConfig.load(cfg_path))
    assert run_cli("limit", "--config", str(cfg_path), "--out", str(tmp_path / "res")) == 2
    assert "raise the mode count" in capsys.readouterr().err


def test_rectangle_limit_at_24_modes(tmp_path):
    # the Bessel budgets subtract every retained mode, the ground mode too:
    # at 24 modes the tail meets the default tol and covers the 96-mode value
    cfg_path = write_config(tmp_path, domain=RECTANGLE, modes=24)
    out = tmp_path / "res"
    assert run_cli("limit", "--config", str(cfg_path), "--out", str(out)) == 0
    doc = json.loads((out / "limit.json").read_text())
    cfg = ExperimentConfig.load(cfg_path)
    cfg.modes = 96
    assert abs(limit_report(cfg, cfg.build_basis()).I_value - doc["I_value"]) <= doc["tail_bound"]


@pytest.mark.parametrize("overrides", [
    {"modes": 48},
    {"domain": {"kind": "interval", "bounds": [0.0, 1.0], "boundary": "neumann"},
     "nu": {"kind": "point", "x": 0.0}, "times": [4.0], "modes": 64},
], ids=["dirichlet-mu", "neumann-point"])
def test_limit_command_reports_what_converge_reports(tmp_path, overrides):
    cfg_path = write_config(tmp_path, n_quantiles=4000, grid_nodes=1025, **overrides)
    out = tmp_path / "res"
    assert run_cli("limit", "--config", str(cfg_path), "--out", str(out)) == 0
    doc = json.loads((out / "limit.json").read_text())
    limit = run_convergence(ExperimentConfig.load(cfg_path)).limit
    assert doc["I_value"] == limit.I_value
    assert doc["tail_bound"] == limit.tail_bound
    assert doc["modes_used"] == limit.modes_used


def test_point_mass_convergence(tmp_path):
    cfg = ExperimentConfig.load(write_config(
        tmp_path, nu={"kind": "point", "x": 0.5}, times=[2.0, 4.0, 8.0],
        modes=96))
    report = run_convergence(cfg)
    gaps = [abs(r["rel_gap"]) for r in report.rows]
    assert gaps[-1] <= 0.2
    assert report.limit.positive


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def run_cli(*argv):
    return cli_main(list(argv))


def test_cli_basis_limit_density(tmp_path, capsys):
    cfg_path = write_config(tmp_path, times=[1.0, 2.0], modes=32)
    out = str(tmp_path / "res")
    assert run_cli("basis", "--config", str(cfg_path), "--out", out) == 0
    assert run_cli("limit", "--config", str(cfg_path), "--out", out) == 0
    assert run_cli("density", "--config", str(cfg_path), "--out", out, "--t", "1.5") == 0
    assert run_cli("w2", "--config", str(cfg_path), "--out", out, "--t", "2.0") == 0
    captured = capsys.readouterr().out
    assert "basis: M=32" in captured
    assert "limit: I=" in captured
    assert os.path.exists(os.path.join(out, "basis.json"))
    assert os.path.exists(os.path.join(out, "limit.json"))
    assert os.path.exists(os.path.join(out, "density_t1.5.csv"))
    assert os.path.exists(os.path.join(out, "w2_t2.json"))
    doc = json.loads(open(os.path.join(out, "limit.json")).read())
    assert doc["positive"] is True
    w2doc = json.loads(open(os.path.join(out, "w2_t2.json")).read())
    assert list(w2doc) == ["t", "w2", "w2_squared", "method", "error_estimate",
                           "tail_bound", "seed"]
    row = run_w2(ExperimentConfig.load(cfg_path), 2.0)
    assert [w2doc[k] for k in ("w2", "w2_squared", "error_estimate", "tail_bound")] == \
        [row[k] for k in ("w2", "w2sq", "w2_error", "tail_bound")]
    assert (w2doc["t"], w2doc["method"], w2doc["seed"]) == (2.0, "quantile1d", 777)


def test_cli_converge_and_overrides(tmp_path, capsys):
    cfg_path = write_config(tmp_path, times=[1.0, 2.0], modes=32)
    out = str(tmp_path / "res2")
    assert run_cli("converge", "--config", str(cfg_path), "--out", out,
                   "--modes", "40", "--seed", "1") == 0
    doc = json.loads(open(os.path.join(out, "convergence.json")).read())
    assert doc["seed"] == 1
    assert doc["rows"][0]["modes"] == 40


def test_cli_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": "1"}))
    assert run_cli("limit", "--config", str(bad)) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_sandwich(tmp_path, capsys):
    cfg_path = write_config(tmp_path, modes=48)
    assert run_cli("sandwich", "--config", str(cfg_path),
                   "--out", str(tmp_path / "res3"), "--t", "2.0") == 0
    assert "ordered=True" in capsys.readouterr().out
