import csv
import dataclasses
import json
import os
import re
import tracemalloc

import numpy as np
import pytest

from condemp import (build_analytic_basis, harness, project, solve_sturm_liouville, spectral,
                     unit_interval)
from condemp.cli import main as cli_main
from condemp.domains import NEUMANN, Potential
from condemp.harness import (ConfigError, ExperimentConfig, limit_report,
                             mean_occupation_measure, mu0_measure, run_convergence,
                             run_mc_crosscheck, run_sandwich, run_w2, spectral_measure)
from condemp.limits import LimitError
from condemp.measures import GridMeasure, InitialDistribution
from condemp.semigroup import conditional_density, mean_empirical_density

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
    ("cli", "tol", -1.0), ("cli", "tol", float("nan")), ("cli", "seed", -1),
    ("cli", "seed", 2**63),
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


RECTANGLE = {"kind": "rectangle", "bounds": [0.0, 1.0, 0.0, 0.5], "boundary": "dirichlet"}
NEUMANN_INTERVAL = {"kind": "interval", "bounds": [0.0, 1.0], "boundary": "neumann"}
DRIFT_INTERVAL = {"kind": "interval", "bounds": [0.0, 1.0], "boundary": "dirichlet",
                  "potential": {"nodes": np.linspace(0.0, 1.0, 17).tolist(),
                                "values": np.linspace(0.0, 2.0, 17).tolist()}}


def _density_nu(nodes, values):
    return {"nu": {"kind": "density_mu", "nodes": nodes, "values": values}}


def _bounds(*bounds):
    return {"domain": dict(BASE_CONFIG["domain"], bounds=list(bounds))}


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
    "nu-density-rectangle": ({"domain": RECTANGLE, **_density_nu([0.0, 1.0], [1.0, 1.0])},
                             "nu.kind 'density_mu' needs an interval domain"),
    "nu-values-nan": (_density_nu([0.0, 0.5, 1.0], [1.0, float("nan"), 1.0]),
                      "nu.nodes and nu.values must be lists of finite numbers"),
    "nu-values-one": (_density_nu([0.0], [1.0]), "of one length, at least 2"),
    "nu-nodes-str": (_density_nu("0 1", [1.0, 1.0]), "nu.nodes and nu.values must be lists"),
    "nu-density-lengths": (_density_nu([0.0, 0.5, 1.0], [1.0, 1.0]), "of one length"),
    "nu-nodes-order": (_density_nu([0.0, 0.6, 0.5, 1.0], [1.0] * 4),
                       "nu.nodes must be strictly increasing and cover \\[0, 1\\]"),
    "nu-nodes-inside": (_density_nu([0.2, 0.5, 0.8], [1.0] * 3),
                        "nu.nodes must be strictly increasing and cover \\[0, 1\\]"),
    "nu-point-two-on-interval": ({"nu": {"kind": "point", "x": [0.3, 0.4]}},
                                 "nu.x must hold 1 finite number"),
    "nu-point-one-on-rectangle": ({"domain": RECTANGLE, "nu": {"kind": "point", "x": 0.3}},
                                  "nu.x must hold 2 finite number"),
    "nu-point-str": ({"nu": {"kind": "point", "x": "middle"}}, "nu.x must hold 1 finite number"),
    "nu-point-on-killed-face": ({"nu": {"kind": "point", "x": 0.0}},
                                "nu.x must lie strictly inside the killed domain"),
    "nu-point-outside-killed": ({"nu": {"kind": "point", "x": 1.5}},
                                "nu.x must lie strictly inside the killed domain"),
    "nu-point-on-rectangle-face": ({"domain": RECTANGLE, "nu": {"kind": "point", "x": [0.0, 0.2]}},
                                   "nu.x must lie strictly inside the killed domain"),
    # cos k pi x is even about 1: x = 1.5 would run as x = 0.5
    "nu-point-outside-reflecting": ({"domain": NEUMANN_INTERVAL,
                                     "nu": {"kind": "point", "x": 1.5}},
                                    "nu.x must lie in the reflecting domain"),
    "mc.resample-str": ({"mc": {"resample": "no"}}, "mc.resample must be true or false"),
    "mc.resample-int": ({"mc": {"resample": 1}}, "mc.resample must be true or false"),
    "nu-values-negative": (_density_nu([0.0, 0.5, 1.0], [1.5, -0.01, 1.5]),
                           "nu.values must be nonnegative"),
    "nu-density-mass": (_density_nu([0.0, 1.0], [1.0, 2.0]),
                        "nu.values must have mass 1 against mu \\(within 1e-8\\), got 1.5"),
    # 1/2 + x has mass 1 against dx, not against e^{2x} dx / Z
    "nu-density-mass-drift": ({"domain": DRIFT_INTERVAL, **_density_nu([0.0, 0.5, 1.0],
                                                                       [0.5, 1.0, 1.5])},
                              "nu.values must have mass 1 against mu"),
    "modes-frac": ({"modes": 2.5}, "modes must be an integer, got 2.5"),
    "modes-bool": ({"modes": True}, "modes must be an integer, got True"),
    "grid_nodes-str": ({"grid_nodes": "4097"}, "grid_nodes must be an integer, got '4097'"),
    "seed-str": ({"seed": "x"}, "seed must be an integer, got 'x'"),
    "seed-bool": ({"seed": False}, "seed must be an integer, got False"),
    "seed-negative": ({"seed": -1}, "seed must be in \\[0, 2\\^63\\), got -1"),
    "seed-2^63": ({"seed": 2**63}, "seed must be in \\[0, 2\\^63\\)"),
    "tol-str": ({"tol": "1e-8"}, "tol must be a finite positive number, got '1e-8'"),
    "modes_limit": ({"modes_limit": 2000}, "unknown config keys: \\['modes_limit'\\]"),
    # times are read as given: JSON NaN and Infinity, true and "2" are not times
    "times-nan": ({"times": [float("nan")]}, "times must be a nonempty list of positive times"),
    "times-inf": ({"times": [2.0, float("inf")]}, "times must be a nonempty list"),
    "times-bool": ({"times": [True, 2.0]}, "times must be a nonempty list"),
    "times-str": ({"times": ["2", "4"]}, "times must be a nonempty list"),
    "mc.slope_times-inf": ({"mc": {"slope_times": [0.2, float("inf")]}},
                           "mc.slope_times must be a nonempty list of positive, finite"),
    # the key sets are closed below the top level too: these ran as nu = mu and V = 0
    "nu-mu-x": ({"nu": {"x": 0.3}}, "unknown nu keys: \\['x'\\]"),
    "nu-point-values": ({"nu": {"kind": "point", "x": 0.5, "values": [1.0]}},
                        "unknown nu keys: \\['values'\\]"),
    "domain-potental": ({"domain": dict(BASE_CONFIG["domain"],
                                        potental=DRIFT_INTERVAL["potential"])},
                        "unknown domain keys: \\['potental'\\]"),
    "domain.potential-knots": ({"domain": dict(DRIFT_INTERVAL, potential=dict(
        DRIFT_INTERVAL["potential"], knots=[0.0, 1.0]))},
                               "unknown domain.potential keys: \\['knots'\\]"),
    "sl_grid": ({"sl_grid": 2000}, "unknown config keys: \\['sl_grid'\\]"),
    # JSON integers beyond the float range: float() and np.isfinite raise on them
    "modes-huge": ({"modes": 10**400}, "modes must be an integer, got 1000"),
    "times-huge": ({"times": [2.0, 10**400]}, "times must be a nonempty list"),
    "seed-huge": ({"seed": 10**400}, "seed must be an integer, got 1000"),
    "tol-huge": ({"tol": 10**400}, "tol must be a finite positive number"),
    "mc.n_paths-huge": ({"mc": {"n_paths": 10**400}},
                        "mc.n_paths must be an integer of at least 1"),
    "mc.horizon-huge": ({"mc": {"horizon": 10**400}}, "mc.horizon must be finite and positive"),
    # (pi/L)^2 of 0 or inf, and bounds read by float(): limit grew its mode
    # index box until killed, ran as [0, 1], or raised OverflowError
    "domain.bounds-1e308": (_bounds(0, 1e308), "domain.bounds give an axis of length 1e\\+308"),
    "domain.bounds-inf": (_bounds(0, float("inf")), "domain.bounds must be a 1D list of finite"),
    "domain.bounds-inf-length": (_bounds(-1e308, 1e308),
                                 "domain.bounds give an axis of length inf: \\(pi/L\\)\\^2 = 0.0"),
    "domain.bounds-tiny": (_bounds(0, 1e-200), "domain.bounds give an axis of length 1e-200"),
    "domain.bounds-bool": (_bounds(0, True), "domain.bounds must be a 1D list of finite"),
    "domain.bounds-str": (_bounds("0", 1), "domain.bounds must be a 1D list of finite"),
    "domain.bounds-huge": (_bounds(0, 10**400), "domain.bounds must be a 1D list of finite"),
    "domain.potential-huge": ({"domain": dict(DRIFT_INTERVAL, potential={
        "nodes": DRIFT_INTERVAL["potential"]["nodes"],
        "values": [10**400] * 17})}, "domain.potential.values must be a 1D list of finite"),
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


@pytest.mark.parametrize("domain", [RECTANGLE, NEUMANN_INTERVAL, DRIFT_INTERVAL],
                         ids=["rectangle", "neumann", "drift"])
def test_domain_round_trips_through_the_config(domain):
    dom = ExperimentConfig.from_dict(dict(BASE_CONFIG, domain=domain)).domain
    again = ExperimentConfig.from_dict(dict(BASE_CONFIG, domain=dom.to_dict())).domain
    assert again.to_dict() == dom.to_dict()


def test_infinite_slope_time_stops_mc_at_load(tmp_path, capsys):
    path = write_config(tmp_path, mc={"slope_times": [0.2, float("inf")]})
    assert run_cli("mc", "--config", str(path), "--out", str(tmp_path / "res")) == 2
    assert "error: mc.slope_times must be" in capsys.readouterr().err


def test_density_start_with_mass_1_against_mu_loads():
    # e^{-2x} (2 / (1 - e^{-2})) integrates to 1 against e^{2x} dx / Z: its
    # PCHIP table on 2049 nodes meets the 1e-8 of the load-time check
    x = np.linspace(0.0, 1.0, 2049)
    Z = (np.exp(2.0) - 1.0) / 2.0
    values = (np.exp(-2.0 * x) * Z).tolist()
    doc = dict(BASE_CONFIG, domain=DRIFT_INTERVAL, **_density_nu(x.tolist(), values))
    assert ExperimentConfig.from_dict(doc).nu_spec["values"] == values


def test_n_quantiles_is_accepted_and_ignored():
    # no row inverts quantile levels: any value loads and changes nothing
    doc = {k: v for k, v in BASE_CONFIG.items() if k != "n_quantiles"}
    doc.update(times=[2.0], modes=16)
    rows = run_convergence(ExperimentConfig.from_dict(doc)).rows
    for value in (0, 3999, 20000.5, "many", 100_000):
        cfg = ExperimentConfig.from_dict(dict(doc, n_quantiles=value))
        assert not hasattr(cfg, "n_quantiles")
        assert run_convergence(cfg).rows == rows


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


MC_WINDOWS = {     # dt 1e-3 and horizon 1 unless overridden
    "two-on-one-step": ({"slope_times": [0.1, 0.1004]}, "mc.slope_times must lie on distinct"),
    "on-step-0": ({"slope_times": [0.0004, 0.1]}, "mc.slope_times must lie on distinct"),
    "past-horizon": ({"slope_times": [0.5, 1.5]}, "mc.slope_times must lie on distinct"),
    "dt-coarse": ({"dt": 0.02}, "mc.dt must not exceed the MC horizon/100"),
    "one-time": ({"slope_times": [0.2]}, "mc.slope_times needs at least two times"),
}


@pytest.mark.parametrize("mc, message", MC_WINDOWS.values(), ids=MC_WINDOWS)
def test_mc_window_rejected_before_the_basis(tmp_path, capsys, monkeypatch, mc, message):
    # the window is checked where mc runs: a config that never runs mc still loads
    path = write_config(tmp_path, mc={"dt": 1e-3, "horizon": 1.0, **mc})
    cfg = ExperimentConfig.load(path)
    out = str(tmp_path / "res")
    with monkeypatch.context() as m:
        m.setattr(ExperimentConfig, "build_basis", _no_basis)
        with pytest.raises(ConfigError, match=message):
            run_mc_crosscheck(cfg)
        assert run_cli("mc", "--config", str(path), "--out", out) == 2
        assert f"error: {message}" in capsys.readouterr().err
    assert run_cli("limit", "--config", str(path), "--out", out) == 0


def _start(kind, domain):
    if kind == "point":
        return {"kind": "point", "x": 0.3 if domain == "interval" else [0.3, 0.2]}
    if kind == "density_mu":     # 1/2 + x: its PCHIP interpolant is exact
        return {"kind": "density_mu", "nodes": [0.0, 0.5, 1.0], "values": [0.5, 1.0, 1.5]}
    return {"kind": kind}


@pytest.mark.parametrize("domain", ["interval", "rectangle"])
@pytest.mark.parametrize("kind", ["mu", "mu0", "point", "density_mu"])
def test_every_start_runs_limit_or_is_rejected_at_load(tmp_path, kind, domain):
    # a point start on a rectangle leaves a 1.5e-5 tail at 24 modes: tol 1e-4
    doc = dict(BASE_CONFIG, nu=_start(kind, domain), modes=24, tol=1e-4)
    if domain == "rectangle":
        doc["domain"] = RECTANGLE
    if (kind, domain) == ("density_mu", "rectangle"):
        with pytest.raises(ConfigError, match="nu.kind 'density_mu' needs an interval"):
            ExperimentConfig.from_dict(doc)
        return
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "res"
    assert run_cli("limit", "--config", str(path), "--out", str(out)) == 0
    limit = json.loads((out / "limit.json").read_text())
    assert limit["positive"] and limit["finiteness"] == "guaranteed(d<=6)"
    if kind == "mu0":
        # nu(phi_0) = mu(phi_0^3): 8 sqrt(2) / 3 pi per axis
        axis = 8.0 * np.sqrt(2.0) / (3.0 * np.pi)
        want = axis if domain == "interval" else axis**2
        assert limit["inputs"]["nu"][0] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("name", sorted(os.listdir(CONFIGS)))
def test_shipped_config_runs_limit(tmp_path, name):
    # a load-time check can never reject a config the repository ships
    out = tmp_path / "res"
    assert run_cli("limit", "--config", os.path.join(CONFIGS, name), "--out", str(out)) == 0
    assert json.loads((out / "limit.json").read_text())["positive"]


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


@pytest.mark.parametrize("name, overrides", [("convergence_mu.json", {"modes": 32}),
                                             ("neumann_delta0.json", {})])
def test_spectral_rows_do_not_depend_on_the_fine_grid(name, overrides):
    # on 3 grid nodes the grid quantile route returned W2 = 0, declaring 1e-15
    with open(os.path.join(CONFIGS, name)) as fh:
        doc = dict(json.load(fh), out=None, **overrides)
    coarse, fine = (run_convergence(ExperimentConfig.from_dict(dict(doc, grid_nodes=n))).rows
                    for n in (3, 8193))
    for c, f in zip(coarse, fine):
        assert abs(c["w2"] ** 2 - f["w2"] ** 2) <= c["w2_error"] + f["w2_error"]


def test_reflecting_delta0_rows_meet_the_closed_form_within_their_error():
    # reflecting with V = 0: t^2 W2^2 = 2/945 up to e^{-lambda_1 t} and a
    # truncation of 2e-17 at 512 modes, no tail slack
    with open(os.path.join(CONFIGS, "neumann_delta0.json")) as fh:
        doc = dict(json.load(fh), out=None)
    for row in run_convergence(ExperimentConfig.from_dict(doc)).rows:
        assert abs(row["t2w2sq"] - 2.0 / 945.0) <= row["t"] ** 2 * row["w2_error"]


@pytest.mark.parametrize("nu", ["mu", "mu0"])
def test_reflecting_drift_start_at_mu_converges(tmp_path, nu):
    # the occupation of a start at mu (mu0 = mu when reflecting) is mu: W2^2
    # sits at the rounding floor of the series, ~1e-20, where the
    # displacement Newton's relative stop is never met
    nodes = np.linspace(0.0, 1.0, 41).tolist()
    domain = dict(NEUMANN_INTERVAL, potential={"nodes": nodes, "values": [2 * x for x in nodes]})
    path = write_config(tmp_path, domain=domain, nu={"kind": nu}, times=[2.0, 4.0], modes=128)
    out = str(tmp_path / "res")
    assert run_cli("converge", "--config", str(path), "--out", out) == 0
    with open(os.path.join(out, "convergence.json")) as fh:
        rows = json.load(fh)["rows"]
    assert [r["t"] for r in rows] == [2.0, 4.0]
    assert all(r["w2"] ** 2 <= 1e-18 for r in rows)


def test_reflecting_routes_build_no_mode_table(monkeypatch):
    # every reflecting route reads closed-form modes at points, through the
    # cosine fold or the transport equation: the M x N Gauss-grid table is
    # never tabulated
    shapes, bases = [], []
    tensor_modes, build = spectral._tensor_modes, ExperimentConfig.build_basis

    def recording(*args, **kwargs):
        table = tensor_modes(*args, **kwargs)
        shapes.append(table.shape)
        return table

    monkeypatch.setattr(spectral, "_tensor_modes", recording)
    monkeypatch.setattr(ExperimentConfig, "build_basis",
                        lambda cfg: bases.append(build(cfg)) or bases[-1])
    with open(os.path.join(CONFIGS, "neumann_delta0.json")) as fh:
        doc = dict(json.load(fh), out=None)
    for method in harness.W2_METHODS:
        run_convergence(ExperimentConfig.from_dict(dict(doc, w2_method=method)))
    assert len(bases) == 3 and not any("eigenfunctions" in vars(b) for b in bases)
    assert shapes and all(1 in shape for shape in shapes), set(shapes)


def test_killed_lower_bound_reads_the_upper_bounds_potential(monkeypatch):
    # both sides of the sandwich read one H^-1(mu_0) potential of h_t - 1:
    # the rows neither build rho_tilde nor project nu and mu again
    def refuse(*args, **kwargs):
        raise AssertionError("killed rows rebuilt the potential")

    for name in ("rho_tilde", "project", "mu_coefficients"):
        monkeypatch.setattr(harness, name, refuse)
    uppers, duals = [], []
    upper, lower = harness.h_minus1_upper_bound, harness.kantorovich_dual_lower
    monkeypatch.setattr(harness, "h_minus1_upper_bound",
                        lambda h, basis: uppers.append(upper(h, basis)) or uppers[-1])
    monkeypatch.setattr(harness, "kantorovich_dual_lower",
                        lambda m1, m2, f, f_nodes: duals.append((f, f_nodes))
                        or lower(m1, m2, f, f_nodes))
    config = ExperimentConfig.from_dict(dict(BASE_CONFIG, times=[2.0, 4.0], modes=32))
    basis = config.build_basis()
    rows = harness.killed_rows(config, basis, config.times)
    xs = np.linspace(0.0, 1.0, 4097)
    ratio = basis.eval_ratio(xs)
    assert len(uppers) == len(duals) == len(rows) == 2
    for row, up, (f, f_nodes) in zip(rows, uppers, duals):
        assert np.array_equal(f_nodes, xs)
        assert np.array_equal(f, up["potential"] @ ratio)
        assert row["ordered"] and 0.0 < row["lower"] <= row["w2sq"]


def test_occupation_measures_are_each_times_own_series():
    # each t's density is bitwise the mean occupation series on the fine grid
    basis = build_analytic_basis(unit_interval(boundary=NEUMANN), 512)
    nu_c = project(InitialDistribution.from_point(0.0), basis)
    times, x = [4.0, 8.0, 16.0], np.linspace(0.0, 1.0, 8193)
    for t in times:
        got = mean_occupation_measure(nu_c, basis, t, x.size)
        own = np.maximum(mean_empirical_density(nu_c, basis, t, n_nodes=x.size), 0.0)
        expected = GridMeasure.normalized(x, own * basis.mu_lebesgue_at(x))
        assert np.array_equal(got.lebesgue_density, expected.lebesgue_density)


@pytest.mark.parametrize("potential", [False, True])
def test_spectral_measure_is_the_ratio_series(potential):
    # the density h_t phi_0^2 mu, summed by the ratio table of h_t, to 1e-12
    # of its peak: closed-form modes, and the table path of V(x) = 2x
    nodes = np.linspace(0.0, 1.0, 65)
    dom = unit_interval(potential=Potential(nodes, 2.0 * nodes) if potential else None)
    basis = (solve_sturm_liouville(dom, 32, 2000) if potential
             else build_analytic_basis(dom, 128))
    x = np.linspace(0.0, 1.0, 4097)
    for t in (0.1, 2.0, 16.0):
        cd = conditional_density(InitialDistribution.from_mu(), basis, t)
        table = (np.maximum(cd.evaluate(x), 0.0) * basis.eval_modes(x, modes=[0])[0] ** 2
                 * basis.mu_lebesgue_at(x))
        expected = GridMeasure.normalized(x, table).lebesgue_density
        got = spectral_measure(cd, basis, x.size).lebesgue_density
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(expected)


def test_spectral_measure_builds_no_mode_table():
    # one float64 table of M = 512 modes on 8193 nodes is 33.6 MB; the
    # measure's traced peak stays below a quarter of it
    basis = build_analytic_basis(unit_interval(), 512)
    cd = conditional_density(InitialDistribution.from_mu(), basis, 4.0)
    spectral_measure(cd, basis, 8193)           # first-call imports stay untraced
    tracemalloc.start()
    try:
        spectral_measure(cd, basis, 8193)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 8193 * 8 / 4


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
