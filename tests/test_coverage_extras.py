"""Remaining operation surfaces: the MC cross-check runner and the
mode-doubling stability of reported distances."""

import json

import numpy as np
import pytest

from condemp import harness
from condemp.cli import main as cli_main
from condemp.harness import ExperimentConfig, run_convergence, run_mc_crosscheck
from condemp.mc import simulate


def test_mc_crosscheck_runner(tmp_path, monkeypatch):
    summaries = []

    def counted(sim_config):
        summaries.append(simulate(sim_config))
        return summaries[-1]

    monkeypatch.setattr(harness, "simulate", counted)
    cfg = ExperimentConfig.from_dict({
        "version": "1",
        "domain": {"kind": "interval", "bounds": [0.0, 1.0],
                   "boundary": "dirichlet"},
        "nu": {"kind": "mu"},
        "times": [1.0],
        "modes": 48,
        "grid_nodes": 4097,
        "seed": 11,
        "mc": {"dt": 1e-3, "n_paths": 20_000, "islands": 10,
               "slope_times": [0.1, 0.2, 0.3], "horizon": 1.0},
        "out": str(tmp_path / "mc"),
    })
    out = run_mc_crosscheck(cfg)
    # one ensemble: the slope is the weighted fit to its own checkpoints
    assert len(summaries) == 1
    ts = [0.1, 0.2, 0.3]
    counts = np.array([summaries[0].checkpoint_survival[t] * 20_000 for t in ts])
    assert out["survival_slope"] == np.polyfit(ts, np.log(counts), 1, w=np.sqrt(counts))[0]
    assert out["slope_rel_err"] <= 0.10
    assert out["resample"] is True          # survival at t=1 is ~5e-5
    assert out["w2_occupation"] <= 10 * out["w2_bootstrap_se"]
    assert out["w1_final_vs_quasi_ergodic"] < 0.2 * out["w1_final_vs_mu0"]
    doc = json.loads((tmp_path / "mc" / "mc_crosscheck.json").read_text())
    assert doc["seed"] == 11


def test_mc_crosscheck_runner_neumann(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "version": "1",
        "domain": {"kind": "interval", "bounds": [0.0, 1.0],
                   "boundary": "neumann"},
        "nu": {"kind": "mu"},
        "times": [3.0],
        "modes": 48,
        "grid_nodes": 4097,
        "seed": 12,
        "mc": {"dt": 2e-3, "n_paths": 10_000},
    })
    out = run_mc_crosscheck(cfg)
    assert out["w1_occupation"] <= 6 * out["histogram_max_se"]


def test_cli_project_and_mc(tmp_path, capsys):
    cfg = {
        "version": "1",
        "domain": {"kind": "interval", "bounds": [0.0, 1.0],
                   "boundary": "dirichlet"},
        "nu": {"kind": "point", "x": 0.5},
        "times": [0.5],
        "modes": 32,
        "grid_nodes": 2049,
        "seed": 5,
        "mc": {"dt": 1e-3, "n_paths": 8_000, "islands": 8,
               "slope_times": [0.1, 0.2], "horizon": 0.5},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = str(tmp_path / "res")
    assert cli_main(["project", "--config", str(path), "--out", out]) == 0
    doc = json.loads((tmp_path / "res" / "coefficients.json").read_text())
    assert doc["nu"][0] == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert cli_main(["mc", "--config", str(path), "--out", out]) == 0
    assert (tmp_path / "res" / "mc_crosscheck.json").exists()
    printed = capsys.readouterr().out
    assert "project: wrote 32 coefficients" in printed
    assert "mc: survival_slope=" in printed


def test_w2_stable_under_mode_doubling(tmp_path):
    # the harness invariant: doubling M moves each reported distance by no
    # more than the combined reported tolerances
    rows = {}
    reports = {}
    for M in (48, 96):
        cfg = ExperimentConfig.from_dict({
            "version": "1",
            "domain": {"kind": "interval", "bounds": [0.0, 1.0],
                       "boundary": "dirichlet"},
            "nu": {"kind": "mu"},
            "times": [1.0, 2.0],
            "modes": M,
            "n_quantiles": 40_000,
            "grid_nodes": 4097,
            "seed": 3,
        })
        rep = run_convergence(cfg)
        rows[M] = rep.rows
        reports[M] = rep
    assert abs(reports[96].limit.I_value - reports[48].limit.I_value) \
        <= reports[48].limit.tail_bound
    for r48, r96 in zip(rows[48], rows[96]):
        budget = r48["tail_bound"] + r48["w2_error"] + r96["w2_error"] + 1e-12
        assert abs(r48["w2"] ** 2 - r96["w2"] ** 2) <= budget
