"""The benchmark's workloads: inputs, one pass, and correctness checks.

Each workload builds its configs from a shipped file in ``configs/``,
runs one pass through the same harness functions the ``converge``,
``sandwich`` and ``mc`` subcommands call, and checks the pass against
references that do not come from the code under test: closed forms,
binomial error bars and the program's own declared error estimates.

killed_converge  -- configs/convergence_mu.json: quantile inversion and the
                    certified dual lower bound dominate; no LP, Sinkhorn or MC.
neumann_routes   -- configs/neumann_delta0.json once per W2 route: the HiGHS
                    LP and Sinkhorn dominate; reflecting branches at M = 512.
mc_crosscheck    -- configs/mc_crosscheck.json shrunk to 16384 paths and 8
                    islands: path simulation, then 400 repeated Newton
                    inversions of one reference measure in the bootstrap.

The two spectral workloads are deterministic; their seed only stamps the
provenance fields of the output.  The MC workload draws its streams from it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from condemp.harness import (ExperimentConfig, run_convergence,  # noqa: E402
                             run_mc_crosscheck, run_sandwich)

ROUTES = ("quantile1d", "exact-discrete", "entropic")
SANDWICH_T = 4.0
# The shipped MC config (98304 paths, 24 islands) takes ~170 s a pass.  At
# 8192 paths the shipped slope checkpoint 0.8 has no survivors and the run
# raises SimulationError, so the slope window moves to [0.1, 0.4], where
# 16384 paths leave a few hundred survivors at the last checkpoint.
MC_SIZE = {"n_paths": 16384, "islands": 8, "slope_times": [0.1, 0.2, 0.3, 0.4]}
SLOPE_Z = 4.0          # slope check: |slope + lambda_0| within 4 standard errors

WORKLOADS = {      # name -> why, as in BENCHMARK.json
    "killed_converge": "Dirichlet nu=mu, M=128: quantile inversion ~2/3 and the certified "
                       "dual lower bound ~1/4 of a pass; no LP, Sinkhorn or MC",
    "neumann_routes": "reflecting delta_0, M=512, all three W2 routes: HiGHS LP plus "
                      "Sinkhorn ~3/4 of a pass, quantile layer ~1/10",
    "mc_crosscheck": "killed MC with branching: path simulation over half a pass, then "
                     "400 repeated inversions of one reference measure",
}


class Check(NamedTuple):
    """One pass/fail check.  `reference` checks compare an output with an
    independent reference and decide the run's `correct`; the others test a
    declared error estimate and count only in `failed`."""
    name: str
    ok: bool
    detail: str
    reference: bool = True


def _shipped(name: str) -> dict:
    with open(ROOT / "configs" / name) as fh:
        return json.load(fh)


def _config(doc: dict, seed: int, out: Path, overrides: dict | None) -> ExperimentConfig:
    doc = dict(doc, seed=seed, out=str(out))
    for key, value in (overrides or {}).items():
        doc[key] = dict(doc[key], **value) if key == "mc" else value
    return ExperimentConfig.from_dict(doc)


def prepare(name: str, seed: int, overrides: dict | None = None) -> dict:
    """Validated configs for one workload; `overrides` shrinks it in tests."""
    out = OUT / name
    if name == "killed_converge":
        return {"cfg": _config(_shipped("convergence_mu.json"), seed, out, overrides)}
    if name == "neumann_routes":
        doc = _shipped("neumann_delta0.json")
        return {r: _config(dict(doc, w2_method=r), seed, out / r, overrides) for r in ROUTES}
    if name == "mc_crosscheck":
        doc = _shipped("mc_crosscheck.json")
        doc["mc"] = dict(doc["mc"], **MC_SIZE)
        return {"cfg": _config(doc, seed, out, overrides)}
    raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")


def run_pass(name: str, state: dict) -> dict:
    if name == "killed_converge":
        cfg = state["cfg"]
        return {"convergence": run_convergence(cfg), "sandwich": run_sandwich(cfg, SANDWICH_T)}
    if name == "neumann_routes":
        return {r: run_convergence(cfg) for r, cfg in state.items()}
    return {"mc": run_mc_crosscheck(state["cfg"])}


def evaluate(name: str, state: dict, result: dict) -> tuple[list, dict]:
    """Correctness checks and the accuracy figures of one pass."""
    if name == "killed_converge":
        return _evaluate_killed(result)
    if name == "neumann_routes":
        return _evaluate_neumann(result)
    return _evaluate_mc(state["cfg"], result["mc"])


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def killed_limit_oracle() -> float:
    """I for nu = mu on the unit Dirichlet interval, by its closed-form series."""
    k = np.arange(3, 200_001, 2, dtype=float)
    return float(4.0 / np.pi**6 * np.sum(1.0 / (k**2 * (k**2 - 1.0) ** 3)))


NEUMANN_DELTA0_LIMIT = 2.0 / 945.0     # sum_m 2 / (m pi)^6 for delta_0 on [0, 1]


def uniform_survival(t: float, length: float) -> float:
    """P(tau > t) for Brownian motion with generator Laplacian, started
    uniformly on a killed interval: sum over odd k of 8/(k pi)^2 e^{-lambda_k t}."""
    k = np.arange(1, 401, 2, dtype=float)
    lam = (k * np.pi / length) ** 2
    return float(np.sum(8.0 / (k * np.pi) ** 2 * np.exp(-lam * t)))


def _strictly_decreasing(values) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


def _coverage(route_rows, ref_rows) -> float:
    """max over t of |W2^2_route - W2^2_ref| / (err_route + err_ref)."""
    return max(abs(r["w2"] ** 2 - q["w2"] ** 2) / (r["w2_error"] + q["w2_error"])
               for r, q in zip(route_rows, ref_rows))


# ---------------------------------------------------------------------------
# per-workload evaluation
# ---------------------------------------------------------------------------

def _evaluate_killed(result: dict):
    rep, sw = result["convergence"], result["sandwich"]
    oracle = killed_limit_oracle()
    err_I = abs(rep.limit.I_value - oracle)
    gaps = [abs(r["rel_gap"]) for r in rep.rows]
    checks = [
        Check("limit_matches_oracle", err_I <= rep.limit.tail_bound + 1e-12,
              f"|I - oracle| = {err_I:.3e}, tail bound {rep.limit.tail_bound:.3e}"),
        Check("gap_shrinks_last_three", _strictly_decreasing(gaps[-3:]),
              f"|t^2 W2^2 / I - 1| = {[f'{g:.5f}' for g in gaps]}"),
        Check("sandwich_ordered",
              sw["ordered"] and sw["lower"] < sw["w2sq"] + sw["w2_error"]
              and sw["w2sq"] < sw["upper"] + sw["w2_error"],
              f"{sw['lower']:.6e} <= {sw['w2sq']:.6e} <= {sw['upper']:.6e} "
              f"(+- {sw['w2_error']:.1e}) at t = {sw['t']:g}"),
    ]
    accuracy = {"limit_rel_gap": gaps[-1], "gap_exponent": rep.gap_exponent,
                "limit_abs_err": err_I}
    return checks, accuracy


def _evaluate_neumann(result: dict):
    ref = result["quantile1d"]
    checks = []
    for r in ROUTES:
        err_I = abs(result[r].limit.I_value - NEUMANN_DELTA0_LIMIT)
        checks.append(Check(f"limit_matches_2/945[{r}]", err_I <= 1e-9,
                            f"|I - 2/945| = {err_I:.3e} (tol 1e-9)"))
    for row in ref.rows:
        # the reflecting gap decays like e^{-lambda_1 t}: beyond t = 2 the
        # rescaled quantile-route distance equals 2/945 up to its own error
        dev = abs(row["t2w2sq"] - NEUMANN_DELTA0_LIMIT)
        tol = row["t"] ** 2 * row["w2_error"] + row["tail_bound"] + 1e-9 * NEUMANN_DELTA0_LIMIT
        checks.append(Check(f"quantile_matches_2/945[t={row['t']:g}]", dev <= tol,
                            f"|t^2 W2^2 - 2/945| = {dev:.3e}, tol {tol:.3e}"))
    accuracy = {"limit_rel_gap": abs(ref.rows[-1]["rel_gap"])}
    for r in ROUTES[1:]:
        accuracy[f"err_coverage.{r}"] = _coverage(result[r].rows, ref.rows)
    return checks, accuracy


def slope_se(times, n_paths: int, length: float) -> float:
    """Standard error of the harness's survival-slope fit under the exact
    survival law: log-survivor increments between checkpoints are
    independent with variance 1/E N_{t_i} - 1/E N_{t_(i-1)}, and the fit
    (np.polyfit, residual weights sqrt(counts)) is linear in them."""
    t = np.asarray(times, dtype=float)
    counts = n_paths * np.array([uniform_survival(x, length) for x in t])
    tc = t - np.dot(counts, t) / counts.sum()
    c = counts * tc / np.dot(counts, tc**2)
    inc_var = np.diff(np.concatenate([[1.0 / n_paths], 1.0 / counts]))
    reach = np.cumsum(c[::-1])[::-1]      # weight of increment j in the slope
    return float(np.sqrt(np.dot(inc_var, reach**2)))


def _evaluate_mc(cfg: ExperimentConfig, out: dict):
    a, b = cfg.domain.bounds
    se = slope_se(cfg.mc["slope_times"], cfg.mc["n_paths"], b - a)
    slope_dev = abs(out["survival_slope"] + (np.pi / (b - a)) ** 2)
    coverage = out["w2_occupation"] / (3.0 * out["w2_bootstrap_se"])
    checks = [
        Check("survival_slope", slope_dev <= SLOPE_Z * se,
              f"|slope + lambda_0| = {slope_dev:.4f}, {SLOPE_Z:g} SE = {SLOPE_Z * se:.4f}"),
        Check("w2_within_declared_error", coverage <= 1.0,
              f"W2 {out['w2_occupation']:.3e} / (3 bootstrap SE "
              f"{3 * out['w2_bootstrap_se']:.3e}) = {coverage:.3f} (<= 1)",
              reference=False),
    ]
    accuracy = {"err_coverage.mc": coverage, "slope_rel_err": out["slope_rel_err"],
                "slope_z": slope_dev / se, "w1_occupation": out["w1_occupation"]}
    return checks, accuracy
