"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v tests/test_acceptance.py` (or `pytest -s` to see the
measured numbers inline).  Every tolerance is stated in the assertion.
"""

import sys
import time

import numpy as np
import pytest

from condemp import (build_analytic_basis, compute_I, compute_I_neumann,
                     mu_coefficients, project, solve_sturm_liouville,
                     unit_interval)
from condemp.domains import NEUMANN
from condemp.harness import (ExperimentConfig, mean_occupation_measure,
                             mu0_measure, run_convergence, run_sandwich,
                             spectral_measure)
from condemp.measures import GridMeasure, InitialDistribution
from condemp.mc import SimulationConfig, conditional_empirical_w2, simulate
from condemp.semigroup import (conditional_density, exp_time_integral_pair,
                               survival_probability)
from condemp.spectral import analytic_eigenvalues
from condemp.transport import (h_minus1_upper_bound, kantorovich_dual_lower,
                               logarithmic_mean, w1_grid_1d, w2_entropic,
                               w2_exact_discrete, w2_quantile_1d)

PI = np.pi
PI2 = np.pi**2


def report(criterion: str, ok: bool, detail: str):
    line = f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, file=sys.stderr)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. eigenbasis fidelity
# ---------------------------------------------------------------------------

def test_criterion_1_eigenbasis_fidelity():
    t0 = time.time()
    basis = solve_sturm_liouville(unit_interval(), 20, 2000)
    exact = ((np.arange(20) + 1) * PI) ** 2
    rel = float(np.max(np.abs(basis.eigenvalues - exact) / exact))
    ortho = basis.orthonormality_residual()
    elapsed = time.time() - t0
    ok = rel <= 1e-6 and ortho <= 1e-8 and elapsed < 5.0
    report("criterion-1 eigenbasis",
           ok, f"max rel eigenvalue err {rel:.2e} (tol 1e-6), "
               f"orthonormality {ortho:.2e} (tol 1e-8), runtime {elapsed:.2f}s (<5s)")


# ---------------------------------------------------------------------------
# 2. Neumann closed form + full pipeline
# ---------------------------------------------------------------------------

def test_criterion_2_neumann_closed_form_and_pipeline():
    t0 = time.time()
    target = 2.0 / 945.0
    dom = unit_interval(boundary=NEUMANN)
    lam = analytic_eigenvalues(dom, 2000)
    nu_c = np.concatenate([[1.0], np.sqrt(2.0) * np.ones(1999)])
    rep = compute_I_neumann(nu_c, lam)
    err_I = abs(rep.I_value - target)

    basis = build_analytic_basis(dom, 512)
    nu = InitialDistribution.from_point(0.0)
    coeffs = project(nu, basis)
    t = 16.0
    occ = mean_occupation_measure(coeffs, basis, t, n_nodes=8193)
    ref = mu0_measure(basis, n_nodes=8193)
    res = w2_quantile_1d(occ, ref, n_quantiles=100_000)
    rel_gap = abs(t * t * res.w2_squared - target) / target
    elapsed = time.time() - t0
    ok = err_I <= 1e-9 and rel_gap <= 0.02 and elapsed < 60.0
    report("criterion-2 neumann",
           ok, f"|I-2/945|={err_I:.2e} (tol 1e-9), pipeline gap {rel_gap:.4f} "
               f"(tol 0.02) at t=16, runtime {elapsed:.1f}s (<60s)")


# ---------------------------------------------------------------------------
# 3. Dirichlet limit and convergence run
# ---------------------------------------------------------------------------

def test_criterion_3_dirichlet_limit_and_convergence():
    t0 = time.time()
    k = np.arange(3, 200_001, 2)
    oracle = 4.0 / PI**6 * np.sum(1.0 / (k**2 * (k**2 - 1.0) ** 3))

    cfg = ExperimentConfig.from_dict({
        "version": "1",
        "domain": {"kind": "interval", "bounds": [0.0, 1.0],
                   "boundary": "dirichlet"},
        "nu": {"kind": "mu"},
        "times": [2.0, 4.0, 8.0, 16.0],
        "modes": 128,
        "n_quantiles": 100_000,
        "grid_nodes": 8193,
        "seed": 20240915,
    })
    report_c = run_convergence(cfg)
    err_I = abs(report_c.limit.I_value - oracle)
    gaps = [abs(r["rel_gap"]) for r in report_c.rows]
    monotone = all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    final_gap = gaps[-1]
    exponent = report_c.gap_exponent
    elapsed = time.time() - t0
    ok = (err_I <= 1e-12 and monotone and final_gap <= 0.1
          and 0.7 <= exponent <= 1.3 and elapsed < 300.0)
    report("criterion-3 dirichlet-limit",
           ok, f"|I-oracle|={err_I:.2e} (tol 1e-12), gaps={['%.5f' % g for g in gaps]} "
               f"monotone={monotone}, final {final_gap:.4f} (tol 0.1), "
               f"exponent {exponent:.3f} (in [0.7,1.3]), runtime {elapsed:.0f}s (<300s)")


# ---------------------------------------------------------------------------
# 4. sandwich
# ---------------------------------------------------------------------------

def test_criterion_4_sandwich():
    cfg = ExperimentConfig.from_dict({
        "version": "1",
        "domain": {"kind": "interval", "bounds": [0.0, 1.0],
                   "boundary": "dirichlet"},
        "nu": {"kind": "mu"},
        "times": [2.0, 4.0, 8.0],
        "modes": 128,
        "n_quantiles": 100_000,
        "grid_nodes": 8193,
    })
    rows = [run_sandwich(cfg, t) for t in (2.0, 4.0, 8.0)]
    ordered = all(r["ordered"] for r in rows)
    strict = all(r["lower"] < r["w2sq"] + r["w2_error"]
                 and r["w2sq"] < r["upper"] + r["w2_error"] for r in rows)
    r8 = rows[-1]
    ratio = r8["upper"] / r8["w2sq"]
    slack = r8["w2_error"] / r8["w2sq"]
    ok = ordered and strict and (1.0 - slack) <= ratio <= 2.0
    report("criterion-4 sandwich",
           ok, f"ordered at t=2,4,8; upper/w2sq at t=8 = {ratio:.6f} "
               f"(in [1,2] within method slack {slack:.1e})")


# ---------------------------------------------------------------------------
# 5. cross-method agreement and metric axioms
# ---------------------------------------------------------------------------

def _random_measure(rng, n=2049):
    x = np.linspace(0, 1, n)
    d = 0.3 * np.ones(n)
    for _ in range(3):
        c, s, a = rng.uniform(0.15, 0.85), rng.uniform(0.04, 0.2), rng.uniform(0.3, 1.5)
        d += a * np.exp(-0.5 * ((x - c) / s) ** 2)
    return GridMeasure.normalized(x, d)


def test_criterion_5_cross_method_agreement():
    rng = np.random.default_rng(555)
    worst_xq = worst_eq = 0.0
    for _ in range(10):
        m1, m2 = _random_measure(rng), _random_measure(rng)
        quant = w2_quantile_1d(m1, m2, n_quantiles=20_000)
        x1, a1 = m1.atomize(192)
        x2, a2 = m2.atomize(192)
        exact = w2_exact_discrete(x1, a1, x2, a2)
        ent = w2_entropic(m1, m2, eps_target=2e-3, atoms=192)
        atom_tol = 2.0 * quant.w2 * (1.0 / 192) / np.sqrt(12.0) + (1.0 / 192) ** 2
        tol_xq = quant.error_estimate + exact.error_estimate + atom_tol
        tol_eq = quant.error_estimate + ent.error_estimate
        worst_xq = max(worst_xq, abs(exact.w2_squared - quant.w2_squared) / tol_xq)
        worst_eq = max(worst_eq, abs(ent.w2_squared - quant.w2_squared) / tol_eq)

    # metric axioms on random triples
    ms = [_random_measure(rng) for _ in range(3)]
    d = np.array([[w2_quantile_1d(a, b, 20_000).w2 for b in ms] for a in ms])
    sym = float(np.max(np.abs(d - d.T)))
    diag = float(np.max(np.diag(d)))
    tri = max(d[i, j] - d[i, k] - d[k, j]
              for i in range(3) for j in range(3) for k in range(3))
    ok = (worst_xq <= 1.0 and worst_eq <= 1.0 and sym <= 1e-9
          and diag <= 1e-9 and tri <= 1e-8)
    report("criterion-5 cross-method",
           ok, f"worst |exact-quant|/tol={worst_xq:.3f}, |ent-quant|/tol={worst_eq:.3f} "
               f"(both <=1), symmetry {sym:.1e}<=1e-9, identity {diag:.1e}, "
               f"triangle defect {tri:.1e}<=1e-8")


# ---------------------------------------------------------------------------
# 6. MC consistency
# ---------------------------------------------------------------------------

def test_criterion_6_mc_consistency():
    t0 = time.time()
    basis = build_analytic_basis(unit_interval(), 128)
    nu = InitialDistribution.from_mu()
    mu_c = mu_coefficients(basis)
    nu_c = project(nu, basis)

    # survival slope: 1e5 paths, dt = 1e-3, feasible window
    times = (0.2, 0.4, 0.6, 0.8)
    slope_sim = simulate(SimulationConfig(
        domain=unit_interval(), dt=1e-3, horizon=0.8, n_paths=100_000,
        seed=31415, initial=nu, boundary_rule="kill", checkpoints=times))
    counts = np.array([slope_sim.checkpoint_survival[t] * 100_000 for t in times])
    slope = np.polyfit(np.array(times), np.log(counts), 1, w=np.sqrt(counts))[0]
    slope_err = abs(slope + PI2) / PI2

    # conditional occupation at t = 2 against the spectral density (killing
    # attrition e^{-pi^2 t} makes direct conditioning infeasible here, so the
    # branching estimator with island replication is used; dt is halved for
    # this part, where the Euler killing bias would otherwise be visible)
    t = 2.0
    occ_sim = simulate(SimulationConfig(
        domain=unit_interval(), dt=5e-4, horizon=t, n_paths=98_304,
        seed=2718, initial=nu, boundary_rule="kill", resample=True,
        islands=24))
    cd = conditional_density(nu, basis, t)
    ref = spectral_measure(cd, basis, 8193)
    occ = occ_sim.occupation_measure()
    w1 = w1_grid_1d(occ, ref)
    w1_islands = [w1_grid_1d(GridMeasure.from_histogram(
        occ_sim.bin_edges, h * np.diff(occ_sim.bin_edges)), ref)
        for h in occ_sim.island_histograms]
    se = float(np.std(w1_islands, ddof=1) / np.sqrt(len(w1_islands)))
    w1_ok = w1 <= 3.0 * se

    # two distinct limits on the same ensemble
    x = np.linspace(0, 1, 8193)
    quasi = GridMeasure.normalized(x, np.sin(PI * x))
    final = occ_sim.final_measure()
    w1_final_qe = w1_grid_1d(final, quasi)
    w1_final_occ = w1_grid_1d(final, ref)
    w1_occ_qe = w1_grid_1d(occ, quasi)
    two_limits = (w1_final_qe < 0.2 * w1_final_occ
                  and w1 < 0.2 * w1_occ_qe)
    elapsed = time.time() - t0
    ok = slope_err <= 0.05 and w1_ok and two_limits and elapsed < 600.0
    report("criterion-6 mc",
           ok, f"survival slope {slope:.3f} vs -pi^2 ({slope_err:.3%}, tol 5%); "
               f"occupation W1={w1:.2e} vs 3SE={3*se:.2e}; "
               f"final->quasi-ergodic W1={w1_final_qe:.2e} << final->occupation "
               f"{w1_final_occ:.2e}, occupation->spectral {w1:.2e} << "
               f"occupation->quasi-ergodic {w1_occ_qe:.2e}; runtime {elapsed:.0f}s (<600s)")


# ---------------------------------------------------------------------------
# 7. invariant sweep (representatives of every module's invariant section;
#    the full versions live in the per-module test files)
# ---------------------------------------------------------------------------

def test_criterion_7_invariant_suites():
    checks = []

    basis = build_analytic_basis(unit_interval(), 64)
    checks.append(("orthonormality", basis.orthonormality_residual() <= 1e-8))
    checks.append(("weyl-slope", abs(basis.weyl_slope() - 2.0) <= 0.3))
    checks.append(("ground-positive", bool(np.all(basis.ground_state > 0))))

    nu = InitialDistribution.from_mu()
    cd = conditional_density(nu, basis, 0.5)
    checks.append(("mass-conservation", abs(cd.mass - 1.0) <= 1e-6))
    checks.append(("mean-zero-fluctuation",
                   abs(basis.integrate_mu0(cd.fluctuation())) <= 1e-8))

    from condemp.semigroup import ground_semigroup_apply
    rng = np.random.default_rng(9)
    coeffs = np.zeros(64)
    coeffs[:5] = rng.normal(size=5)
    f = coeffs @ basis.ground_ratio
    two = ground_semigroup_apply(ground_semigroup_apply(f, basis, 0.2), basis, 0.5)
    one = ground_semigroup_apply(f, basis, 0.7)
    checks.append(("semigroup-property", float(np.max(np.abs(two - one))) <= 1e-8))

    from condemp.semigroup import rho_tilde
    rt = rho_tilde(project(nu, basis), mu_coefficients(basis), basis, 2.0)
    checks.append(("rho-tilde-mean-zero",
                   abs(basis.integrate_mu0(rt.values)) <= 1e-10))

    a = PI2
    center = exp_time_integral_pair(a, a, 1.0)
    cont = max(abs(exp_time_integral_pair(a + 1e-8, a, 1.0) - center),
               abs(exp_time_integral_pair(a - 1e-8, a, 1.0) - center))
    checks.append(("degenerate-branch-continuity", cont < 1e-12))

    lam64 = analytic_eigenvalues(unit_interval(), 64)
    kk = np.arange(64) + 1
    mu64 = np.where(kk % 2 == 1, 2 * np.sqrt(2.0) / (kk * PI), 0.0)
    rep64 = compute_I(mu64, mu64, lam64, tol=1e-6, d=1, nu_l2_bound=1.0)
    lam128 = analytic_eigenvalues(unit_interval(), 128)
    kk = np.arange(128) + 1
    mu128 = np.where(kk % 2 == 1, 2 * np.sqrt(2.0) / (kk * PI), 0.0)
    rep128 = compute_I(mu128, mu128, lam128, tol=1e-6, d=1, nu_l2_bound=1.0)
    checks.append(("tail-bound-doubling",
                   abs(rep128.I_value - rep64.I_value) <= rep64.tail_bound))

    cfg = SimulationConfig(domain=unit_interval(), dt=1e-3, horizon=0.2,
                           n_paths=5000, seed=1, initial=nu,
                           boundary_rule="kill")
    s1, s2 = simulate(cfg), simulate(cfg)
    checks.append(("seed-determinism",
                   bool(np.array_equal(s1.histogram, s2.histogram)
                        and s1.survival_count == s2.survival_count)))

    lm = logarithmic_mean(np.array([2.0, 1.0]), np.array([2.0, 3.0]))
    checks.append(("log-mean", abs(lm[0] - 2.0) <= 1e-15
                   and 1.0 <= lm[1] <= 3.0))

    failed = [name for name, ok in checks if not ok]
    report("criterion-7 invariants",
           not failed, f"{len(checks) - len(failed)}/{len(checks)} invariant "
                       f"groups pass" + (f"; failed: {failed}" if failed else ""))
