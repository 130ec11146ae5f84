import numpy as np
import pytest

from condemp import (build_analytic_basis, compute_I, compute_I_neumann,
                     finiteness_predicate, mu_coefficients, project,
                     unit_interval)
from condemp.domains import NEUMANN
from condemp.limits import LimitError
from condemp.measures import InitialDistribution
from condemp.semigroup import survival_probability
from condemp.spectral import analytic_eigenvalues

PI = np.pi


def dirichlet_eigendata(M):
    k = np.arange(M) + 1
    lam = (k * PI) ** 2
    mu_c = np.where(k % 2 == 1, 2 * np.sqrt(2.0) / (k * PI), 0.0)
    return lam, mu_c


def closed_form_I_for_mu(k_max=200_001):
    k = np.arange(3, k_max, 2)
    return 4.0 / PI**6 * np.sum(1.0 / (k**2 * (k**2 - 1.0) ** 3))


# ---------------------------------------------------------------------------
# killed case
# ---------------------------------------------------------------------------

def test_I_matches_closed_form_start_mu():
    oracle = closed_form_I_for_mu()
    for M in (128, 2000):
        lam, mu_c = dirichlet_eigendata(M)
        rep = compute_I(mu_c, mu_c, lam, tol=1e-6, d=1, nu_l2_bound=1.0)
        assert abs(rep.I_value - oracle) <= 1e-12
        assert rep.positive
    # partial sums are nondecreasing and bracket the value
    assert np.all(np.diff(rep.partial_sums) >= 0)
    assert rep.I_value >= rep.partial_sums[-1]
    assert rep.I_value <= rep.partial_sums[-1] + rep.tail_bound


def test_I_zero_for_antialigned_coefficients():
    lam, mu_c = dirichlet_eigendata(256)
    nu_c = mu_c.copy()
    nu_c[1:] = -mu_c[1:]          # nu(phi_m) = -(nu_0/mu_0) mu(phi_m)
    rep = compute_I(nu_c, mu_c, lam, tol=1e-6, d=1, nu_l2_bound=1.0)
    assert rep.I_value <= 1e-14
    assert not rep.positive
    assert "suspected" in rep.finiteness


def test_tail_bound_covers_mode_doubling():
    oracle_dense = None
    lam128, mu128 = dirichlet_eigendata(128)
    lam64, mu64 = dirichlet_eigendata(64)
    rep64 = compute_I(mu64, mu64, lam64, tol=1e-6, d=1, nu_l2_bound=1.0)
    rep128 = compute_I(mu128, mu128, lam128, tol=1e-6, d=1, nu_l2_bound=1.0)
    assert abs(rep128.I_value - rep64.I_value) <= rep64.tail_bound


def test_tail_bound_point_mass_branch():
    lam, mu_c = dirichlet_eigendata(128)
    k = np.arange(128) + 1
    nu_c = np.sqrt(2.0) * np.sin(k * PI * 0.3)     # delta at 0.3
    rep = compute_I(nu_c, mu_c, lam, tol=1e-4, d=1)
    lam2, mu2 = dirichlet_eigendata(256)
    nu2 = np.sqrt(2.0) * np.sin((np.arange(256) + 1) * PI * 0.3)
    rep2 = compute_I(nu2, mu2, lam2, tol=1e-4, d=1)
    assert abs(rep2.I_value - rep.I_value) <= rep.tail_bound


def test_I_rejects_inadmissible_start():
    lam, mu_c = dirichlet_eigendata(64)
    nu_c = mu_c.copy()
    nu_c[0] = 0.0
    with pytest.raises(LimitError):
        compute_I(nu_c, mu_c, lam, d=1)


def test_I_sign_flip_invariance(rng):
    lam, mu_c = dirichlet_eigendata(64)
    nu_c = np.sqrt(2.0) * np.sin((np.arange(64) + 1) * PI * 0.37)
    base = compute_I(nu_c, mu_c, lam, tol=1e-3, d=1).I_value
    flip = rng.choice([-1.0, 1.0], size=64)
    flip[0] = 1.0
    flipped = compute_I(nu_c * flip, mu_c * flip, lam, tol=1e-3, d=1).I_value
    assert flipped == pytest.approx(base, rel=1e-14)


def test_I_shift_consistency(dirichlet_basis_128):
    # coefficients of the short-time-shifted start converge to the original
    basis = dirichlet_basis_128
    nu = InitialDistribution.from_mu()
    nu_c = project(nu, basis)
    mu_c = mu_coefficients(basis)
    base = compute_I(nu_c, mu_c, basis.eigenvalues,
                     tol=1e-6, d=1, nu_l2_bound=1.0).I_value
    errors = []
    for eps in (0.02, 0.01, 0.005):
        surv = survival_probability(nu_c, mu_c, basis.eigenvalues, eps)
        shifted = np.exp(-basis.eigenvalues * eps) * nu_c / surv
        I_eps = compute_I(shifted, mu_c, basis.eigenvalues,
                          tol=1e-3, d=1).I_value
        errors.append(abs(I_eps - base))
    # monotone approach; ratios improve toward the first-order regime
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] / errors[1] < errors[1] / errors[0] < 0.9


# ---------------------------------------------------------------------------
# reflecting case
# ---------------------------------------------------------------------------

def test_neumann_delta0_closed_form():
    M = 2000
    lam = analytic_eigenvalues(unit_interval(boundary=NEUMANN), M)
    nu_c = np.concatenate([[1.0], np.sqrt(2.0) * np.ones(M - 1)])
    rep = compute_I_neumann(nu_c, lam)
    assert abs(rep.I_value - 2.0 / 945.0) <= 1e-9
    assert rep.positive


def test_neumann_invariant_start_is_zero(neumann_basis_64):
    nu_c = project(InitialDistribution.from_mu(), neumann_basis_64)
    rep = compute_I_neumann(nu_c, neumann_basis_64.eigenvalues)
    assert rep.I_value <= 1e-26
    assert not rep.positive


def test_neumann_delta_half_closed_form():
    M = 2000
    lam = analytic_eigenvalues(unit_interval(boundary=NEUMANN), M)
    m = np.arange(M)
    nu_c = np.sqrt(2.0) * np.cos(m * PI * 0.5)
    nu_c[0] = 1.0
    rep = compute_I_neumann(nu_c, lam)
    assert abs(rep.I_value - 1.0 / 30240.0) <= 1e-12


def test_neumann_rejects_dirichlet_data():
    lam, mu_c = dirichlet_eigendata(32)
    with pytest.raises(LimitError):
        compute_I_neumann(mu_c, lam)


# ---------------------------------------------------------------------------
# finiteness predicate
# ---------------------------------------------------------------------------

def test_finiteness_low_dimension():
    assert finiteness_predicate(1) == "guaranteed(d<=6)"
    assert finiteness_predicate(6) == "guaranteed(d<=6)"


def test_finiteness_high_dimension():
    assert finiteness_predicate(7) == "not-guaranteed"
    assert finiteness_predicate(8) == "not-guaranteed"


def test_limit_report_roundtrip(tmp_path):
    lam, mu_c = dirichlet_eigendata(64)
    rep = compute_I(mu_c, mu_c, lam, tol=1e-6, d=1, nu_l2_bound=1.0)
    path = tmp_path / "limit.json"
    rep.save(path)
    import json
    doc = json.loads(path.read_text())
    assert doc["schema"] == "condemp.limit_report/1"
    assert doc["I_value"] == rep.I_value
    assert doc["inputs"]["eigenvalues"][0] == lam[0]
