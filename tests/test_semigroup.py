import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from condemp import build_analytic_basis, mu_coefficients, project, unit_interval
from condemp.measures import InitialDistribution
from condemp.semigroup import (SeriesError, conditional_density,
                               exp_time_integral_pair, export_density_csv,
                               fluctuation_remainder, ground_semigroup_apply,
                               mean_empirical_density, rho_tilde,
                               survival_probability)

PI2 = np.pi**2
GAP1 = 3 * PI2          # first spectral gap on the unit interval


def tilted_density():
    """Probability density w.r.t. mu exciting the first excited mode."""
    return InitialDistribution.from_density_mu(
        lambda x: 1.0 + 0.3 * np.sin(2 * np.pi * np.asarray(x)), name="tilted")


# ---------------------------------------------------------------------------
# closed-form time integral
# ---------------------------------------------------------------------------

def test_time_integral_matches_quadrature(rng):
    for _ in range(20):
        a = float(rng.uniform(0.0, 80.0))
        b = float(rng.uniform(0.0, 80.0))
        t = float(rng.uniform(0.05, 3.0))
        oracle, err = quad(lambda s: np.exp(-a * s - b * (t - s)), 0.0, t,
                           epsabs=1e-14, epsrel=1e-12)
        got = exp_time_integral_pair(a, b, t)
        assert got == pytest.approx(oracle, abs=max(1e-9, 5 * err))


def test_degenerate_branch_continuity():
    a = PI2
    t = 1.0
    center = exp_time_integral_pair(a, a, t)
    for delta in (1e-8, -1e-8):
        assert abs(exp_time_integral_pair(a + delta, a, t) - center) < 1e-12
        assert abs(exp_time_integral_pair(a, a + delta, t) - center) < 1e-12


@settings(max_examples=200, deadline=None)
@given(a=st.floats(0.0, 200.0), d=st.floats(-1e-4, 1e-4), t=st.floats(1e-3, 5.0))
def test_time_integral_properties(a, d, t):
    b = max(a + d, 0.0)
    val = exp_time_integral_pair(a, b, t)
    assert val >= 0.0
    # subnormal floor: below ~1e-290 relative arithmetic degrades
    assert val <= t * np.exp(-min(a, b) * t) * (1 + 1e-9) + 1e-290


# ---------------------------------------------------------------------------
# killed semigroup
# ---------------------------------------------------------------------------

def test_survival_mass_series(dirichlet_basis_128):
    basis = dirichlet_basis_128
    mu_c = mu_coefficients(basis)
    # the full series sums to 1 at t = 0 ...
    k_all = np.arange(1, 4_000_001, 2)
    assert np.sum(8.0 / (k_all**2 * PI2)) == pytest.approx(1.0, abs=1e-6)
    # ... and at matching truncation the survival matches it exactly
    k = np.arange(1, basis.M + 1, 2)
    for t in (0.0, 0.1, 0.5):
        oracle = np.sum(8.0 / (k**2 * PI2) * np.exp(-k**2 * PI2 * t))
        got = survival_probability(mu_c, mu_c, basis.eigenvalues, t)
        assert got == pytest.approx(oracle, abs=1e-12)


def test_killed_semigroup_spectral_projection_decay(dirichlet_basis_64):
    # deviation of e^{lambda_0 t} P_t f from its ground projection, summed
    # directly over excited modes so tiny values stay meaningful
    basis = dirichlet_basis_64
    f_coeffs = np.zeros(basis.M)
    f_coeffs[0] = 1.0
    f_coeffs[1] = 0.5          # excites the first gap
    f_coeffs[2] = 0.25
    sups = {}
    for t in (0.5, 1.0):
        dev = (f_coeffs[1:, None] * np.exp(-basis.gaps[1:, None] * t)
               * basis.eigenfunctions[1:]).sum(axis=0)
        sups[t] = np.max(np.abs(dev))
    ratio = sups[1.0] / sups[0.5]
    assert ratio == pytest.approx(np.exp(-GAP1 * 0.5), rel=1e-4)


# ---------------------------------------------------------------------------
# ground kernel
# ---------------------------------------------------------------------------

def test_ground_kernel_flattens(dirichlet_basis_64):
    basis = dirichlet_basis_64
    sup = {}
    for t in (0.25, 0.5):
        R = basis.eval_ratio(basis.grid)
        dev = np.einsum("mi,mj,m->ij", R[1:], R[1:], np.exp(-basis.gaps[1:] * t))
        sup[t] = np.max(np.abs(dev))
    ratio = sup[0.5] / sup[0.25]
    assert ratio == pytest.approx(np.exp(-GAP1 * 0.25), rel=0.1)


# ---------------------------------------------------------------------------
# ground-transformed relaxation
# ---------------------------------------------------------------------------

def test_psi_relaxation_rate(dirichlet_basis_64):
    # starting from the occupation limit the active mode is the second one
    basis = dirichlet_basis_64
    nu = InitialDistribution(kind="density_mu", density=basis.ground_state**2,
                             nodes=basis.grid, name="mu0")
    nu_c = project(nu, basis)
    assert abs(nu_c[1]) <= 1e-12      # parity kills mode 1
    sup = {}
    for s in (0.2, 0.3):
        dev = (nu_c[1:, None] * np.exp(-basis.gaps[1:, None] * s)
               * basis.ground_ratio[1:]).sum(axis=0)
        sup[s] = np.max(np.abs(dev))
    gap2 = basis.gaps[2]
    assert sup[0.3] / sup[0.2] == pytest.approx(np.exp(-gap2 * 0.1), rel=0.05)


def test_ground_semigroup_property(dirichlet_basis_64, rng):
    basis = dirichlet_basis_64
    coeffs = np.zeros(basis.M)
    coeffs[:6] = rng.normal(size=6)
    f = coeffs @ basis.ground_ratio
    one_shot = ground_semigroup_apply(f, basis, 0.7)
    two_step = ground_semigroup_apply(ground_semigroup_apply(f, basis, 0.3),
                                      basis, 0.4)
    assert np.max(np.abs(one_shot - two_step)) <= 1e-8


# ---------------------------------------------------------------------------
# conditional density
# ---------------------------------------------------------------------------

def test_single_mode_density_is_flat():
    basis = build_analytic_basis(unit_interval(), 1)
    cd = conditional_density(InitialDistribution.from_mu(), basis, 2.0)
    assert np.max(np.abs(cd.grid_values - 1.0)) <= 1e-12


def test_fluctuation_integrates_to_zero(dirichlet_basis_128):
    basis = dirichlet_basis_128
    cd = conditional_density(InitialDistribution.from_mu(), basis, 0.5)
    assert abs(basis.integrate_mu0(cd.fluctuation())) <= 1e-8
    assert cd.mass == pytest.approx(1.0, abs=1e-6)


def test_density_evaluate_matches_grid(dirichlet_basis_64):
    cd = conditional_density(InitialDistribution.from_mu(), dirichlet_basis_64, 1.0)
    again = cd.evaluate(dirichlet_basis_64.grid)
    assert np.max(np.abs(again - cd.grid_values)) <= 1e-12


def test_remainder_decay_rate(dirichlet_basis_64):
    # rho - rho_tilde decays at the first active gap; the 1/t prefactor
    # shifts the log-slope by about 1/t, well inside the stated 25%
    basis = dirichlet_basis_64
    nu_c = project(tilted_density(), basis)
    mu_c = mu_coefficients(basis)
    ts = np.array([0.3, 0.45, 0.6])
    norms = []
    for t in ts:
        delta = fluctuation_remainder(nu_c, mu_c, basis, t)
        norms.append(basis.integrate_mu0(np.abs(delta)))
    slope = np.polyfit(ts, np.log(norms), 1)[0]
    assert abs(-slope - GAP1) <= 0.25 * GAP1


def test_remainder_exponential_envelope(dirichlet_basis_64):
    # the envelope C e^{-gap t} fitted at t0 dominates later values, also for
    # the symmetric start whose own decay is faster than the first gap
    basis = dirichlet_basis_64
    mu_c = mu_coefficients(basis)
    for nu in (InitialDistribution.from_mu(), tilted_density()):
        nu_c = project(nu, basis)
        t0 = 0.3
        n0 = basis.integrate_mu0(np.abs(fluctuation_remainder(nu_c, mu_c, basis, t0)))
        C = n0 / np.exp(-GAP1 * t0)
        for t in (0.5, 0.8, 1.2):
            nt = basis.integrate_mu0(np.abs(fluctuation_remainder(nu_c, mu_c, basis, t)))
            assert nt <= C * np.exp(-GAP1 * t) * (1 + 1e-9)


def test_rho_tilde_mean_zero_and_scaling(dirichlet_basis_64):
    basis = dirichlet_basis_64
    nu_c = project(InitialDistribution.from_mu(), basis)
    mu_c = mu_coefficients(basis)
    rt2 = rho_tilde(nu_c, mu_c, basis, 2.0)
    rt4 = rho_tilde(nu_c, mu_c, basis, 4.0)
    assert abs(basis.integrate_mu0(rt2.values)) <= 1e-13
    drift = np.exp(-GAP1 * 2.0)
    assert np.max(np.abs(2.0 * rt2.values - 4.0 * rt4.values)) <= \
        np.max(np.abs(2.0 * rt2.values)) * 1e-3 + drift


def test_rho_tilde_lower_envelope(dirichlet_basis_64):
    # the grid minimum scales like -c/t
    basis = dirichlet_basis_64
    nu_c = project(InitialDistribution.from_mu(), basis)
    mu_c = mu_coefficients(basis)
    mins = {t: np.min(rho_tilde(nu_c, mu_c, basis, t).values) for t in (2.0, 4.0, 8.0)}
    assert all(v < 0 for v in mins.values())
    products = np.array([t * mins[t] for t in (2.0, 4.0, 8.0)])
    assert np.max(np.abs(products - products.mean())) <= 0.05 * abs(products.mean())


def test_conditional_density_beats_naive_difference(dirichlet_basis_64):
    # the direct remainder series agrees with (rho - rho_tilde) computed the
    # blunt way while both are above the double-precision floor
    basis = dirichlet_basis_64
    nu = tilted_density()
    nu_c = project(nu, basis)
    mu_c = mu_coefficients(basis)
    t = 0.4
    cd = conditional_density(nu, basis, t)
    rt = rho_tilde(nu_c, mu_c, basis, t)
    blunt = cd.fluctuation() - rt.values
    direct = fluctuation_remainder(nu_c, mu_c, basis, t)
    assert np.max(np.abs(blunt - direct)) <= 1e-11


def test_point_mass_density_direct(dirichlet_basis_128):
    basis = dirichlet_basis_128
    t = 4.0
    cd = conditional_density(InitialDistribution.from_point(0.5), basis, t)
    assert cd.mass == pytest.approx(1.0, abs=1e-6)
    assert cd.min_value >= -1e-6


# ---------------------------------------------------------------------------
# reflecting mean occupation
# ---------------------------------------------------------------------------

def test_mean_occupation_flat_for_invariant_start(neumann_basis_64):
    basis = neumann_basis_64
    nu_c = project(InitialDistribution.from_mu(), basis)
    h = mean_empirical_density(nu_c, basis, 3.0)
    assert np.max(np.abs(h - 1.0)) <= 1e-12


def test_mean_occupation_mass(neumann_basis_64):
    basis = neumann_basis_64
    nu_c = project(InitialDistribution.from_point(0.0), basis)
    h = mean_empirical_density(nu_c, basis, 4.0)
    assert basis.integrate(h) == pytest.approx(1.0, abs=1e-10)


def test_mean_occupation_needs_neumann(dirichlet_basis_64):
    with pytest.raises(SeriesError):
        mean_empirical_density(np.zeros(64), dirichlet_basis_64, 1.0)


def test_density_csv_export(tmp_path, dirichlet_basis_64):
    cd = conditional_density(InitialDistribution.from_mu(), dirichlet_basis_64, 2.0)
    path = tmp_path / "density.csv"
    export_density_csv(cd, path, n_nodes=65)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# t=2.0")
    assert lines[1] == "x,h_t,mu0_density"
    assert len(lines) == 67
