"""Eigenseries evaluation of the killed semigroup and conditional densities.

Everything here is an explicit series in a SpectralBasis: the survival
probability, the ground-state transformed semigroup, the density h_t of the
conditional time-averaged occupation measure against mu_0 = phi_0^2 mu with
its leading 1/t part, and the reflecting-case mean occupation.  Time
integrals of products of modes are evaluated in closed form with a guarded
degenerate branch, so no numerical quadrature in time is ever performed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .domains import DIRICHLET, NEUMANN
from .measures import InitialDistribution
from .spectral import (SpectralBasis, bessel_remainder, mu_coefficients,
                       nu_l2_budget, project, weyl_floor)

__all__ = [
    "SeriesError",
    "ConditionalDensity",
    "RhoTilde",
    "exp_time_integral",
    "ground_semigroup_apply",
    "survival_probability",
    "conditional_density",
    "rho_tilde",
    "fluctuation_remainder",
    "mean_occupation_coefficients",
    "mean_empirical_density",
    "export_density_csv",
]

DEGENERATE_SWITCH = 1e-6    # |a-b| * t below this uses the Taylor branch


class SeriesError(ValueError):
    pass


def _coeff_envelope(coeffs: np.ndarray):
    """Power-law envelope |c_m| <= A m^-p fitted on the upper half window.

    Falls back to a constant envelope (p = 0) when all windowed
    coefficients vanish or the fit is degenerate.
    """
    M = coeffs.size
    lo = max(1, M // 2)
    if lo >= M:
        return 1e-300, 0.0
    m = np.arange(lo, M, dtype=float)
    c = np.abs(coeffs[lo:])
    mask = c > 0
    if mask.sum() < 3:
        A = float(np.max(np.abs(coeffs[1:]))) if M > 1 else 0.0
        return max(A, 1e-300), 0.0
    slope, logA = np.polyfit(np.log(m[mask]), np.log(c[mask]), 1)
    p = max(-slope, 0.0)
    A = float(np.exp(logA))
    # envelope must dominate the observed window
    A = max(A, float(np.max(c * m**p)))
    return A, p


# ---------------------------------------------------------------------------
# closed-form time integral
# ---------------------------------------------------------------------------

def exp_time_integral(gaps: np.ndarray, t: float) -> np.ndarray:
    """Matrix of integrals of exp(-a_m s - a_n (t-s)) over s in [0, t].

    The generic branch (e^{-a_n t} - e^{-a_m t})/(a_m - a_n) is evaluated via
    expm1 to avoid cancellation; when |a_m - a_n| t falls below the switch the
    three-term Taylor expansion in (a_m - a_n) t is used instead.
    """
    a = np.asarray(gaps, dtype=float)
    delta = a[:, None] - a[None, :]
    x = delta * t
    # factor out the slower decay so the remaining exponent is nonpositive
    amin = np.minimum(a[:, None], a[None, :])
    slow = np.exp(-amin * t)
    adx = np.abs(x)
    small = adx < DEGENERATE_SWITCH
    safe = np.where(small, 1.0, np.abs(delta))
    generic = slow * (-np.expm1(-adx)) / safe
    taylor = t * np.exp(-a * t)[None, :] * (1.0 - x / 2.0 + x * x / 6.0)
    return np.where(small, taylor, generic)


def exp_time_integral_pair(a_m: float, a_n: float, t: float) -> float:
    """Scalar version of exp_time_integral for spot checks."""
    return float(exp_time_integral(np.array([a_m, a_n]), t)[0, 1])


# ---------------------------------------------------------------------------
# semigroups
# ---------------------------------------------------------------------------

def ground_semigroup_apply(values_on_grid, basis: SpectralBasis, t: float):
    """Ground-transformed semigroup applied to a grid function.

    Expands f in the ratio basis w.r.t. mu_0 and damps mode m by
    e^{-(lambda_m - lambda_0) t}.
    """
    if t < 0:
        raise SeriesError("time must be nonnegative")
    f = np.asarray(values_on_grid, dtype=float)
    R = basis.ground_ratio
    w0 = basis.ground_state**2 * basis.weights
    c = R @ (f * w0)
    return (c * np.exp(-basis.gaps * t)) @ R


def survival_probability(nu_coeffs: np.ndarray, mu_coeffs: np.ndarray,
                         eigenvalues: np.ndarray, t: float) -> float:
    """P(no killing before t) = sum_m e^{-lambda_m t} mu(phi_m) nu(phi_m)."""
    return float(np.sum(np.asarray(nu_coeffs) * np.asarray(mu_coeffs)
                        * np.exp(-np.asarray(eigenvalues) * t)))


# ---------------------------------------------------------------------------
# conditional occupation density
# ---------------------------------------------------------------------------

@dataclass
class ConditionalDensity:
    """Density h_t of the conditional occupation measure against mu_0."""

    t: float
    grid_values: np.ndarray        # h on the basis quadrature grid
    normalization: float           # e^{lambda_0 t} * survival probability
    tail_bound: float              # dominated bound on the series dropped beyond basis.M
    basis: SpectralBasis = field(repr=False)
    bilinear: np.ndarray = field(repr=False)      # nu_m mu_n E_mn, (M, M)
    mass: float
    min_value: float

    def evaluate(self, x) -> np.ndarray:
        """h_t at arbitrary points via the stored double series."""
        return _density(self.basis.eval_ratio(x), self.bilinear, self.t * self.normalization)

    def fluctuation(self) -> np.ndarray:
        return self.grid_values - 1.0


def conditional_density(nu: InitialDistribution, basis: SpectralBasis,
                        t: float) -> ConditionalDensity:
    """h_t for the conditional time-averaged occupation, as an eigenseries.

    h_t = 1 + (S - t Z)/(t Z) with S the double series
    sum_{m,n} nu(phi_m) mu(phi_n) E_mn phi_m/phi_0 phi_n/phi_0, E the closed-form
    time integrals and Z = e^{lambda_0 t} P(survival to t).  Point masses are
    evaluated directly: on intervals and rectangles their truncated double
    series converges absolutely on the interior grid, and the tail beyond the
    cutoff is reported like any other truncation.
    """
    if basis.domain.boundary != DIRICHLET:
        raise SeriesError("conditional density is defined for the killed (Dirichlet) case")
    if t <= 0:
        raise SeriesError("need t > 0")

    nu_l2 = nu_l2_budget(nu, basis)
    nu_c = project(nu, basis)
    mu_c = mu_coefficients(basis)
    if nu_c[0] <= 0:
        raise SeriesError("nu has nonpositive ground-state mass; not admissible")
    a = basis.gaps
    E = exp_time_integral(a, t)
    Z = float(np.sum(nu_c * mu_c * np.exp(-a * t)))
    if Z <= 0:
        raise SeriesError("nonpositive survival normalization")
    C = np.outer(nu_c, mu_c) * E
    h = _density(basis.ground_ratio, C, t * Z)

    mass = basis.integrate_mu0(h)
    hmin = float(np.min(h))
    tail = _rho_tail_bound(nu_c, mu_c, basis, t, Z, nu_l2=nu_l2)
    cd = ConditionalDensity(
        t=t, grid_values=h, normalization=Z, tail_bound=tail, basis=basis,
        bilinear=C, mass=mass, min_value=hmin)
    if abs(mass - 1.0) > 1e-6:
        raise SeriesError(f"conditional density mass {mass} off by more than 1e-6")
    return cd


def _density(R: np.ndarray, C: np.ndarray, tZ: float) -> np.ndarray:
    """1 + (S - tZ)/tZ with S_j = sum_{m,n} R_mj C_mn R_nj."""
    S = np.einsum("mj,mn,nj->j", R, C, R, optimize=True)
    return 1.0 + (S - tZ) / tZ


def _ratio_growth(basis: SpectralBasis):
    """Fitted envelope sup|phi_m/phi_0| <= C m^q, q capped at the theory rate."""
    d = basis.domain.dim
    cap = (d + 2.0) / (2.0 * d) + 0.25
    m = np.arange(1, basis.M, dtype=float)
    if m.size < 4:
        return float(np.max(basis.ratio_sups)), 0.0
    q = float(np.polyfit(np.log(m), np.log(basis.ratio_sups[1:]), 1)[0])
    q = min(max(q, 0.0), cap)
    C = float(np.max(basis.ratio_sups[1:] / m**q))
    return C, q


def _rho_tail_bound(nu_c, mu_c, basis, t, Z,
                    nu_l2: float | None = None) -> float:
    """Dominated bound on the dropped part of the fluctuation series.

    The s-integral of a dropped cross term is bounded by 1/gap.  Coefficient
    tails use Cauchy-Schwarz against Bessel budgets (1 for the reference
    measure, the L2 norm for density starts) where available, otherwise a
    fitted sup envelope; the ratio sups use a fitted power law capped at the
    theory growth rate.  Constants are empirical: the bound is reported,
    never silently trusted.
    """
    d = basis.domain.dim
    kappa = weyl_floor(basis.gaps, d)
    C_R, q_R = _ratio_growth(basis)
    M = basis.M
    m_ext = np.arange(M, 40 * M, dtype=float)
    gaps_ext = kappa * m_ext ** (2.0 / d)
    # sqrt of sum over dropped modes of (sup ratio / gap)^2
    ratio_over_gap = np.sqrt(np.sum((C_R * m_ext**q_R / gaps_ext) ** 2))

    def side_tail(coeffs, l2_budget):
        if l2_budget is not None:
            return np.sqrt(bessel_remainder(l2_budget, coeffs)) * ratio_over_gap
        A, p = _coeff_envelope(coeffs)
        return float(np.sum(A * m_ext ** (q_R - p) * C_R / gaps_ext))

    lin = abs(nu_c[0]) * side_tail(mu_c, 1.0)
    lin += abs(mu_c[0]) * side_tail(nu_c, nu_l2)
    # bilinear terms with at least one dropped index
    sum_mu = float(np.sum(np.abs(mu_c[1:]) * basis.ratio_sups[1:]))
    sum_nu = float(np.sum(np.abs(nu_c[1:]) * basis.ratio_sups[1:]))
    bil = sum_mu * side_tail(nu_c, nu_l2) + sum_nu * side_tail(mu_c, 1.0)
    return 2.0 * (lin + bil) / (t * Z)


@dataclass
class RhoTilde:
    """Leading 1/t fluctuation: coefficients against the ratio basis."""

    t: float
    coeffs: np.ndarray            # gamma_m, gamma_0 = 0
    values: np.ndarray


def rho_tilde(nu_coeffs, mu_coeffs, basis: SpectralBasis, t: float) -> RhoTilde:
    """The explicit rank-like part of the fluctuation, exactly 1/t-scaled."""
    if t <= 0:
        raise SeriesError("need t > 0")
    nu_c = np.asarray(nu_coeffs)
    mu_c = np.asarray(mu_coeffs)
    a = basis.gaps
    Z = float(np.sum(nu_c * mu_c * np.exp(-a * t)))
    gamma = np.zeros(basis.M)
    gamma[1:] = (mu_c[0] * nu_c[1:] + nu_c[0] * mu_c[1:]) / (a[1:] * t * Z)
    vals = gamma @ basis.ground_ratio
    return RhoTilde(t=t, coeffs=gamma, values=vals)


def fluctuation_remainder(nu_coeffs, mu_coeffs, basis: SpectralBasis, t: float):
    """Grid values of rho_t - rho_tilde_t, summed directly term by term.

    Every contribution carries an e^{-gap t} factor, so the difference is
    computed without subtracting O(1) quantities and stays meaningful far
    below double-precision noise on the individual densities.
    """
    nu_c = np.asarray(nu_coeffs)
    mu_c = np.asarray(mu_coeffs)
    a = basis.gaps
    dec = np.exp(-a * t)
    Z = float(np.sum(nu_c * mu_c * dec))
    R = basis.ground_ratio
    # late-time part of the linear terms
    coef_A = np.zeros(basis.M)
    coef_A[1:] = (mu_c[0] * nu_c[1:] + nu_c[0] * mu_c[1:]) * dec[1:] / a[1:]
    A_vals = coef_A @ R
    # bilinear block over nonzero modes only
    E = exp_time_integral(a, t)
    C11 = np.outer(nu_c, mu_c) * E
    C11[0, :] = 0.0
    C11[:, 0] = 0.0
    S11 = np.einsum("mj,mn,nj->j", R, C11, R, optimize=True)
    diag_corr = t * float(np.sum(nu_c[1:] * mu_c[1:] * dec[1:]))
    return (-A_vals + S11 - diag_corr) / (t * Z)


# ---------------------------------------------------------------------------
# reflecting-case mean occupation
# ---------------------------------------------------------------------------

def mean_occupation_coefficients(nu_coeffs, basis: SpectralBasis, t: float) -> np.ndarray:
    """c with the reflecting-case time-averaged occupation density 1 + sum_m
    c_m phi_m against mu: c_m = nu(phi_m) (1 - e^{-lambda_m t})/(lambda_m t)
    for m >= 1, c_0 = 0.  Valid for a Neumann basis (gap_0 = 0, constant
    ground mode)."""
    if basis.domain.boundary != NEUMANN:
        raise SeriesError("mean empirical density needs a Neumann basis")
    if t <= 0:
        raise SeriesError("need t > 0")
    if abs(basis.eigenvalues[0]) > 1e-7:
        raise SeriesError("Neumann basis should have a zero bottom eigenvalue")
    nu_c = np.asarray(nu_coeffs)
    lam = basis.eigenvalues
    coef = np.zeros(basis.M)
    coef[1:] = nu_c[1:] * (-np.expm1(-lam[1:] * t)) / (lam[1:] * t)
    return coef


def mean_empirical_density(nu_coeffs, basis: SpectralBasis, t: float,
                           n_nodes: int | None = None):
    """Time-averaged occupation density for the reflecting case, w.r.t. mu:
    1 + sum_m c_m phi_m (`mean_occupation_coefficients`) on the basis grid,
    or with n_nodes on the uniform grid np.linspace(a, b, n_nodes)
    (`SpectralBasis.grid_series`).
    """
    coef = mean_occupation_coefficients(nu_coeffs, basis, t)
    if n_nodes is None:
        return 1.0 + coef @ basis.eigenfunctions
    return 1.0 + basis.grid_series(coef, n_nodes)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def export_density_csv(cd: ConditionalDensity, path, n_nodes: int = 1025):
    """Density snapshot: x, h_t, and the mu_0 Lebesgue density."""
    basis = cd.basis
    a, b = basis.domain.bounds[:2]
    x = np.linspace(a, b, n_nodes)
    h = cd.evaluate(x)
    phi0 = basis.eval_modes(x, modes=[0])[0]
    mu0 = phi0**2 * basis.mu_lebesgue_at(x)
    with open(path, "w", newline="") as fh:
        fh.write(f"# t={float(cd.t)!r} M={basis.M} tail_estimate={float(cd.tail_bound)!r}\n")
        writer = csv.writer(fh)
        writer.writerow(["x", "h_t", "mu0_density"])
        for row in zip(x, h, mu0):
            writer.writerow([repr(float(v)) for v in row])
