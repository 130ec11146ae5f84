"""Eigenseries evaluation of the killed semigroup and conditional densities.

Everything here is an explicit series in a SpectralBasis: the killed
semigroup, its ground-state transform, the kernel of the transformed
semigroup, and the density h_t of the conditional time-averaged occupation
measure against mu_0 = phi_0^2 mu.  Time integrals of products of modes are
evaluated in closed form with a guarded degenerate branch, so no numerical
quadrature in time is ever performed.
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
    "SeriesTruncation",
    "ConditionalDensity",
    "RhoTilde",
    "exp_time_integral",
    "apply_dirichlet_semigroup",
    "ground_semigroup_apply",
    "ground_kernel",
    "psi_s_nu",
    "survival_probability",
    "conditional_density",
    "rho_tilde",
    "fluctuation_remainder",
    "time_shift",
    "mean_empirical_density",
    "export_density_csv",
]

DEGENERATE_SWITCH = 1e-6    # |a-b| * t below this uses the Taylor branch


class SeriesError(ValueError):
    pass


@dataclass
class SeriesTruncation:
    """Mode cutoff with an a-posteriori dominated tail bound."""

    M: int
    tail_estimate: float
    target_tol: float

    @property
    def accepted(self) -> bool:
        return self.tail_estimate <= self.target_tol


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


def _sum_envelope(A: float, p: float, extra_exp: float, decay: float,
                  kappa: float, d: int, M: int, horizon: int = 200000) -> float:
    """Numeric upper bound for sum_{m>=M} A m^(extra_exp - p) e^{-decay kappa m^(2/d)}."""
    if A == 0.0:
        return 0.0
    m = np.arange(M, M + min(horizon, 20 * M + 1000), dtype=float)
    terms = A * m ** (extra_exp - p) * np.exp(-decay * kappa * m ** (2.0 / d))
    total = float(np.sum(terms))
    # geometric-style remainder past the window
    last = terms[-1]
    ratio = terms[-1] / terms[-2] if terms[-2] > 0 else 0.0
    if 0 < ratio < 1:
        total += float(last * ratio / (1 - ratio))
    elif decay <= 0:
        mx = m[-1]
        tail_exp = extra_exp - p
        if tail_exp < -1:
            total += A * mx ** (tail_exp + 1) / (-tail_exp - 1)
        else:
            total = np.inf
    return 2.0 * total     # safety factor on the fitted constants


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

def apply_dirichlet_semigroup(coeffs: np.ndarray, basis: SpectralBasis,
                              t: float, x=None, target_tol: float = 1e-10):
    """Killed-semigroup action sum_m e^{-lambda_m t} c_m phi_m on the grid.

    c_m must be the mu-inner products of the function being evolved.
    Returns (values, truncation).  A tail above target_tol is reported in
    the truncation record, never raised.
    """
    if t < 0:
        raise SeriesError("time must be nonnegative")
    c = np.asarray(coeffs, dtype=float)
    decay = np.exp(-basis.eigenvalues * t)
    phi = basis.eigenfunctions if x is None else basis.eval_modes(x)
    vals = (c * decay) @ phi
    A, p = _coeff_envelope(c)
    kappa = weyl_floor(basis.gaps, basis.domain.dim)
    sup_exp = 0.5 if not basis.analytic else 0.0
    A_sup = float(np.max(basis.sup_norms))
    tail = A_sup * np.exp(-basis.eigenvalues[0] * t) * _sum_envelope(
        A, p, sup_exp, t, kappa, basis.domain.dim, basis.M)
    return vals, SeriesTruncation(M=basis.M, tail_estimate=tail, target_tol=target_tol)


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


def ground_kernel(basis: SpectralBasis, x, y, t: float, target_tol: float = 1e-8):
    """Kernel of the ground-transformed semigroup w.r.t. mu_0.

    Returns (K, truncation) with K[i, j] the kernel at (x_i, y_j).  When the
    dominated tail exceeds target_tol the record carries an estimate of the
    mode count that would be needed.
    """
    if t <= 0:
        raise SeriesError("kernel needs t > 0")
    Rx = basis.eval_ratio(np.atleast_1d(x))
    Ry = basis.eval_ratio(np.atleast_1d(y))
    decay = np.exp(-basis.gaps * t)
    K = (Rx * decay[:, None]).T @ Ry
    d = basis.domain.dim
    kappa = weyl_floor(basis.gaps, d)
    ratio_exp = (d + 2.0) / (2.0 * d)
    C = float(np.max(basis.ratio_sups / np.maximum(np.arange(basis.M) + 1.0, 1.0) ** ratio_exp))
    tail = _sum_envelope(C * C, 0.0, 2 * ratio_exp, t, kappa, d, basis.M)
    trunc = SeriesTruncation(M=basis.M, tail_estimate=tail, target_tol=target_tol)
    if not trunc.accepted:
        # dominated estimate of the cutoff that would reach the tolerance
        M_need = basis.M
        while M_need < 10**7:
            if _sum_envelope(C * C, 0.0, 2 * ratio_exp, t, kappa, d, M_need) <= target_tol:
                break
            M_need *= 2
        trunc = SeriesTruncation(M=M_need, tail_estimate=tail, target_tol=target_tol)
    return K, trunc


def psi_s_nu(nu_coeffs: np.ndarray, basis: SpectralBasis, s: float, x=None):
    """Ground-kernel smoothing of nu against phi_0: a function on the grid.

    Equals nu(phi_0) + sum_{m>=1} nu(phi_m) e^{-(lambda_m-lambda_0)s} phi_m/phi_0.
    s = 0 is allowed only when the coefficient tail is summable, which holds
    for density-type nu; callers pass s > 0 for point masses.
    """
    if s < 0:
        raise SeriesError("time must be nonnegative")
    c = np.asarray(nu_coeffs, dtype=float)
    R = basis.ground_ratio if x is None else basis.eval_ratio(x)
    decay = np.exp(-basis.gaps * s)
    return (c * decay) @ R


# ---------------------------------------------------------------------------
# conditional occupation density
# ---------------------------------------------------------------------------

@dataclass
class ConditionalDensity:
    """Density h_t of the conditional occupation measure against mu_0."""

    t: float
    grid_values: np.ndarray        # h on the basis quadrature grid
    normalization: float           # e^{lambda_0 t} * survival probability
    truncation: SeriesTruncation
    basis: SpectralBasis = field(repr=False)
    bilinear: np.ndarray = field(repr=False)      # nu_m mu_n E_mn, (M, M)
    mass: float = 1.0
    min_value: float = 0.0
    shift_eps: float = 0.0         # > 0 when a point mass was time-shifted
    shift_tv_bound: float = 0.0
    t_effective: float = 0.0

    def evaluate(self, x) -> np.ndarray:
        """h_t at arbitrary points via the stored double series."""
        R = self.basis.eval_ratio(x)
        S = np.einsum("mj,mn,nj->j", R, self.bilinear, R, optimize=True)
        te = self.t_effective or self.t
        return 1.0 + (S - te * self.normalization) / (te * self.normalization)

    def fluctuation(self, x=None) -> np.ndarray:
        vals = self.grid_values if x is None else self.evaluate(x)
        return vals - 1.0


def conditional_density(nu: InitialDistribution, basis: SpectralBasis, t: float,
                        target_tol: float = 1e-8,
                        shift_eps: float | None = None) -> ConditionalDensity:
    """h_t for the conditional time-averaged occupation, as an eigenseries.

    Point masses are evaluated directly: on intervals and rectangles their
    truncated double series converges absolutely on the interior grid, and
    the tail beyond the cutoff is reported like any other truncation.  A
    positive shift_eps instead averages over [eps, t] with the short-time
    evolved start (the two agree within 2 eps / t in total variation, but
    the shift damps mode m by e^{-lambda_m eps}, which at desk-scale t
    visibly depresses the rescaled transport distance, so it is opt-in).
    """
    if basis.domain.boundary != DIRICHLET:
        raise SeriesError("conditional density is defined for the killed (Dirichlet) case")
    if t <= 0:
        raise SeriesError("need t > 0")

    eps = 0.0
    if shift_eps is not None:
        eps = float(shift_eps)
        if eps >= t / 2:
            raise SeriesError(f"shift eps={eps} too large for horizon t={t}")
        nu = time_shift(nu, basis, eps)

    nu_l2 = nu_l2_budget(nu, basis)
    nu_c = project(nu, basis)
    mu_c = mu_coefficients(basis)
    if nu_c[0] <= 0:
        raise SeriesError("nu has nonpositive ground-state mass; not admissible")
    a = basis.gaps
    te = t - eps
    E = exp_time_integral(a, te)
    Z = float(np.sum(nu_c * mu_c * np.exp(-a * te)))
    if Z <= 0:
        raise SeriesError("nonpositive survival normalization")
    C = np.outer(nu_c, mu_c) * E
    R = basis.ground_ratio
    S = np.einsum("mj,mn,nj->j", R, C, R, optimize=True)
    h = 1.0 + (S - te * Z) / (te * Z)

    mass = basis.integrate_mu0(h)
    hmin = float(np.min(h))
    tail = _rho_tail_bound(nu_c, mu_c, basis, te, Z, nu_l2=nu_l2)
    trunc = SeriesTruncation(M=basis.M, tail_estimate=tail, target_tol=target_tol)
    cd = ConditionalDensity(
        t=t, grid_values=h, normalization=Z, truncation=trunc, basis=basis,
        bilinear=C, mass=mass, min_value=hmin,
        shift_eps=eps, shift_tv_bound=(2.0 * eps / t if eps else 0.0),
        t_effective=te)
    if abs(mass - 1.0) > 1e-6:
        raise SeriesError(f"conditional density mass {mass} off by more than 1e-6")
    return cd


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
    normalization: float
    values: np.ndarray

    def evaluate(self, basis: SpectralBasis, x) -> np.ndarray:
        return self.coeffs @ basis.eval_ratio(x)


def rho_tilde(nu_coeffs, mu_coeffs, basis: SpectralBasis, t: float,
              normalization: float | None = None) -> RhoTilde:
    """The explicit rank-like part of the fluctuation, exactly 1/t-scaled."""
    if t <= 0:
        raise SeriesError("need t > 0")
    nu_c = np.asarray(nu_coeffs)
    mu_c = np.asarray(mu_coeffs)
    a = basis.gaps
    Z = normalization
    if Z is None:
        Z = float(np.sum(nu_c * mu_c * np.exp(-a * t)))
    gamma = np.zeros(basis.M)
    gamma[1:] = (mu_c[0] * nu_c[1:] + nu_c[0] * mu_c[1:]) / (a[1:] * t * Z)
    vals = gamma @ basis.ground_ratio
    return RhoTilde(t=t, coeffs=gamma, normalization=Z, values=vals)


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


def minimum_nonnegative_time(nu, basis: SpectralBasis, t_grid,
                             tol: float = 1e-6) -> float | None:
    """Smallest scanned t with h_t >= -tol everywhere on the grid.

    No closed-form threshold is known, so this is an empirical scan;
    returns None when every scanned time still dips below -tol.
    """
    for t in sorted(float(t) for t in t_grid):
        cd = conditional_density(nu, basis, t)
        if cd.min_value >= -tol:
            return t
    return None


# ---------------------------------------------------------------------------
# time shift and the reflecting-case mean occupation
# ---------------------------------------------------------------------------

def time_shift(nu: InitialDistribution, basis: SpectralBasis,
               eps: float) -> InitialDistribution:
    """Evolve nu by a short time and renormalize among surviving paths.

    Returns the density variant with h_eps proportional to psi_eps * phi_0
    against mu.  Its coefficients satisfy
    nu_eps(phi_m) = e^{-lambda_m eps} nu(phi_m) / nu(survival at eps).
    """
    if eps <= 0:
        raise SeriesError("shift needs eps > 0")
    nu_c = project(nu, basis)
    psi = psi_s_nu(nu_c, basis, eps)
    raw = psi * basis.ground_state
    Z = float(np.dot(raw, basis.weights))
    if Z <= 0:
        raise SeriesError("time shift produced nonpositive mass")
    h = raw / Z
    shifted = InitialDistribution(
        kind="density_mu", density=h, nodes=basis.grid.copy(),
        name=f"shift({nu.label()},{eps:g})")
    return shifted


def mean_empirical_density(nu_coeffs, basis: SpectralBasis, t: float, x=None):
    """Time-averaged occupation density for the reflecting case, w.r.t. mu.

    Valid for a Neumann basis (gap_0 = 0, constant ground mode):
    1 + sum_{m>=1} nu(phi_m) (1 - e^{-lambda_m t})/(lambda_m t) phi_m.
    """
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
    phi = basis.eigenfunctions if x is None else basis.eval_modes(x)
    return 1.0 + coef @ phi


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
        fh.write(f"# t={float(cd.t)!r} M={cd.truncation.M} tail_estimate={float(cd.truncation.tail_estimate)!r}\n")
        writer = csv.writer(fh)
        writer.writerow(["x", "h_t", "mu0_density"])
        for row in zip(x, h, mu0):
            writer.writerow([repr(float(v)) for v in row])
