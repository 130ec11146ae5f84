"""The limit constant of the t^2-rescaled Wasserstein convergence.

For the killed case the constant is

    I = {mu(phi_0) nu(phi_0)}^-2  sum_{m>=1}
        {nu(phi_0) mu(phi_m) + mu(phi_0) nu(phi_m)}^2 / (lambda_m - lambda_0)^3,

and for the reflecting case it degenerates to sum_{m>=1} nu(phi_m)^2 / lambda_m^3.
Partial sums are reported together with a dominated tail bound driven by the
fitted eigenvalue growth and coefficient decay.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

import numpy as np

from .spectral import bessel_remainder, weyl_floor

__all__ = ["LimitError", "LimitReport", "compute_I", "compute_I_neumann",
           "finiteness_predicate"]

ZERO_LIMIT_FLOOR = 1e-14


class LimitError(ValueError):
    pass


@dataclass
class LimitReport:
    I_value: float
    partial_sums: np.ndarray
    tail_bound: float
    positive: bool
    finiteness: str
    modes_used: int
    boundary: str
    inputs: dict

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["partial_sums"] = [float(v) for v in self.partial_sums]
        doc["schema"] = "condemp.limit_report/1"
        return doc

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)


def _require_tail_modes(M: int):
    if M < 2:
        raise LimitError("one mode leaves the tail unbounded; raise the mode count")


def compute_I(nu_coeffs, mu_coeffs, eigenvalues, tol: float = 1e-10,
              d: int = 1, nu_l2_bound: float | None = None) -> LimitReport:
    """Killed-case limit constant from coefficient and eigenvalue arrays.

    The tail over dropped modes is bounded with (x+y)^2 <= 2x^2 + 2y^2:
    the mu side uses what the Bessel budget sum mu(phi_m)^2 <= 1 leaves after
    every retained mode, the nu side the same for a supplied L2 budget or,
    failing that, a sup-norm envelope |nu(phi_m)| <= C sqrt(m) with C fitted
    from the data.
    """
    nu_c = np.asarray(nu_coeffs, dtype=float)
    mu_c = np.asarray(mu_coeffs, dtype=float)
    lam = np.asarray(eigenvalues, dtype=float)
    if not (nu_c.size == mu_c.size == lam.size):
        raise LimitError("coefficients and eigenvalues must share a length")
    _require_tail_modes(lam.size)
    if nu_c[0] <= 0:
        raise LimitError("nu(phi_0) <= 0: initial law is not admissible numerically")
    gaps = lam - lam[0]
    if np.any(gaps[1:] <= 0):
        raise LimitError("spectral gaps must be positive above the ground state")
    M = lam.size

    weights = (nu_c[0] * mu_c[1:] + mu_c[0] * nu_c[1:]) ** 2 / gaps[1:] ** 3
    scale = (mu_c[0] * nu_c[0]) ** 2
    partial = np.concatenate([[0.0], np.cumsum(weights)]) / scale
    value = float(partial[-1])

    kappa = weyl_floor(gaps, d)
    gap_M = kappa * M ** (2.0 / d)
    mu_budget = bessel_remainder(1.0, mu_c)
    if nu_l2_bound is not None:
        nu_budget = bessel_remainder(nu_l2_bound, nu_c)
        tail = 2.0 * (nu_c[0] ** 2 * mu_budget + mu_c[0] ** 2 * nu_budget) / (scale * gap_M**3)
    else:
        m = np.arange(1, M, dtype=float)
        C = float(np.max(np.abs(nu_c[1:]) / np.sqrt(m))) * 1.5
        # sum_{m>=M} C^2 m / (kappa m^(2/d))^3, plus the mu-budget piece
        m_ext = np.arange(M, 20 * M, dtype=float)
        nu_tail = float(np.sum(C**2 * m_ext / (kappa * m_ext ** (2.0 / d)) ** 3))
        exp_net = 1.0 - 6.0 / d
        if exp_net < -1:
            mx = m_ext[-1]
            nu_tail += C**2 / kappa**3 * mx ** (exp_net + 1) / (-exp_net - 1)
        tail = 2.0 * (nu_c[0] ** 2 * mu_budget / gap_M**3 + mu_c[0] ** 2 * nu_tail) / scale

    positive = value > ZERO_LIMIT_FLOOR
    report = LimitReport(
        I_value=value, partial_sums=partial, tail_bound=float(tail),
        positive=positive, finiteness=finiteness_predicate(d),
        modes_used=M, boundary="dirichlet",
        inputs={"nu": nu_c.tolist(), "mu": mu_c.tolist(), "eigenvalues": lam.tolist()})
    if tail > tol:
        raise LimitError(
            f"tail bound {tail:.3e} above tolerance {tol:.3e}; raise the mode count")
    if not positive and M >= 128:
        # an admissible starting law cannot make every term vanish
        report.finiteness = "zero-limit: nu outside the admissible class suspected"
    return report


def compute_I_neumann(nu_coeffs, eigenvalues, tol: float = 1e-9) -> LimitReport:
    """Reflecting-case limit sum_{m>=1} nu(phi_m)^2 / lambda_m^3.

    Requires Neumann eigendata: lambda_0 = 0 and mu(phi_m) = 0 for m >= 1,
    so the constant-mode coefficient never enters.  Returns 0 exactly when
    all higher coefficients vanish (the start equals the invariant measure).
    """
    nu_c = np.asarray(nu_coeffs, dtype=float)
    lam = np.asarray(eigenvalues, dtype=float)
    if nu_c.size != lam.size:
        raise LimitError("coefficients and eigenvalues must share a length")
    _require_tail_modes(lam.size)
    if abs(lam[0]) > 1e-7:
        raise LimitError("not a Neumann basis: bottom eigenvalue must vanish")
    if np.any(lam[1:] <= 0):
        raise LimitError("positive eigenvalues required above the constant mode")
    M = lam.size
    weights = nu_c[1:] ** 2 / lam[1:] ** 3
    partial = np.concatenate([[0.0], np.cumsum(weights)])
    value = float(partial[-1])
    kappa = weyl_floor(lam, d=1)
    m_ext = np.arange(M, 20 * M, dtype=float)
    C = float(np.max(np.abs(nu_c[1:])))
    tail = float(np.sum(C**2 / (kappa * m_ext**2) ** 3))
    tail += C**2 / kappa**3 * m_ext[-1] ** -5 / 5.0
    report = LimitReport(
        I_value=value, partial_sums=partial, tail_bound=float(2.0 * tail),
        positive=value > ZERO_LIMIT_FLOOR, finiteness="guaranteed(d<=6)",
        modes_used=M, boundary="neumann",
        inputs={"nu": nu_c.tolist(), "eigenvalues": lam.tolist()})
    if report.tail_bound > tol:
        raise LimitError(
            f"tail bound {report.tail_bound:.3e} above tolerance {tol:.3e}")
    return report


def finiteness_predicate(d: int) -> str:
    """Sufficient-condition classification for finiteness of the limit:
    guaranteed for every start when d <= 6, else not guaranteed.  No
    converse is implied."""
    return "guaranteed(d<=6)" if d <= 6 else "not-guaranteed"
