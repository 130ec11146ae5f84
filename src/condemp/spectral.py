"""Eigenbases of -(Delta + grad V . grad) on model domains.

Provides closed-form tensor-product sine/cosine bases on intervals and
rectangles (zero potential; an interval is the one-axis case) and a
symmetrized finite-difference solver for intervals with a tabulated
potential.  A basis bundles eigenvalues, eigenfunction samples on
an interior Gauss-Legendre quadrature grid, quadrature weights representing
the probability measure mu = e^V dx / Z, and per-mode sup-norm data for the
ground-state ratio phi_m / phi_0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import eigh, eigh_tridiagonal

from .domains import DIRICHLET, NEUMANN, Domain
from .measures import InitialDistribution

__all__ = [
    "BasisError",
    "ProjectionError",
    "SpectralBasis",
    "build_analytic_basis",
    "solve_sturm_liouville",
    "project",
    "mu_coefficients",
    "nu_l2_budget",
    "weyl_floor",
    "gauss_legendre",
    "analytic_eigenvalues",
    "mode_table",
    "bessel_remainder",
]

ORTHO_TOL = 1e-8


class BasisError(ValueError):
    pass


class ProjectionError(ValueError):
    pass


def gauss_legendre(n: int, a: float, b: float):
    """Gauss-Legendre nodes (strictly interior to (a, b)) and weights."""
    x, w = _legendre_rule(n)
    return 0.5 * (b - a) * (x + 1.0) + a, 0.5 * (b - a) * w


@lru_cache(maxsize=16)
def _legendre_rule(n: int):
    """numpy's n-point rule on (-1, 1), computed once per n, read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def mode_table(domain: Domain, M: int):
    """The M lowest tensor-product modes, ascending: eigenvalues and per-axis
    indices of shape (M, dim).  Index k on an axis of length L contributes
    (pi k / L)^2; Dirichlet axes start at k = 1, Neumann axes at k = 0.
    Equal eigenvalues are ordered by their indices, first axis first."""
    if domain.potential is not None:
        raise BasisError("closed-form eigenvalues require zero potential")
    d = domain.dim
    L = np.asarray(domain.lengths)
    lo = 1 if domain.boundary == DIRICHLET else 0
    n = int(np.ceil(M ** (1.0 / d))) + 1        # indices per axis, grown until closed
    while True:
        k = np.arange(lo, lo + n)
        idx = np.stack(np.meshgrid(*[k] * d, indexing="ij"), axis=-1).reshape(-1, d)
        lam = np.sum((np.pi * idx / L) ** 2, axis=1)
        order = np.lexsort([*idx.T[::-1], lam])[:M]
        # the lowest mode outside the index box must lie above every mode kept
        base = (np.pi * lo / L) ** 2
        outside = np.min((np.pi * (lo + n) / L) ** 2 - base) + np.sum(base)
        if order.size == M and lam[order[-1]] < outside:
            return lam[order], idx[order]
        n *= 2


def analytic_eigenvalues(domain: Domain, M: int) -> np.ndarray:
    """Closed-form eigenvalues for the zero-potential bases, ascending."""
    return mode_table(domain, M)[0]


def _axis_factors(k: np.ndarray, u: np.ndarray, boundary: str, ratio: bool) -> np.ndarray:
    """One axis of the tensor modes at unit coordinates u, shape (k.size, u.size):
    sqrt(2) sin(k pi u) (Dirichlet), sqrt(2) cos(k pi u) and 1 for k = 0
    (Neumann).  With ratio, the Dirichlet factor is divided by the ground
    factor, sin(k pi u) / sin(pi u), with its limits filled in at the faces;
    the Neumann ground factor is 1."""
    vals = np.outer(k, np.pi * u)          # one table, transformed in place
    (np.cos if boundary == NEUMANN else np.sin)(vals, out=vals)
    if boundary == NEUMANN or not ratio:
        vals *= np.sqrt(2.0)
        vals[k == 0] = 1.0        # Neumann only: Dirichlet indices start at 1
        return vals
    with np.errstate(divide="ignore", invalid="ignore"):
        vals /= np.sin(np.pi * u)
    vals[:, u <= 0.0] = k[:, None]
    vals[:, u >= 1.0] = (k * (-1.0) ** (k + 1))[:, None]
    return vals


def _tensor_modes(domain: Domain, idx: np.ndarray, x, ratio: bool) -> np.ndarray:
    """Closed-form modes (or ground-state ratios) with per-axis indices idx at
    points x, (n,) on an interval or (n, 2) on a rectangle: the product over
    axes of the per-axis factors, shape (len(idx), n)."""
    pts = np.asarray(x, dtype=float).reshape(-1, domain.dim)
    return reduce(np.multiply, [
        _axis_factors(idx[:, ax], (pts[:, ax] - lo) / (hi - lo), domain.boundary, ratio)
        for ax, (lo, hi) in enumerate(domain.axes)])


def weyl_floor(gaps: np.ndarray, d: int) -> float:
    """Fitted kappa with gaps_m >= kappa m^(2/d) on the upper half window,
    with a 10% margin.  A single-mode basis has no tail to dominate: 1."""
    M = gaps.size
    lo = max(1, M // 2)
    if lo >= M:
        return 1.0
    m = np.arange(lo, M, dtype=float)
    return 0.9 * float(np.min(gaps[lo:] / m ** (2.0 / d)))


@dataclass
class SpectralBasis:
    """Eigenpairs plus quadrature for mu, sampled on an interior grid.

    eigenfunctions has one row per mode; ground_ratio holds phi_m / phi_0 on
    the same grid.  weights represent mu (they sum to 1), mu_lebesgue is the
    Lebesgue density of mu at the grid nodes.
    """

    domain: Domain
    eigenvalues: np.ndarray
    grid: np.ndarray                 # (N,) in 1D, (N, 2) in 2D
    weights: np.ndarray
    mu_lebesgue: np.ndarray
    eigenfunctions: np.ndarray       # (M, N)
    sup_norms: np.ndarray
    ratio_sups: np.ndarray
    analytic: bool = True
    _splines: dict = field(default_factory=dict, repr=False)

    @property
    def M(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def gaps(self) -> np.ndarray:
        return self.eigenvalues - self.eigenvalues[0]

    @property
    def ground_state(self) -> np.ndarray:
        return self.eigenfunctions[0]

    @property
    def ground_ratio(self) -> np.ndarray:
        return self.eigenfunctions / self.eigenfunctions[0]

    @cached_property
    def mode_indices(self) -> np.ndarray:
        """Per-axis indices (M, dim) of the closed-form modes."""
        return mode_table(self.domain, self.M)[1]

    # ---- evaluation -------------------------------------------------

    def eval_modes(self, x, modes=None) -> np.ndarray:
        """Eigenfunction values at arbitrary points, shape (M_sel, len(x))."""
        sel = np.arange(self.M) if modes is None else np.asarray(modes)
        if self.analytic:
            return _tensor_modes(self.domain, self.mode_indices[sel], x, ratio=False)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty((sel.size, x.size))
        for r, m in enumerate(sel):
            out[r] = self._mode_spline(int(m))(x)
        return out

    def eval_ratio(self, x) -> np.ndarray:
        """phi_m / phi_0 at arbitrary points with boundary limits resolved."""
        if self.analytic:
            return _tensor_modes(self.domain, self.mode_indices, x, ratio=True)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        phi = self.eval_modes(x)
        return phi / self._ratio_safe_ground(x, phi)

    def eval_ratio_deriv(self, x) -> np.ndarray:
        """Spatial derivative of phi_m / phi_0 (1D only)."""
        if self.domain.kind != "interval":
            raise BasisError("ratio derivative implemented for intervals only")
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.analytic and self.domain.boundary == DIRICHLET:
            a, b = self.domain.bounds
            L = b - a
            u = (x - a) / L
            k = np.arange(1, self.M + 1)
            out = np.zeros((self.M, x.size))
            inner = (u > 0.0) & (u < 1.0)
            ui = u[inner]
            s, c = np.sin(np.pi * ui), np.cos(np.pi * ui)
            ku = np.outer(k, np.pi * ui)
            out[:, inner] = (np.pi / L) * (k[:, None] * np.cos(ku) * s - np.sin(ku) * c) / s**2
            # interior limit at the faces is 0 by symmetry of the ratio
            return out
        if self.analytic and self.domain.boundary == NEUMANN:
            a, b = self.domain.bounds
            L = b - a
            u = (x - a) / L
            k = np.arange(self.M)
            return -np.sqrt(2.0) * (np.pi * k[:, None] / L) * np.sin(np.outer(k, np.pi * u))
        ratio = self.eval_ratio(self.grid)
        out = np.empty((self.M, x.size))
        for m in range(self.M):
            out[m] = CubicSpline(self.grid, ratio[m])(x, 1)
        return out

    def _ratio_safe_ground(self, x, phi):
        g = phi[0].copy()
        tiny = 1e-13 * max(1.0, float(np.max(np.abs(g))))
        g[np.abs(g) < tiny] = tiny
        return g

    def _mode_spline(self, m: int) -> CubicSpline:
        if m not in self._splines:
            self._splines[m] = CubicSpline(self.grid, self.eigenfunctions[m])
        return self._splines[m]

    # ---- quadrature and diagnostics ---------------------------------

    def mu_lebesgue_at(self, x) -> np.ndarray:
        """Lebesgue density of mu at arbitrary interval points, normalized
        like the quadrature weights."""
        x = np.asarray(x, dtype=float)
        dom = self.domain
        if dom.potential is None:
            return np.full(x.shape, 1.0 / dom.lengths[0])
        V = dom.potential_values(x)
        Vg = dom.potential_values(self.grid)
        Z = float(np.dot(np.exp(Vg), self.weights / self.mu_lebesgue))
        return np.exp(V) / Z

    def integrate(self, values) -> float:
        """Integral against mu of a grid-sampled function."""
        return float(np.dot(np.asarray(values), self.weights))

    def integrate_mu0(self, values) -> float:
        """Integral against mu_0 = phi_0^2 mu of a grid-sampled function."""
        return float(np.dot(np.asarray(values) * self.ground_state**2, self.weights))

    def orthonormality_residual(self) -> float:
        G = (self.eigenfunctions * self.weights) @ self.eigenfunctions.T
        return float(np.max(np.abs(G - np.eye(self.M))))

    def weyl_slope(self) -> float:
        """Log-log growth rate of (lambda_m - lambda_0) over m in [M/4, M)."""
        lo = max(1, self.M // 4)
        m = np.arange(lo, self.M)
        gaps = self.gaps[lo:]
        fit = np.polyfit(np.log(m.astype(float)), np.log(gaps), 1)
        return float(fit[0])

    def validate(self):
        if np.any(np.diff(self.eigenvalues) < -1e-9 * max(1.0, self.eigenvalues[-1])):
            raise BasisError("eigenvalues not ascending")
        if self.domain.boundary == DIRICHLET and np.any(self.ground_state <= 0):
            raise BasisError("Dirichlet ground state not positive on the grid")
        res = self.orthonormality_residual()
        if res > ORTHO_TOL:
            raise BasisError(f"orthonormality residual {res:.3e} above {ORTHO_TOL}")
        total = float(np.sum(self.weights))
        if abs(total - 1.0) > 1e-12:
            raise BasisError(f"quadrature mass {total} differs from 1")
        return self

    # ---- serialization ----------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": "condemp.basis/1",
            "domain": self.domain.to_dict(),
            "eigenvalues": self.eigenvalues.tolist(),
            "grid": self.grid.tolist(),
            "weights": self.weights.tolist(),
            "mu_lebesgue": self.mu_lebesgue.tolist(),
            "eigenfunctions": self.eigenfunctions.tolist(),
            "sup_norms": self.sup_norms.tolist(),
            "ratio_sups": self.ratio_sups.tolist(),
            "analytic": self.analytic,
        }

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def from_dict(cls, doc: dict) -> "SpectralBasis":
        if doc.get("schema") != "condemp.basis/1":
            raise BasisError(f"unsupported basis document schema {doc.get('schema')!r}")
        basis = cls(
            domain=Domain.from_dict(doc["domain"]),
            eigenvalues=np.asarray(doc["eigenvalues"], dtype=float),
            grid=np.asarray(doc["grid"], dtype=float),
            weights=np.asarray(doc["weights"], dtype=float),
            mu_lebesgue=np.asarray(doc["mu_lebesgue"], dtype=float),
            eigenfunctions=np.asarray(doc["eigenfunctions"], dtype=float),
            sup_norms=np.asarray(doc["sup_norms"], dtype=float),
            ratio_sups=np.asarray(doc["ratio_sups"], dtype=float),
            analytic=bool(doc["analytic"]),
        )
        # files from before the indices were derived carry them: they must agree
        if "mode_indices" in doc and not np.array_equal(doc["mode_indices"], basis.mode_indices):
            raise BasisError("stored mode_indices disagree with the closed-form mode table")
        return basis.validate()

    @classmethod
    def load(cls, path) -> "SpectralBasis":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def build_analytic_basis(domain: Domain, M: int, n_quad: int | None = None) -> SpectralBasis:
    """Closed-form tensor-product basis on an interval or rectangle with zero
    potential, sampled on the product of n_quad Gauss-Legendre nodes per axis
    (default 4 M + 64 on an interval, max(2 k + 24, 32) on a rectangle whose
    largest axis index is k).  Sup norms and ratio sups are products of the
    per-axis ones."""
    if M < 1:
        raise BasisError("need at least one mode")
    if domain.potential is not None:
        raise BasisError("analytic basis requires zero potential; use solve_sturm_liouville")
    lam, idx = mode_table(domain, M)
    d = domain.dim
    if n_quad is None:
        n_quad = 4 * M + 64 if d == 1 else max(2 * int(idx.max()) + 24, 32)
    nodes, wl = zip(*[gauss_legendre(n_quad, lo, hi) for lo, hi in domain.axes])
    grid = nodes[0]
    if d > 1:
        grid = np.stack(np.meshgrid(*nodes, indexing="ij"), axis=-1).reshape(-1, d)
    wl = reduce(lambda p, q: np.outer(p, q).ravel(), wl)
    mu_leb = np.full(wl.size, 1.0 / np.prod(domain.lengths))
    w = wl * mu_leb
    w /= w.sum()
    sup_axis = np.where(idx > 0, np.sqrt(2.0), 1.0)
    ratio_axis = idx.astype(float) if domain.boundary == DIRICHLET else sup_axis
    basis = SpectralBasis(
        domain=domain, eigenvalues=lam, grid=grid, weights=w, mu_lebesgue=mu_leb,
        eigenfunctions=_tensor_modes(domain, idx, grid, ratio=False),
        sup_norms=np.prod(sup_axis, axis=1), ratio_sups=np.prod(ratio_axis, axis=1))
    return basis.validate()


def _sl_eigen_1d(domain: Domain, M: int, n: int):
    """Lowest M eigenpairs of the symmetrized finite-difference operator.

    Dirichlet uses interior nodes a + i h (i = 1..n-1) with zero boundary
    values; Neumann uses cell centers with zero-flux faces.  The generalized
    problem A f = lambda diag(e^V) f is reduced with the diagonal similarity
    D^{1/2}, which keeps the matrix exactly symmetric tridiagonal.
    """
    a, b = domain.bounds
    L = b - a
    h = L / n
    if domain.boundary == DIRICHLET:
        nodes = a + h * np.arange(1, n)
        face_x = a + h * np.arange(n) + 0.5 * h            # a+h/2, ..., b-h/2 (n faces)
        ev_face = np.exp(domain.potential_values(face_x))
        ev_node = np.exp(domain.potential_values(nodes))
        diag = (ev_face[:-1] + ev_face[1:]) / (h * h * ev_node)
        off = -ev_face[1:-1] / (h * h * np.sqrt(ev_node[:-1] * ev_node[1:]))
    else:
        nodes = a + h * (np.arange(n) + 0.5)
        face_x = a + h * np.arange(1, n)                   # interior faces only
        ev_face = np.exp(domain.potential_values(face_x))
        ev_node = np.exp(domain.potential_values(nodes))
        diag = np.zeros(n)
        diag[:-1] += ev_face / ev_node[:-1]
        diag[1:] += ev_face / ev_node[1:]
        diag /= h * h
        off = -ev_face / (h * h * np.sqrt(ev_node[:-1] * ev_node[1:]))
    try:
        lam, vec = eigh_tridiagonal(diag, off, select="i", select_range=(0, M - 1))
    except np.linalg.LinAlgError as exc:   # pragma: no cover - LAPACK failure
        raise BasisError(f"eigen-iteration failed to converge: {exc}") from exc
    f = vec / np.sqrt(ev_node)[:, None]     # undo the similarity
    return lam, nodes, f


def solve_sturm_liouville(domain: Domain, M: int, n_grid: int) -> SpectralBasis:
    """Numeric interval basis for f'' + V' f' = -lambda f in L^2(mu).

    Eigenvalues from the symmetric finite-difference problem at n_grid and
    2 n_grid are Richardson-combined (the h^2 error term cancels);
    eigenfunctions come from the fine grid, are interpolated onto an interior
    Gauss grid and re-orthonormalized against the quadrature inner product.
    """
    if domain.kind != "interval":
        raise BasisError("Sturm-Liouville solver handles intervals only")
    if M < 1:
        raise BasisError("need at least one mode")
    if n_grid < 8 * M:
        raise BasisError(f"n_grid={n_grid} too coarse for M={M} (need n_grid >= 8 M)")
    if domain.potential is not None and domain.potential.nodes.size < 16:
        raise BasisError("potential tabulation too coarse (need >= 16 nodes)")

    lam_c, _, _ = _sl_eigen_1d(domain, M, n_grid)
    lam_f, nodes, f = _sl_eigen_1d(domain, M, 2 * n_grid)
    lam = (4.0 * lam_f - lam_c) / 3.0
    if domain.boundary == NEUMANN:
        lam[0] = max(lam[0], 0.0) if abs(lam[0]) < 1e-7 else lam[0]
    scale = max(1.0, float(abs(lam[-1])))
    if np.any(np.diff(lam) < -1e-9 * scale):
        raise BasisError("eigenvalue crossing detected beyond tolerance")

    a, b = domain.bounds
    if domain.boundary == DIRICHLET:
        xs = np.concatenate([[a], nodes, [b]])
        fs = np.vstack([np.zeros((1, M)), f, np.zeros((1, M))])
    else:
        xs, fs = nodes, f

    n_quad = 4 * M + 64
    xg, wl = gauss_legendre(n_quad, a, b)
    V = domain.potential_values(xg)
    mu_leb = np.exp(V)
    Z = float(np.dot(wl, mu_leb))
    mu_leb = mu_leb / Z
    w = wl * mu_leb
    w /= w.sum()

    phi = np.empty((M, n_quad))
    for m in range(M):
        phi[m] = CubicSpline(xs, fs[:, m])(xg)

    # exact orthonormality w.r.t. the quadrature inner product
    G = (phi * w) @ phi.T
    evals, evecs = eigh(G)
    if np.any(evals <= 0):
        raise BasisError("Gram matrix of interpolated modes not positive definite")
    G_inv_half = (evecs / np.sqrt(evals)) @ evecs.T
    phi = G_inv_half @ phi

    for m in range(M):
        s = _sign_first_extremum(xg, phi[m]) if m else np.sign(np.sum(phi[0] * w))
        if s < 0:
            phi[m] = -phi[m]
    if domain.boundary == DIRICHLET and np.any(phi[0] <= 0):
        raise BasisError("ground state changed sign after discretization")

    basis = SpectralBasis(
        domain=domain, eigenvalues=lam, grid=xg, weights=w, mu_lebesgue=mu_leb,
        eigenfunctions=phi, sup_norms=np.max(np.abs(phi), axis=1),
        ratio_sups=np.max(np.abs(phi / phi[0]), axis=1), analytic=False)
    return basis.validate()


def _sign_first_extremum(x: np.ndarray, v: np.ndarray) -> float:
    dv = np.diff(v)
    sign_change = np.nonzero(dv[:-1] * dv[1:] < 0)[0]
    if sign_change.size:
        return float(np.sign(v[sign_change[0] + 1]))
    return float(np.sign(v[np.argmax(np.abs(v))]))


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def project(measure: InitialDistribution, basis: SpectralBasis) -> np.ndarray:
    """Coefficients <measure, phi_m> by quadrature or point evaluation."""
    kind = measure.kind
    if kind == "point":
        dom = basis.domain
        x0 = np.atleast_1d(np.asarray(measure.point, dtype=float))[:dom.dim]
        if dom.boundary == DIRICHLET:
            # killed case: a boundary start dies instantly
            if not dom.contains_interior(x0):
                raise ProjectionError(
                    f"point mass at {measure.point} is not interior to the domain")
        elif not all(lo <= x <= hi for x, (lo, hi) in zip(x0, dom.axes)):
            raise ProjectionError(f"point mass at {measure.point} lies outside the domain")
        return basis.eval_modes(x0)[:, 0]

    if kind in ("density_mu", "grid_density"):
        h = measure.density_on(basis.grid)
        if kind == "grid_density":
            # raw Lebesgue density tabulated on the measure's own nodes
            h = h / basis.mu_lebesgue
        _validate_density(h, basis.weights,
                          what="density w.r.t. mu" if kind == "density_mu" else "grid density")
        return basis.eigenfunctions @ (h * basis.weights)

    raise ProjectionError(f"unknown initial distribution kind {kind!r}")


def _validate_density(h: np.ndarray, weights: np.ndarray, what: str):
    if np.min(h) < -1e-12:
        raise ProjectionError(f"{what} has negative values (min {np.min(h):.3e})")
    mass = float(np.dot(h, weights))
    if abs(mass - 1.0) > 1e-8:
        raise ProjectionError(f"{what} mass {mass} differs from 1 beyond 1e-8")


def mu_coefficients(basis: SpectralBasis) -> np.ndarray:
    """Coefficients mu(phi_m) of the reference measure itself."""
    coeffs = basis.eigenfunctions @ basis.weights
    sum_sq = float(np.dot(coeffs, coeffs))
    if sum_sq > 1.0 + 1e-8:
        raise ProjectionError(f"sum of squared mu-coefficients {sum_sq:.12f} exceeds 1")
    return coeffs


def bessel_remainder(l2_budget: float, coeffs) -> float:
    """Bessel bound on the sum of squared coefficients over the dropped
    modes: what an L2 budget leaves after every retained mode."""
    return max(float(l2_budget) - float(np.sum(np.asarray(coeffs) ** 2)), 0.0)


def nu_l2_budget(nu: InitialDistribution, basis: SpectralBasis) -> float | None:
    """Bessel budget sum_m nu(phi_m)^2 <= ||h||^2_{L2(mu)} of a density start;
    None when nu has no density against mu."""
    if nu.kind != "density_mu":
        return None
    h = nu.density_on(basis.grid)
    return float(np.dot(h * h, basis.weights))
