"""Eigenbases of -(Delta + grad V . grad) on model domains.

Provides closed-form tensor-product sine/cosine bases on intervals and
rectangles (zero potential; an interval is the one-axis case) and a
symmetrized finite-difference solver for intervals with a tabulated
potential.  A basis bundles eigenvalues, eigenfunction samples on
an interior Gauss-Legendre quadrature grid, quadrature weights representing
the probability measure mu = e^V dx / Z, and per-mode sup-norm data for the
ground-state ratio phi_m / phi_0.  Closed-form bases sample their modes on
first read only.

Closed-form modes at arbitrary points come from one outer(k, pi u) table per
axis.  Series on a uniform interval grid (`SpectralBasis.grid_series`) build
no table: every closed-form product phi_m phi_n is a sum of two cosines of
the unit coordinate, so the series folds exactly into cosine coefficients
and one type-I DCT evaluates them (`cosine_series`).  Ground-state ratio
series (`SpectralBasis.ratio_series`) fold the same way, since sin(k pi u)
/ sin(pi u) is a cosine polynomial.  Numeric Sturm-Liouville bases
evaluate the same series through their mode table.
The monotone coupling of two such densities (`transport_equation`) reuses
the fold: their CDF gap is the matching sine series (baby/giant-step sums).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np
from scipy.fft import dct
from scipy.interpolate import CubicSpline, PPoly
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
    "validate_density",
    "mu_coefficients",
    "nu_l2_budget",
    "weyl_floor",
    "gauss_legendre",
    "gauss_panels",
    "mu_rule",
    "analytic_eigenvalues",
    "mode_table",
    "cosine_series",
    "bessel_remainder",
]

ORTHO_TOL = 1e-8
PANEL_ORDER = 16         # Gauss points per panel of the transport-equation rules
PHASE_CHUNK = 2**17      # step-table entries per chunk of points (2 MiB of complex128)
LEGENDRE_SWEEPS = 10     # Newton sweeps allowed for a Gauss-Legendre rule (4 at n = 8000)
NODE_STEP = 4e-16        # a Gauss-Legendre rule has converged when no node moves more


class BasisError(ValueError):
    pass


class ProjectionError(ValueError):
    pass


def gauss_legendre(n: int, a: float, b: float):
    """Gauss-Legendre nodes (strictly interior to (a, b)) and weights."""
    x, w = _legendre_rule(n)
    return 0.5 * (b - a) * (x + 1.0) + a, 0.5 * (b - a) * w


def gauss_panels(lo, hi, order: int):
    """The composite order-point Gauss-Legendre rule on the panels
    [lo_i, hi_i]: nodes and weights, panel after panel."""
    gx, gw = _legendre_rule(order)
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * gx
    return x.ravel(), (half[:, None] * gw).ravel()


def mu_rule(domain: Domain, M: int, n_quad: int | None = None):
    """The product Gauss-Legendre rule for mu on the domain's axes, n_quad
    nodes per axis (default 4 M + 64): nodes, (N,) or (N, dim), weights
    summing to 1, and the Lebesgue density of mu at the nodes, 1/|R| or
    e^V/Z with Z by this rule."""
    n = 4 * M + 64 if n_quad is None else n_quad
    nodes, wl = zip(*[gauss_legendre(n, lo, hi) for lo, hi in domain.axes])
    grid = nodes[0]
    if domain.dim > 1:
        grid = np.stack(np.meshgrid(*nodes, indexing="ij"), axis=-1).reshape(-1, domain.dim)
    wl = reduce(lambda p, q: np.outer(p, q).ravel(), wl)
    if domain.potential is None:
        mu_leb = np.full(wl.size, 1.0 / np.prod(domain.lengths))
    else:
        mu_leb = np.exp(domain.potential_values(grid))
        mu_leb /= float(np.dot(wl, mu_leb))
    w = wl * mu_leb
    w /= w.sum()
    return grid, w, mu_leb


@lru_cache(maxsize=16)
def _legendre_rule(n: int):
    """The n-point Gauss-Legendre rule on (-1, 1), ascending, computed once
    per n, read-only.

    Newton's method on the three-term recurrence, from Tricomi's initial
    guesses, for the ceil(n/2) nonnegative nodes; the others mirror them, and
    for odd n the middle node is exactly 0.  Weights are
    2 / ((1 - x^2) P_n'(x)^2) at the final nodes.  O(n) memory and O(n^2)
    time, against O(n^2) and O(n^3) for a companion eigensolve (Hale &
    Townsend 2013, SIAM J. Sci. Comput. 35).  A rule whose Newton steps are
    not all below NODE_STEP within LEGENDRE_SWEEPS sweeps raises."""
    if n < 1:
        raise BasisError(f"a Gauss-Legendre rule needs at least 1 node, got {n}")
    k = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    if n % 2:
        x[-1] = 0.0         # P_n(0) = 0 exactly for odd n: Newton keeps it
    for _ in range(LEGENDRE_SWEEPS):
        p, dp = _legendre_pair(n, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= NODE_STEP:
            break
    else:
        raise BasisError(f"Gauss-Legendre nodes for n = {n} did not converge in "
                         f"{LEGENDRE_SWEEPS} Newton sweeps")
    dp = _legendre_pair(n, x)[1]
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    x = np.concatenate([-x[:n // 2], x[::-1]])
    w = np.concatenate([w[:n // 2], w[::-1]])
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _legendre_pair(n: int, x: np.ndarray):
    """P_n and P_n' at interior points x, by the three-term recurrence."""
    prev, p = np.ones_like(x), x
    for j in range(1, n):
        prev, p = p, ((2 * j + 1) * x * p - j * prev) / (j + 1)
    return p, n * (prev - x * p) / ((1.0 - x) * (1.0 + x))


def mode_table(domain: Domain, M: int):
    """The M lowest tensor-product modes, ascending: eigenvalues and per-axis
    indices of shape (M, dim).  Index k on an axis of length L contributes
    (pi k / L)^2; Dirichlet axes start at k = 1, Neumann axes at k = 0.
    Equal eigenvalues are ordered by their indices, first axis first.  A
    box whose next eigenvalue overflows cannot close: that raises."""
    if domain.potential is not None:
        raise BasisError("closed-form eigenvalues require zero potential")
    d = domain.dim
    L = np.asarray(domain.lengths)
    lo = 1 if domain.boundary == DIRICHLET else 0
    n = int(np.ceil(M ** (1.0 / d))) + 1        # indices per axis, grown until closed
    while True:
        k = np.arange(lo, lo + n)
        idx = np.stack(np.meshgrid(*[k] * d, indexing="ij"), axis=-1).reshape(-1, d)
        with np.errstate(over="ignore"):        # an overflow is inf, checked below
            lam = np.sum((np.pi * idx / L) ** 2, axis=1)
            # the lowest mode outside the index box must lie above every mode kept
            base = (np.pi * lo / L) ** 2
            outside = np.min((np.pi * (lo + n) / L) ** 2 - base) + np.sum(base)
        order = np.lexsort([*idx.T[::-1], lam])[:M]
        if order.size == M and lam[order[-1]] < outside:
            return lam[order], idx[order]
        if not np.isfinite(outside):
            raise BasisError(f"the {M} lowest eigenvalues on axes of lengths "
                             f"{domain.lengths} overflow the float range")
        n *= 2


def analytic_eigenvalues(domain: Domain, M: int) -> np.ndarray:
    """Closed-form eigenvalues for the zero-potential bases, ascending."""
    return mode_table(domain, M)[0]


def _axis_factors(k: np.ndarray, u: np.ndarray, boundary: str, ratio: bool) -> np.ndarray:
    """One axis of the tensor modes at unit coordinates u, shape (k.size, u.size):
    sqrt(2) sin(k pi u) (Dirichlet), sqrt(2) cos(k pi u) and 1 for k = 0
    (Neumann).  With ratio, the Dirichlet factor is divided by the ground
    factor, sin(k pi u) / sin(pi u), with its limits filled in at the faces;
    the Neumann ground factor is 1.  The ratio is (-1)^(k+1) times its value
    at 1 - u, exact for u >= 1/2, where it is read: near u = 1 the phase's
    rounding, ~eps k pi u, would be divided by a small sin(pi u)."""
    far = (u > 0.5) & (ratio and boundary != NEUMANN)      # mirrored ratio columns
    u = np.where(far, 1.0 - u, u)
    vals = np.outer(k, np.pi * u)          # one table, transformed in place
    (np.cos if boundary == NEUMANN else np.sin)(vals, out=vals)
    if boundary == NEUMANN or not ratio:
        vals *= np.sqrt(2.0)
        vals[k == 0] = 1.0        # Neumann only: Dirichlet indices start at 1
        return vals
    with np.errstate(divide="ignore", invalid="ignore"):
        vals /= np.sin(np.pi * u)
    vals[:, u <= 0.0] = k[:, None]
    vals[:, far] *= (-1.0) ** (k + 1)[:, None]
    return vals


def _powers(w: np.ndarray, k: int) -> np.ndarray:
    """w^0 .. w^(k - 1), shape (k, w.size): rows h .. 2h - 1 are rows 0 .. h - 1 times w^h."""
    out = np.empty((k, w.size), dtype=complex)
    out[0], h = 1.0, 1
    while h < k:
        np.multiply(out[:min(h, k - h)], out[h - 1] * w, out=out[h:2 * h])
        h *= 2
    return out


def cosine_series(a, n: int) -> np.ndarray:
    """sum_p a_p cos(p pi u) at the n nodes u_j = j / (n - 1) of [0, 1], by one
    type-I DCT.  On the grid cos(p pi u_j) is even and 2 (n - 1)-periodic in
    p, so a phase p > n - 1 folds exactly onto p mod 2 (n - 1), reflected
    about n - 1."""
    if n < 2:
        raise BasisError(f"a uniform grid needs at least 2 nodes, got {n}")
    period = 2 * (n - 1)
    p = np.arange(np.size(a)) % period
    x = np.bincount(np.minimum(p, period - p), weights=np.ravel(a), minlength=n)
    x[1:-1] *= 0.5          # DCT-I doubles the inner terms
    return dct(x, type=1, overwrite_x=True)


def _tensor_modes(domain: Domain, idx: np.ndarray, x, ratio: bool) -> np.ndarray:
    """Closed-form modes (or ground-state ratios) with per-axis indices idx at
    points x, (n,) on an interval or (n, 2) on a rectangle: the product over
    axes of the per-axis factors, shape (len(idx), n)."""
    pts = np.asarray(x, dtype=float).reshape(-1, domain.dim)
    return reduce(np.multiply, [
        _axis_factors(idx[:, ax], (pts[:, ax] - lo) / (hi - lo), domain.boundary, ratio)
        for ax, (lo, hi) in enumerate(domain.axes)])


def _gram_residual(table: np.ndarray, weights: np.ndarray) -> float:
    """max |G - I| for the Gram matrix G of a mode table under the weights."""
    B = table * np.sqrt(weights)
    G = B @ B.T      # one symmetric product: numpy takes the syrk path
    return float(np.max(np.abs(G - np.eye(len(table)))))


def _check_orthonormal(table: np.ndarray, weights: np.ndarray):
    res = _gram_residual(table, weights)
    if not res <= ORTHO_TOL:      # NaN fails too
        raise BasisError(f"orthonormality residual {res:.3e} above {ORTHO_TOL}")


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
    Lebesgue density of mu at the grid nodes.  Numeric and loaded bases
    store their mode table in samples, and `validate` checks its Gram
    matrix.  A closed-form basis stores none: point evaluations, grid series
    and transport equations never read it, and `eigenfunctions` tabulates
    and checks it on first read.
    """

    domain: Domain
    eigenvalues: np.ndarray
    grid: np.ndarray                 # (N,) in 1D, (N, 2) in 2D
    weights: np.ndarray
    mu_lebesgue: np.ndarray
    ratio_sups: np.ndarray
    analytic: bool = True
    samples: np.ndarray | None = None    # (M, N) stored table, or None: closed form

    @property
    def M(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def gaps(self) -> np.ndarray:
        return self.eigenvalues - self.eigenvalues[0]

    @property
    def ground_state(self) -> np.ndarray:
        return self.eigenfunctions[0]

    @cached_property
    def ground_ratio(self) -> np.ndarray:
        """phi_m / phi_0 on the grid, (M, N), built once per basis, read-only."""
        table = self.eigenfunctions / self.eigenfunctions[0]
        table.flags.writeable = False
        return table

    @cached_property
    def eigenfunctions(self) -> np.ndarray:
        """The (M, N) mode table on the grid: the stored samples, or the
        closed-form modes tabulated once, read-only, after the orthonormality
        check that `validate` runs on stored tables."""
        if self.samples is not None:
            return self.samples
        table = _tensor_modes(self.domain, self.mode_indices, self.grid, ratio=False)
        table.flags.writeable = False
        _check_orthonormal(table, self.weights)
        return table

    @cached_property
    def mode_indices(self) -> np.ndarray:
        """Per-axis indices (M, dim) of the closed-form modes."""
        return mode_table(self.domain, self.M)[1]

    @cached_property
    def grid_ratio_deriv(self) -> np.ndarray:
        """`eval_ratio_deriv` on the basis grid, (M, N), built once per basis,
        read-only."""
        table = self.eval_ratio_deriv(self.grid)
        table.flags.writeable = False
        return table

    # ---- evaluation -------------------------------------------------

    def eval_modes(self, x, modes=None) -> np.ndarray:
        """Eigenfunction values at arbitrary points, shape (M_sel, len(x)).
        Numeric modes evaluate the selected columns of one spline."""
        sel = np.arange(self.M) if modes is None else np.asarray(modes)
        if self.analytic:
            return _tensor_modes(self.domain, self.mode_indices[sel], x, ratio=False)
        spline = self._mode_spline
        if modes is not None:
            spline = PPoly.construct_fast(spline.c[..., sel], spline.x, axis=1)
        # C order, as per-mode splines gave: BLAS rounds a transposed view apart
        return np.ascontiguousarray(spline(np.atleast_1d(np.asarray(x, dtype=float))))

    def grid_series(self, C, n: int) -> np.ndarray:
        """sum_mn C_mn phi_m phi_n for an (M, M) block C, or sum_m c_m phi_m
        for a vector c, on the interval grid np.linspace(a, b, n).

        Closed-form modes take no table.  Dirichlet: phi_m phi_n =
        cos((k - l) pi u) - cos((k + l) pi u) with k, l the mode indices, so
        the block folds into 2 M + 1 cosine coefficients for `cosine_series`;
        the series vanishes at both faces, and is set to 0 there.  Neumann:
        phi_m = s_m cos(k pi u), s_0 = 1 and s_m = sqrt 2, and the vector is
        row 0 of a block, since phi_0 = 1.  A Dirichlet vector (a sine
        series) and numeric bases contract the mode table instead."""
        dom = self.domain
        if dom.kind != "interval":
            raise BasisError("grid series are evaluated on intervals only")
        C = np.asarray(C, dtype=float)
        neumann = dom.boundary == NEUMANN
        if not self.analytic or (C.ndim == 1 and not neumann):
            phi = self.eval_modes(np.linspace(*dom.bounds, n))
            return C @ phi if C.ndim == 1 else np.einsum("mj,mn,nj->j", phi, C, phi,
                                                         optimize=True)
        f = cosine_series(self._cosine_coefficients(C), n)
        if not neumann:
            f[[0, -1]] = 0.0
        return f

    def ratio_series(self, c, n: int) -> np.ndarray:
        """sum_m c_m phi_m / phi_0 on the interval grid np.linspace(a, b, n),
        with the ratio's limits at the faces.

        Closed-form modes take no table.  Dirichlet: sin(k pi u) / sin(pi u)
        = sum_{p = k-1, k-3, .. >= 0} (2 - [p = 0]) cos(p pi u), so a_p is
        (2 - [p = 0]) times the sum of c over the modes k = p + 1, p + 3, ..,
        a reversed cumulative sum over each parity class, and `cosine_series`
        evaluates the M coefficients, at the faces too, with no division.
        Neumann: phi_0 = 1, and the series is `grid_series` of the vector.
        Numeric bases contract `eval_ratio` on the grid."""
        dom = self.domain
        if dom.kind != "interval":
            raise BasisError("ratio series are evaluated on intervals only")
        c = np.asarray(c, dtype=float)
        if not self.analytic:
            return c @ self.eval_ratio(np.linspace(*dom.bounds, n))
        if dom.boundary == NEUMANN:
            return self.grid_series(c, n)
        k = self.mode_indices[:, 0]
        a = np.bincount(k - 1, c, minlength=int(k[-1]))       # c_k at p = k - 1
        for first in (0, 1):
            a[first::2] = np.cumsum(a[first::2][::-1])[::-1]
        a[1:] *= 2.0
        return cosine_series(a, n)

    def _cosine_coefficients(self, C) -> np.ndarray:
        """The fold of `grid_series` for closed-form interval modes: a with
        sum_p a_p cos(p pi u) the series of a block C (or of a Neumann vector)
        in the unit coordinate u, p = 0 .. 2 k_max."""
        k = self.mode_indices[:, 0]
        rows = k[:1] if C.ndim == 1 else k
        size = 2 * int(k[-1]) + 1
        neumann = self.domain.boundary == NEUMANN
        if neumann:      # s_m s_n / 2, exactly: 1/2, sqrt(1/2) or 1
            nonzero = (rows[:, None] > 0).astype(int) + (k > 0)
            C = C * np.array([0.5, np.sqrt(0.5), 1.0])[nonzero]
        w, pair = C.ravel(), np.subtract.outer(rows, k)     # one index table, reused
        a = np.bincount(np.abs(pair, out=pair).ravel(), w, minlength=size)
        plus = np.bincount(np.add.outer(rows, k, out=pair).ravel(), w, minlength=size)
        return a + plus if neumann else a - plus

    def transport_equation(self, B):
        """The monotone coupling of mu_0 = phi_0^2 mu with mu_1 = mu_0 + f mu
        on an interval, in displacement form: f = sum_mn B_mn phi_m phi_n for
        an (M, M) block B, or sum_m b_m phi_m for a vector b, of zero mass.
        Closed-form Dirichlet modes take a block only: the fold reads a
        vector as row 0 of a block, which is f only where phi_0 = 1.

        Returns `at(x)`: for ascending points x, the Lebesgue density
        rho_0(x) and a function of the displacement d that returns
        F_1(x + d) - F_0(x) and its derivative rho_1(x + d).  x + d(x) is the
        monotone map where the first vanishes.  It is written as
        F_0(x + d) - F_0(x) + D(x + d), with D = F_1 - F_0 a series in B, so
        no O(1) CDF values are subtracted.

        Closed-form modes fold f into cosine coefficients beta_p in the unit
        coordinate u (`grid_series`), so D = sum_p beta_p sin(p pi u)/(p pi).
        Both are polynomials of degree P in z = exp(i pi u), summed by baby
        and giant steps (Paterson & Stockmeyer 1973): z^(q R + r) = (z^R)^q z^r,
        R = ceil(sqrt(P + 1)): one real product of the (2 Q, R) coefficients
        with the baby steps, then the Q giant steps.  phi_0^2 is 1 - cos 2 pi u
        (Dirichlet) or 1 (Neumann), so F_0(x + d) - F_0(x) = d - cos(pi (2 u
        + d)) sin(pi d)/pi or d, in units of L.  Numeric bases integrate f mu
        from the mode table: D(x) by Gauss rules between consecutive points,
        F_1(x + d) - F_1(x) by one on [x, x + d]."""
        if self.domain.kind != "interval":
            raise BasisError("transport equations are solved on intervals only")
        B = np.asarray(B, dtype=float)
        a, b = self.domain.bounds
        if not self.analytic:
            return self._numeric_transport_equation(B)
        L, dirichlet = b - a, self.domain.boundary == DIRICHLET
        if dirichlet and B.ndim == 1:
            raise BasisError("closed-form Dirichlet fluctuations are (M, M) blocks, not vectors")
        beta = self._cosine_coefficients(B)     # beta_0 is the mass: 0
        P = int(np.flatnonzero(beta)[-1]) if np.any(beta[1:]) else 0
        R = math.isqrt(P) + 1                   # ceil(sqrt(P + 1)) baby steps
        Q = -(-(P + 1) // R)                    # giant steps: R Q >= P + 1
        C = np.zeros((2, Q * R))                # f and D coefficients of z^(q R + r)
        C[:, 1:P + 1] = beta[1:P + 1], beta[1:P + 1] / (np.arange(1, P + 1) * np.pi)
        C = C.reshape(2 * Q, R)
        # whole blocks of 64 points: BLAS blocks C @ E alike at any chunk size
        chunk = 64 * max(1, PHASE_CHUNK // (64 * (R + 3 * Q)))

        def at(x):
            u = (np.asarray(x, dtype=float) - a) / L

            def residual(d):
                s = d / L
                y = u + s
                fD = np.empty((2, y.size))              # f and D at y
                for i in range(0, y.size, chunk):
                    z = np.exp(1j * np.pi * y[i:i + chunk])
                    E = _powers(z, R)                   # z^r
                    S = (C @ E.view(float)).view(complex).reshape(2, Q, z.size)
                    S *= _powers(E[-1] * z, Q)          # times z^(q R)
                    fD[:, i:i + chunk] = S[0].real.sum(axis=0), S[1].imag.sum(axis=0)
                if dirichlet:
                    inc = s - np.cos(np.pi * (2 * u + s)) * np.sin(np.pi * s) / np.pi
                    return inc + fD[1], (2 * np.sin(np.pi * y) ** 2 + fD[0]) / L
                return s + fD[1], (1.0 + fD[0]) / L

            return (2 * np.sin(np.pi * u) ** 2 if dirichlet else np.ones(u.size)) / L, residual
        return at

    def _numeric_transport_equation(self, B):
        """`transport_equation` by the mode table, with PANEL_ORDER-point
        Gauss rules.  Spline modes are orthonormal only on the basis grid, so
        phi_0^2 mu and phi_0^2 mu + f mu are each normalized by their
        integrals m_0 and m_0 + m_f: D = (R_f - m_f R_0 / m_0)/(m_0 + m_f),
        with R_f, R_0 the integrals of f mu and phi_0^2 mu from a, summed
        over the gaps between consecutive points and on to b."""
        a, b = self.domain.bounds
        gw = _legendre_rule(PANEL_ORDER)[1]

        def densities(y):       # f mu and phi_0^2 mu
            phi = self.eval_modes(y)
            f = B @ phi if B.ndim == 1 else np.sum(phi * (B @ phi), axis=0)
            mu = self.mu_lebesgue_at(y)
            return np.stack([f * mu, phi[0] ** 2 * mu])

        def integral(lo, hi):   # of both densities over each [lo_i, hi_i]
            pts = gauss_panels(lo, hi, PANEL_ORDER)[0]
            return densities(pts).reshape(2, lo.size, PANEL_ORDER) @ gw * (0.5 * (hi - lo))

        def at(x):
            x = np.asarray(x, dtype=float)
            R = np.cumsum(integral(np.append(a, x), np.append(x, b)), axis=1)
            (R_f, R_0), (m_f, m_0) = R[:, :-1], R[:, -1]
            D = (R_f - m_f * R_0 / m_0) / (m_0 + m_f)

            def residual(d):
                return (D + integral(x, x + d).sum(axis=0) / (m_0 + m_f),
                        densities(x + d).sum(axis=0) / (m_0 + m_f))
            return densities(x)[1] / m_0, residual
        return at

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
            far = u > 0.5           # mirrored as in `_axis_factors`, sign -(-1)^(k+1)
            u = np.where(far, 1.0 - u, u)
            k = np.arange(1, self.M + 1)
            out = np.zeros((self.M, x.size))
            inner = u > 0.0
            ui = u[inner]
            s, c = np.sin(np.pi * ui), np.cos(np.pi * ui)
            ku = np.outer(k, np.pi * ui)
            out[:, inner] = (np.pi / L) * (k[:, None] * np.cos(ku) * s - np.sin(ku) * c) / s**2
            out[:, far] *= -(-1.0) ** (k + 1)[:, None]
            # interior limit at the faces is 0 by symmetry of the ratio
            return out
        spline = CubicSpline(self.grid, self.eval_ratio(self.grid), axis=1)
        return np.ascontiguousarray(spline(x, 1))

    def _ratio_safe_ground(self, x, phi):
        g = phi[0].copy()
        tiny = 1e-13 * max(1.0, float(np.max(np.abs(g))))
        g[np.abs(g) < tiny] = tiny
        return g

    @cached_property
    def _mode_spline(self) -> CubicSpline:
        return CubicSpline(self.grid, self.eigenfunctions, axis=1)

    # ---- quadrature and diagnostics ---------------------------------

    def mu_lebesgue_at(self, x) -> np.ndarray:
        """Lebesgue density of mu at arbitrary interval points, normalized
        like the quadrature weights."""
        x = np.asarray(x, dtype=float)
        dom = self.domain
        if dom.potential is None:
            return np.full(x.shape, 1.0 / dom.lengths[0])
        return np.exp(dom.potential_values(x)) / self._potential_mass

    @cached_property
    def _potential_mass(self) -> float:
        """Z, the integral of e^V over the interval by the basis quadrature."""
        Vg = self.domain.potential_values(self.grid)
        return float(np.dot(np.exp(Vg), self.weights / self.mu_lebesgue))

    def integrate(self, values) -> float:
        """Integral against mu of a grid-sampled function."""
        return float(np.dot(np.asarray(values), self.weights))

    def integrate_mu0(self, values) -> float:
        """Integral against mu_0 = phi_0^2 mu of a grid-sampled function."""
        return float(np.dot(np.asarray(values) * self.ground_state**2, self.weights))

    def orthonormality_residual(self) -> float:
        return _gram_residual(self.eigenfunctions, self.weights)

    def weyl_slope(self) -> float:
        """Log-log growth rate of (lambda_m - lambda_0) over m in [M/4, M)."""
        lo = max(1, self.M // 4)
        m = np.arange(lo, self.M)
        gaps = self.gaps[lo:]
        fit = np.polyfit(np.log(m.astype(float)), np.log(gaps), 1)
        return float(fit[0])

    def validate(self):
        if not np.all(np.isfinite(self.eigenvalues)):
            raise BasisError("eigenvalues must be finite")
        if np.any(np.diff(self.eigenvalues) < -1e-9 * max(1.0, self.eigenvalues[-1])):
            raise BasisError("eigenvalues not ascending")
        if self.domain.boundary == DIRICHLET:
            # a closed-form ground state is row 0 of the table, without the table
            ground = (self.eval_modes(self.grid, [0])[0] if self.samples is None
                      else self.samples[0])
            if np.any(ground <= 0):
                raise BasisError("Dirichlet ground state not positive on the grid")
        if np.any(self.weights < 0):
            raise BasisError("quadrature weights must be nonnegative")
        if self.samples is not None:
            _check_orthonormal(self.samples, self.weights)
        total = float(np.sum(self.weights))
        if not abs(total - 1.0) <= 1e-12:
            raise BasisError(f"quadrature mass {total} differs from 1")
        return self

    # ---- serialization ----------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": "condemp.basis/2",
            "domain": self.domain.to_dict(),
            "eigenvalues": self.eigenvalues.tolist(),
            "grid": self.grid.tolist(),
            "weights": self.weights.tolist(),
            "mu_lebesgue": self.mu_lebesgue.tolist(),
            "eigenfunctions": self.eigenfunctions.tolist(),
            "ratio_sups": self.ratio_sups.tolist(),
            "analytic": self.analytic,
        }

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def from_dict(cls, doc: dict) -> "SpectralBasis":
        if doc.get("schema") not in ("condemp.basis/1", "condemp.basis/2"):
            raise BasisError(f"unsupported basis document schema {doc.get('schema')!r}")
        basis = cls(
            domain=Domain.from_dict(doc["domain"]),
            eigenvalues=np.asarray(doc["eigenvalues"], dtype=float),
            grid=np.asarray(doc["grid"], dtype=float),
            weights=np.asarray(doc["weights"], dtype=float),
            mu_lebesgue=np.asarray(doc["mu_lebesgue"], dtype=float),
            ratio_sups=np.asarray(doc["ratio_sups"], dtype=float),
            analytic=bool(doc["analytic"]),
            samples=np.asarray(doc["eigenfunctions"], dtype=float),
        )
        # /1 files also carry sup_norms, which nothing reads; files from before
        # the indices were derived carry them too: they must agree
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
    potential, on `mu_rule` with n_quad nodes per axis (default 4 M + 64 on
    an interval, max(2 k + 24, 32) on a rectangle whose largest axis index
    is k).  Ratio sups are products of the per-axis ones.
    The (M, N) mode table is not built here: `eigenfunctions` tabulates it
    on first read and checks its Gram matrix then, so an n_quad too coarse
    for M raises at that read, not at the build."""
    if M < 1:
        raise BasisError("need at least one mode")
    if domain.potential is not None:
        raise BasisError("analytic basis requires zero potential; use solve_sturm_liouville")
    lam, idx = mode_table(domain, M)
    if n_quad is None and domain.dim > 1:
        n_quad = max(2 * int(idx.max()) + 24, 32)
    grid, w, mu_leb = mu_rule(domain, M, n_quad)
    ratio_axis = (idx.astype(float) if domain.boundary == DIRICHLET
                  else np.where(idx > 0, np.sqrt(2.0), 1.0))
    basis = SpectralBasis(domain=domain, eigenvalues=lam, grid=grid, weights=w,
                          mu_lebesgue=mu_leb, ratio_sups=np.prod(ratio_axis, axis=1))
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

    xg, w, mu_leb = mu_rule(domain, M)
    phi = np.ascontiguousarray(CubicSpline(xs, fs)(xg).T)

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
        ratio_sups=np.max(np.abs(phi / phi[0]), axis=1), analytic=False, samples=phi)
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

    if kind == "density_mu":
        h = measure.density_on(basis.grid)
        validate_density(h, basis.weights)
        return basis.eigenfunctions @ (h * basis.weights)

    raise ProjectionError(f"unknown initial distribution kind {kind!r}")


def validate_density(h: np.ndarray, weights: np.ndarray):
    """Raise unless the density h against mu, sampled on a mu rule, is
    nonnegative and has mass 1 on that rule, within 1e-8."""
    if np.min(h) < -1e-12:
        raise ProjectionError(f"density w.r.t. mu has negative values (min {np.min(h):.3e})")
    mass = float(np.dot(h, weights))
    if not abs(mass - 1.0) <= 1e-8:      # NaN fails too
        raise ProjectionError(f"density w.r.t. mu mass {mass} differs from 1 beyond 1e-8")


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
