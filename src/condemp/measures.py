"""Probability measures on model domains as grid data.

GridMeasure is the workhorse for transport computations: a Lebesgue density
on an ascending node grid held as one piecewise polynomial, the
shape-preserving (PCHIP) cubic interpolant of sampled values or, for
histograms, the piecewise constant of per-cell values.  Its antiderivative
is the monotone CDF.  Quantiles find their cell in the node CDF table and
are inverted there, a few thousand levels at a time: linear interpolation,
exact on linear CDF pieces, then a bracketed Newton iteration on the
cell's polynomial.

InitialDistribution describes a starting law nu: a density against mu or an
interior point mass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator, PPoly

__all__ = ["MeasureError", "GridMeasure", "InitialDistribution"]


NEWTON_ITERS = 60      # cap on guarded Newton steps per quantile inversion
QUANTILE_BLOCK = 4096  # levels inverted at once: bounds the sweep's ~25 work arrays
EPS, TINY = np.finfo(float).eps, np.finfo(float).smallest_subnormal


class MeasureError(ValueError):
    pass


@dataclass
class InitialDistribution:
    """Starting law nu with nu(interior) > 0.

    kind: "density_mu" -- density h w.r.t. mu, as a callable or as values
                          on `nodes` that `density_on` interpolates if needed;
          "point"      -- interior point mass.
    """

    kind: str
    point: np.ndarray | float | None = None
    density: object | None = None      # callable or array aligned with nodes
    nodes: np.ndarray | None = None
    name: str = ""

    @classmethod
    def from_mu(cls) -> "InitialDistribution":
        return cls(kind="density_mu", density=lambda x: np.ones(np.shape(x)[0] if np.ndim(x) else 1),
                   name="mu")

    @classmethod
    def from_density_mu(cls, density, name: str = "h*mu") -> "InitialDistribution":
        return cls(kind="density_mu", density=density, name=name)

    @classmethod
    def from_point(cls, x0, name: str = "") -> "InitialDistribution":
        return cls(kind="point", point=np.asarray(x0, dtype=float),
                   name=name or f"delta@{np.asarray(x0, dtype=float)}")

    def label(self) -> str:
        return self.name or self.kind

    def density_on(self, x) -> np.ndarray:
        """Density against mu at query points: the callable's values, a table
        on its own nodes (interval or rectangle grid) or its PCHIP interpolant
        (intervals)."""
        if self.kind == "point":
            raise MeasureError("point mass has no density")
        if callable(self.density):
            x_arr = np.asarray(x, dtype=float)
            n = x_arr.shape[0] if x_arr.ndim else 1
            vals = np.asarray(self.density(x), dtype=float)
            return np.broadcast_to(vals, (n,)).astype(float) if vals.ndim == 0 else vals
        vals = np.asarray(self.density, dtype=float)
        x_arr = np.asarray(x, dtype=float)
        if x_arr.shape == self.nodes.shape and np.allclose(self.nodes, x_arr):
            return vals
        if x_arr.ndim != 1:
            raise MeasureError("tabulated densities are interpolated in 1D only")
        return PchipInterpolator(self.nodes, vals)(x_arr)


class GridMeasure:
    """A probability measure on an interval given by a piecewise polynomial
    Lebesgue density.

    Parameters
    ----------
    nodes : ascending 1D grid (endpoints may be included).
    density : values of the Lebesgue density at the nodes.
    histogram : if True the density holds one value per cell between nodes
        and is piecewise constant; otherwise it is the PCHIP interpolant of
        the nodal values.
    """

    def __init__(self, nodes, density, histogram: bool = False, name: str = ""):
        nodes = np.asarray(nodes, dtype=float)
        leb = np.array(density, dtype=float)
        if nodes.ndim != 1 or np.any(np.diff(nodes) <= 0):
            raise MeasureError("nodes must be strictly increasing 1D")
        if leb.shape != (nodes.size - histogram,):
            raise MeasureError("density needs one value per node (per cell for a histogram)")
        if np.min(leb) < -1e-12 * max(1.0, float(np.max(np.abs(leb)))):
            raise MeasureError(f"density negative beyond tolerance (min {np.min(leb):.3e})")
        leb = np.maximum(leb, 0.0)

        self.nodes = nodes
        self.histogram = histogram
        self.name = name
        self.lebesgue_density = leb
        self._pdf = PPoly(leb[None, :], nodes) if histogram else PchipInterpolator(nodes, leb)
        self._cdf = self._pdf.antiderivative()
        # the CDF at each left breakpoint is its piece's constant term
        self._cdf_nodes = np.append(self._cdf.c[-1], self._cdf(nodes[-1]))
        self._mass = float(self._cdf_nodes[-1])
        if not abs(self._mass - 1.0) <= 1e-8:      # NaN densities fail here too
            raise MeasureError(f"total mass {self._mass!r} differs from 1 beyond 1e-8")
        # monotonicity guard for corrupt inputs
        if np.any(np.diff(self._cdf_nodes) < -1e-14):
            raise MeasureError("CDF not monotone (corrupt density input)")

    # ---- basic queries ------------------------------------------------

    @property
    def support(self):
        return float(self.nodes[0]), float(self.nodes[-1])

    def cdf(self, x) -> np.ndarray:
        """Normalized CDF values at x."""
        return np.clip(self._cdf(np.clip(x, *self.support)) / self._mass, 0.0, 1.0)

    @property
    def node_cdf(self) -> np.ndarray:
        """The normalized CDF table at the nodes, where quantiles find their cell."""
        return self._cdf_nodes / self._mass

    def pdf(self, x) -> np.ndarray:
        return np.maximum(self._pdf(np.clip(x, *self.support)), 0.0) / self._mass

    def quantile(self, u) -> np.ndarray:
        """Inverse CDF, inverted inside the cell that holds each level.

        The start interpolates the node CDF table linearly inside the cell;
        it is exact where the cell's CDF is linear (every histogram cell).
        Elsewhere Newton on the cell's CDF polynomial, kept inside its
        bracket by bisection, starts there (or, for levels deep in a cell
        whose density vanishes at its left node, at the root of the
        polynomial's lowest-order term) and stops once the residual is
        within the rounding of its Horner sum, or the Newton step or the
        bracket is a few ulps of x.  Levels still open after NEWTON_ITERS
        steps raise MeasureError.  Levels go QUANTILE_BLOCK at a time; each
        level's path is its own, so no bit depends on the blocking.
        """
        u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
        blocks = np.split(u.ravel(), range(QUANTILE_BLOCK, u.size, QUANTILE_BLOCK))
        return np.concatenate([self._invert(b) for b in blocks]).reshape(u.shape)

    def _invert(self, u: np.ndarray) -> np.ndarray:
        """Quantiles of the flat level array u, as `quantile` describes."""
        F = self.node_cdf
        j = np.clip(np.searchsorted(F, u, side="left"), 1, F.size - 1)
        F0, F1 = F[j - 1], F[j]
        x0, x1 = self.nodes[j - 1], self.nodes[j]
        s = np.where(F1 > F0, (u - F0) / np.where(F1 > F0, F1 - F0, 1.0), 0.0) * (x1 - x0)
        # Newton in the cell-local variable s = x - x0, on nonlinear cells
        coef = self._cdf.c[:, j - 1]
        target, lo, hi = u * self._mass, np.zeros_like(s), x1 - x0
        open_ = np.flatnonzero(np.any(coef[:-2] != 0, axis=0))
        # Where the density vanishes at x0 the cell's CDF starts as c_k s^k,
        # k >= 2, and a level far below the cell's mass has its root far
        # above the linear start and far below the cell width, which guarded
        # Newton nears only geometrically.  Such levels (linear start below
        # sqrt(EPS) times the root s0 of that lowest-order term) start at s0.
        v = open_[coef[-2, open_] == 0]
        low = coef[-2::-1, v]                      # orders 1 .. 4
        k = np.argmax(low != 0, axis=0)
        ck = low[k, np.arange(v.size)]
        s0 = (np.maximum(target[v] - coef[-1, v], 0.0)
              / np.where(ck > 0, ck, np.inf)) ** (1.0 / (k + 1))
        far = s[v] < np.sqrt(EPS) * s0
        s[v[far]] = np.minimum(s0[far], hi[v[far]])
        for _ in range(NEWTON_ITERS):
            if open_.size == 0:
                break
            c, t, si = coef[:, open_], target[open_], s[open_]
            tol = 2 * EPS * (np.abs(x0[open_]) + si) + TINY    # a few ulps of x and s
            g, dg, size = c[0], np.zeros_like(si), np.abs(c[0])
            for ck in c[1:]:                                   # size: Horner sum of |terms|
                dg = dg * si + g
                g = g * si + ck
                size = size * si + np.abs(ck)
            g = g - t
            lo_i = np.where(g < 0, si, lo[open_])
            hi_i = np.where(g > 0, si, hi[open_])
            done = ((np.abs(g) <= 0.5 * EPS * (size + t) + TINY) | (np.abs(g) <= tol * dg)
                    | (hi_i - lo_i <= tol))
            s_new = si - g / np.where(dg > 0, dg, 1.0)
            inside = (dg > 0) & (s_new > lo_i) & (s_new < hi_i)
            s_new = np.where(inside, s_new, 0.5 * (lo_i + hi_i))
            keep = ~done                                       # a closed level keeps its s
            open_ = open_[keep]
            s[open_], lo[open_], hi[open_] = s_new[keep], lo_i[keep], hi_i[keep]
        if open_.size:
            raise MeasureError(f"quantile inversion left {open_.size} levels unconverged "
                               f"after {NEWTON_ITERS} Newton steps")
        return np.minimum(x0 + s, x1)

    # ---- integration and atomization -----------------------------------

    def expectation(self, values) -> float:
        """Integral of a function given by its values at the nodes.

        Smooth measures use composite Simpson against the Lebesgue density;
        histograms use exact cell sums of the piecewise-constant density
        times the nodal average of the integrand.
        """
        v = np.asarray(values, dtype=float)
        if self.histogram:
            mid = 0.5 * (v[:-1] + v[1:]) if v.size == self.nodes.size else v
            return float(np.sum(mid * self.lebesgue_density * np.diff(self.nodes)) / self._mass)
        from scipy.integrate import simpson    # deferred: ~40 ms of start-up otherwise
        f = v * self.lebesgue_density
        return float(simpson(f, x=self.nodes) / self._mass)

    def atomize(self, n_atoms: int):
        """Equal-width cells reduced to (centroid, mass) atoms.

        Centroids preserve per-cell first moments, so transport distances
        between atomizations track the continuous ones to O(width^2).
        """
        a, b = self.support
        edges = np.linspace(a, b, n_atoms + 1)
        F = self.cdf(edges) * self._mass
        masses = np.maximum(np.diff(F), 0.0)
        # first moments per cell by fine midpoint sums
        refine = 8
        xs = np.linspace(a, b, n_atoms * refine + 1)
        xm = 0.5 * (xs[:-1] + xs[1:])
        pm = self.pdf(xm) * np.diff(xs)
        moment = (xm * pm).reshape(n_atoms, refine).sum(axis=1)
        cell_pm = pm.reshape(n_atoms, refine).sum(axis=1)
        centers = 0.5 * (edges[:-1] + edges[1:])
        good = cell_pm > 1e-300
        centroids = centers.copy()
        centroids[good] = moment[good] / cell_pm[good]
        centroids = np.clip(centroids, edges[:-1], edges[1:])
        total = masses.sum()
        if total <= 0:
            raise MeasureError("atomization produced no mass")
        masses = masses / total
        # negligible atoms (below 1e-14 of the mass) are dropped
        keep = masses > 1e-14
        masses = masses[keep]
        return centroids[keep], masses / masses.sum()

    # ---- constructors ---------------------------------------------------

    @classmethod
    def normalized(cls, nodes, density, name: str = "") -> "GridMeasure":
        """Construct from a nonnegative shape, normalizing by its own
        interpolated integral so the mass invariant holds exactly."""
        nodes = np.asarray(nodes, dtype=float)
        density = np.maximum(np.asarray(density, dtype=float), 0.0)
        total = float(PchipInterpolator(nodes, density).antiderivative()(nodes[-1]))
        if total <= 0:
            raise MeasureError("density shape has no mass")
        return cls(nodes, density / total, name=name)

    @classmethod
    def from_histogram(cls, edges, masses, name: str = "") -> "GridMeasure":
        edges = np.asarray(edges, dtype=float)
        masses = np.asarray(masses, dtype=float)
        dens = masses / np.diff(edges)
        total = float(np.sum(masses))
        if total <= 0:
            raise MeasureError("histogram has no mass")
        return cls(edges, dens / total, histogram=True, name=name)
