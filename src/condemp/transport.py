"""Quadratic Wasserstein distances by three independent routes, plus the
weighted-negative-Sobolev upper bound and a certified dual lower bound.

Routes: monotone quantile coupling in 1D (the workhorse), the exact
monotone coupling of atomized measures on the line, certified by a dual
pair, and debiased entropic regularization with epsilon scaling (the
primary method on rectangles).
Every result carries a declared error estimate; cross-method agreement is
asserted within those estimates, never to an absolute figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator

from .measures import GridMeasure
from .spectral import SpectralBasis

__all__ = [
    "TransportError",
    "TransportResult",
    "logarithmic_mean",
    "w2_quantile_1d",
    "w1_grid_1d",
    "w2_exact_discrete",
    "atomization_error",
    "w2_entropic",
    "h_minus1_upper_bound",
    "kantorovich_dual_lower",
]


W1_NODES = 4097           # CDF-gap grid of w1_grid_1d
ENTROPIC_MAX_NODES = 4096  # atoms per side the entropic route accepts
BOUNDARY_STRIP = 1e-3      # width of the strip h_minus1_upper_bound reports apart
DUAL_SEARCH = 32769        # search nodes of the conjugate in the dual lower bound
FINAL_SWEEPS = 1200        # Sinkhorn sweeps allowed at the final epsilon level
ABSORB_BOUND = 30.0        # |log| of a Sinkhorn scaling that forces re-absorption


class TransportError(ValueError):
    pass


@dataclass
class TransportResult:
    w2: float
    method: str
    error_estimate: float
    w2_squared: float = 0.0
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.w2 < 0:
            raise TransportError("distance cannot be negative")
        if not self.w2_squared:
            self.w2_squared = self.w2 * self.w2


def logarithmic_mean(a, b):
    """(a - b)/(log a - log b) extended by a on the diagonal, 0 off positivity.

    Stable at a ~ b through expm1 in r = log(b/a); the removable singularity
    at r = 0 is handled exactly.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.zeros(np.broadcast(a, b).shape)
    pos = (a > 0) & (b > 0)
    aa = np.where(pos, a, 1.0)
    bb = np.where(pos, b, 1.0)
    r = np.log(bb / aa)
    with np.errstate(invalid="ignore"):
        val = np.where(r == 0.0, aa, aa * np.expm1(r) / np.where(r == 0.0, 1.0, r))
    return np.where(pos, val, out)


# ---------------------------------------------------------------------------
# quantile route (1D)
# ---------------------------------------------------------------------------

def _quantile_grid(n_quantiles: int):
    """Composite Gauss panels in (0,1), geometrically refined at both ends.

    The quantile difference of measures whose densities vanish at the
    boundary behaves like a fractional power of u there; geometric panels
    keep the composite rule accurate without wasting nodes in the middle.
    """
    per_panel = 12
    n_geo = 14
    lo = 1e-10
    geo = lo * 2.0 ** np.arange(n_geo)
    n_mid = max(8, n_quantiles // per_panel - 2 * n_geo)
    edges = np.unique(np.concatenate(
        [[0.0], geo, np.linspace(geo[-1], 1.0 - geo[-1], n_mid), 1.0 - geo[::-1], [1.0]]))
    gx, gw = np.polynomial.legendre.leggauss(per_panel)
    a, b = edges[:-1], edges[1:]
    u = (0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * gx[None, :]).ravel()
    w = (0.5 * (b - a)[:, None] * gw[None, :]).ravel()
    return u, w


def w2_quantile_1d(m1: GridMeasure, m2: GridMeasure,
                   n_quantiles: int = 100_000) -> TransportResult:
    """W2 via the monotone coupling: the integral of the squared quantile gap.

    Both quantile functions are evaluated on a shared composite Gauss grid
    in the quantile variable, each level inverted inside its own cell of the
    measure's piecewise-polynomial CDF (`GridMeasure.quantile`).  The error
    estimate compares against the half-resolution value.
    """
    for m in (m1, m2):
        if np.any(np.diff(m.cdf(m.nodes)) < -1e-12):
            raise TransportError("non-monotone CDF: corrupt input measure")
    u, w = _quantile_grid(n_quantiles)
    q1 = m1.quantile(u)
    q2 = m2.quantile(u)
    diff = q1 - q2
    val = float(np.dot(w, diff * diff))
    uc, wc = _quantile_grid(max(n_quantiles // 2, 2000))
    dc = m1.quantile(uc) - m2.quantile(uc)
    val_coarse = float(np.dot(wc, dc * dc))
    err = abs(val - val_coarse) + 1e-15 * max(1.0, abs(val))
    w2 = float(np.sqrt(max(val, 0.0)))
    return TransportResult(w2=w2, method="quantile1d", error_estimate=err,
                           w2_squared=max(val, 0.0),
                           details={"n_quantiles": int(u.size)})


def w1_grid_1d(m1: GridMeasure, m2: GridMeasure) -> float:
    """First-order transport distance: the integral of the CDF gap."""
    a = min(m1.support[0], m2.support[0])
    b = max(m1.support[1], m2.support[1])
    x = np.linspace(a, b, W1_NODES)
    gap = np.abs(m1.cdf(x) - m2.cdf(x))
    return float(np.trapezoid(gap, x))


# ---------------------------------------------------------------------------
# exact discrete route
# ---------------------------------------------------------------------------

def w2_exact_discrete(support1, weights1, support2, weights2) -> TransportResult:
    """Exact optimal transport between atomized measures on the line, squared
    cost.

    In 1D the monotone coupling of the sorted atoms is optimal (the
    north-west-corner rule on the cumulative weights; Peyre & Cuturi 2019,
    sections 2.6 and 3.4).  Merging the two cumulative weight vectors gives
    the plan's cells in O(n + m) time and memory after the sort.  The result
    is certified by a dual pair: potentials set along the plan's staircase,
    f_i + g_j = c_ij on consecutive cells, are made feasible by two
    c-transforms, f = g^c over every x and g = f^c over every y.  The
    declared error is the duality gap plus the marginal residual times the
    squared diameter.  Atoms that stand for the cells of a continuous
    measure add `atomization_error` on top.
    """
    x, a = _merged_atoms(support1, weights1)
    y, b = _merged_atoms(support2, weights2)
    if abs(a.sum() - b.sum()) > 1e-10:
        raise TransportError(f"marginal mass mismatch {abs(a.sum() - b.sum()):.3e}")
    a = a / a.sum()
    b = b / b.sum()

    ca, cb = np.cumsum(a), np.cumsum(b)
    t = np.unique(np.concatenate([[0.0], ca, cb]))
    t = t[t <= min(ca[-1], cb[-1])]
    mass = np.diff(t)
    mid = 0.5 * (t[:-1] + t[1:])
    i, j = np.searchsorted(ca, mid), np.searchsorted(cb, mid)
    val = float(np.dot(mass, (x[i] - y[j]) ** 2))

    # g along the staircase, with f = 0 at its first cell: a step to the
    # next column at row r keeps f_r + g_j = c_rj on both cells (at a step
    # in both i and j, the row moves first)
    k = np.flatnonzero(np.diff(j)) + 1
    r = x[i[k]]
    g_path = (x[i[0]] - y[j[0]]) ** 2 + np.concatenate(
        [[0.0], np.cumsum((r - y[j[k]]) ** 2 - (r - y[j[k - 1]]) ** 2)])
    f = 2.0 * _c_transform(y[np.concatenate([j[:1], j[k]])], 0.5 * g_path, x)
    g = 2.0 * _c_transform(x, 0.5 * f, y)
    dual = float(np.dot(a, f) + np.dot(b, g))

    row_err = float(np.max(np.abs(np.bincount(i, mass, x.size) - a)))
    col_err = float(np.max(np.abs(np.bincount(j, mass, y.size) - b)))
    gap = abs(val - dual)
    diam2 = float(max((x[-1] - y[0]) ** 2, (y[-1] - x[0]) ** 2))
    err = gap + (row_err + col_err) * diam2 + 1e-14 * max(1.0, val)
    return TransportResult(
        w2=float(np.sqrt(val)), method="exact-discrete", error_estimate=err,
        w2_squared=val,
        details={"marginal_violation": max(row_err, col_err), "dual_gap": gap})


def _merged_atoms(support, weights):
    """Atoms on the line, sorted, with the weights of equal points summed."""
    s = np.asarray(support, dtype=float)
    w = np.asarray(weights, dtype=float)
    if s.ndim != 1 or w.shape != s.shape or s.size == 0:
        raise TransportError("exact route needs 1D supports with one weight per atom")
    if not np.all(np.isfinite(s)):
        raise TransportError("support points must be finite")
    if not np.all(np.isfinite(w)) or np.any(w < 0) or not w.sum() > 0:
        raise TransportError("weights must be finite, nonnegative and not all zero")
    x, inv = np.unique(s, return_inverse=True)
    return x, np.bincount(inv, w, x.size)


def atomization_error(w2_squared: float, width: float) -> float:
    """Worst-case change of W2^2 when cells of the given width are reduced
    to their centroid atoms: 2 W2 width / sqrt(12) + width^2 / 4."""
    return 2.0 * np.sqrt(max(w2_squared, 0.0)) * width / np.sqrt(12.0) + width**2 / 4.0


# ---------------------------------------------------------------------------
# entropic route
# ---------------------------------------------------------------------------

def _sq_cost(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Squared Euclidean cost between supports of shape (n,) or (n, d)."""
    X = x if x.ndim == 2 else x[:, None]
    Y = y if y.ndim == 2 else y[:, None]
    return ((X[:, None, :] - Y[None, :, :]) ** 2).sum(axis=2)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")   # sums are checked
def _sinkhorn_potentials(loga, logb, C, eps, f, g, max_iter, drift_tol, symmetric):
    """Sinkhorn sweeps until the potential drift is below drift_tol; returns
    the potentials, the sweep count and the last drift.

    Scaling form with absorption (Schmitzer 2019): the potentials f0, g0 of
    the last absorption sit in K = exp((f0 + g0 - C)/eps), and a half-step is
    one product of K with a scaling, exp((f - f0)/eps) or exp((g - g0)/eps):
    the log-domain Gauss-Seidel update in other variables.  The potentials
    are absorbed again once a scaling leaves exp(+-ABSORB_BOUND).  Once a
    half-step's sums underflow to 0, or overflow at tiny weights, the rest of
    the sweep runs in the log domain and the result is absorbed.
    """
    if f is None:
        f, g = np.zeros(loga.size), np.zeros(logb.size)
    a, b = np.exp(loga), np.exp(logb)
    K, f0, g0, u, v = _absorb(f, g, C, eps)
    for it in range(1, max_iter + 1):
        s = K @ (a * u if symmetric else b * v)
        log_domain = not np.all((s > 0.0) & (s < np.inf))
        if symmetric:
            # self-transport: averaged update is a contraction to f = g
            f_new = g_new = 0.5 * (f + (_softmin(f / eps + loga, C, eps) if log_domain
                                        else f0 - eps * np.log(s)))
            u = np.sqrt(u / s)
        else:
            f_new = _softmin(g / eps + logb, C, eps) if log_domain else f0 - eps * np.log(s)
            u = 1.0 / s
            r = (a * u) @ K
            log_domain = log_domain or not np.all((r > 0.0) & (r < np.inf))
            g_new = (_softmin(f_new / eps + loga, C.T, eps) if log_domain
                     else g0 - eps * np.log(r))
            v = 1.0 / r
        drift = np.max(np.abs(f_new - f))
        f, g = f_new, g_new
        if drift < drift_tol:
            break
        if log_domain or max(np.abs(f - f0).max(), np.abs(g - g0).max()) > ABSORB_BOUND * eps:
            K, f0, g0, u, v = _absorb(f, g, C, eps)
    return f, g, it, drift


def _absorb(f, g, C, eps):
    """The kernel exp((f + g - C)/eps), the potentials in it, unit scalings."""
    K = np.add.outer(f, g)
    K -= C
    K /= eps
    np.exp(K, out=K)
    return K, f, g, np.ones(f.size), np.ones(g.size)


def _softmin(w, C, eps):
    """-eps log sum_j exp(w_j - C_ij/eps) for every row i, with the row
    maximum taken out; a zero weight (w_j = -inf) adds 0."""
    z = C / -eps
    z += w
    m = z.max(axis=1)
    z -= m[:, None]
    np.exp(z, out=z)
    return -eps * (np.log(z.sum(axis=1)) + m)


def _ot_eps(a, b, C, eps_schedule, final_drift, symmetric=False):
    """Sharp transport cost along an epsilon schedule with warm starts.

    Returns the cost at the final level, the cost at the penultimate level
    (for a bias estimate), the dual value, the worst marginal violation, the
    plan, and the iteration count.  The earlier levels only warm-start the
    last one, which must reach `final_drift` within FINAL_SWEEPS sweeps.
    """
    with np.errstate(divide="ignore"):      # a zero weight is log 0 = -inf
        loga = np.log(a)
        logb = np.log(b)
    f = g = None
    iters = 0
    cost_prev = None
    for k, eps in enumerate(eps_schedule):
        last = k == len(eps_schedule) - 1
        f, g, n, drift = _sinkhorn_potentials(
            loga, logb, C, eps, f, g,
            max_iter=FINAL_SWEEPS if last else 60,
            drift_tol=final_drift if last else 1e-2 * eps,
            symmetric=symmetric)
        iters += n
        if last and drift >= final_drift:
            raise TransportError(f"Sinkhorn did not converge at eps {eps:.3g}: potential "
                                 f"drift {drift:.3g} after {n} sweeps (target {final_drift:.3g})")
        if k == len(eps_schedule) - 2:
            logP = (f[:, None] + g[None, :] - C) / eps + loga[:, None] + logb[None, :]
            cost_prev = float(np.sum(np.exp(logP) * C))
    eps = eps_schedule[-1]
    logP = (f[:, None] + g[None, :] - C) / eps + loga[:, None] + logb[None, :]
    P = np.exp(logP)
    cost = float(np.sum(P * C))
    row_err = float(np.max(np.abs(P.sum(axis=1) - a)))
    col_err = float(np.max(np.abs(P.sum(axis=0) - b)))
    dual = float(np.dot(f, a) + np.dot(g, b))
    return cost, cost_prev, dual, max(row_err, col_err), P, iters


def w2_entropic(m1, m2, eps_target: float = 1e-3, atoms: int = 384) -> TransportResult:
    """Debiased entropic transport with geometric epsilon scaling.

    Accepts GridMeasures (atomized internally) or raw (support, weights)
    pairs.  Subtracting the two self-transport terms cancels the leading
    entropic bias; the residual is estimated by comparing the debiased value
    at the last two epsilon levels.  The declared error combines that bias
    estimate, the duality gap, the marginal violation, and a worst-case
    atomization term.
    """
    x, a, h1 = _atoms_of(m1, atoms)
    y, b, h2 = _atoms_of(m2, atoms)
    if max(x.shape[0], y.shape[0]) > ENTROPIC_MAX_NODES:
        raise TransportError(f"entropic solver capped at {ENTROPIC_MAX_NODES} nodes")
    Cxy = _sq_cost(x, y)
    diam2 = float(max(Cxy.max(), 1e-30))
    n_levels = max(3, int(np.ceil(np.log2(diam2 / 4 / eps_target))) + 1)
    eps_schedule = np.geomspace(diam2 / 4, eps_target, n_levels)
    final_drift = 1e-5 * float(eps_schedule[-1])
    cost_ab, prev_ab, dual_ab, viol_ab, P, it_ab = _ot_eps(
        a, b, Cxy, eps_schedule, final_drift)
    Cxx = _sq_cost(x, x)
    Cyy = _sq_cost(y, y)
    cost_aa, prev_aa, dual_aa, viol_aa, _, _ = _ot_eps(
        a, a, Cxx, eps_schedule, final_drift, symmetric=True)
    cost_bb, prev_bb, dual_bb, viol_bb, _, _ = _ot_eps(
        b, b, Cyy, eps_schedule, final_drift, symmetric=True)
    eps_f = float(eps_schedule[-1])
    val = cost_ab - 0.5 * (cost_aa + cost_bb)
    if prev_ab is not None:
        val_prev = prev_ab - 0.5 * (prev_aa + prev_bb)
        bias_est = abs(val - val_prev)
    else:
        bias_est = eps_f
    ab = np.outer(a, b)
    ratio = np.divide(P, ab, out=np.ones_like(P), where=ab > 0)    # 0 log 0 = 0
    kl = float(np.sum(P * np.log(np.maximum(ratio, 1e-300))))
    gap = abs(cost_ab + eps_f * kl - dual_ab)
    viol = max(viol_ab, viol_aa, viol_bb)
    err = 2.0 * bias_est + gap + viol * diam2 + atomization_error(val, max(h1, h2))
    val = max(val, 0.0)
    return TransportResult(
        w2=float(np.sqrt(val)), method="entropic", error_estimate=float(err),
        w2_squared=val,
        details={"eps_final": eps_f, "dual_gap": gap, "bias_estimate": bias_est,
                 "marginal_violation": viol, "iterations": it_ab,
                 "atom_width": max(h1, h2)})


def _atoms_of(m, atoms):
    if isinstance(m, GridMeasure):
        x, a = m.atomize(atoms)
        lo, hi = m.support
        return x, a, (hi - lo) / atoms
    x, a = m
    return np.asarray(x, dtype=float), np.asarray(a, dtype=float) / np.sum(a), 0.0


# ---------------------------------------------------------------------------
# weighted H^-1 upper bound
# ---------------------------------------------------------------------------

def h_minus1_upper_bound(h: np.ndarray, basis: SpectralBasis):
    """Upper bound for W2^2 between h mu_0 and mu_0, for h on the basis grid.

    Expands rho = h - 1 in the ratio basis, applies the inverse generator
    mode by mode, and integrates the squared gradient against mu_0 weighted
    by the reciprocal logarithmic mean of (h, 1).  Nodes where h < 0 get
    zero weight and are flagged; the contribution of a thin strip near the
    boundary is reported separately.
    """
    hvals = np.asarray(h, dtype=float)
    if hvals.shape != basis.grid.shape[:1]:
        raise TransportError("density values must live on the basis grid")
    rho = hvals - 1.0
    w0 = basis.ground_state**2 * basis.weights
    R = basis.ground_ratio
    c = R @ (rho * w0)
    c0 = float(c[0])
    c = c.copy()
    c[0] = 0.0
    gaps = basis.gaps.copy()
    gaps[0] = 1.0
    coef = c / gaps
    coef[0] = 0.0
    grad = -(coef @ basis.eval_ratio_deriv(basis.grid))

    negative = hvals < 0
    weight = np.zeros_like(hvals)
    ok = ~negative
    weight[ok] = 1.0 / logarithmic_mean(hvals[ok], np.ones(int(ok.sum())))
    integrand = grad**2 * weight
    total = float(np.dot(integrand, w0))

    a, b = basis.domain.bounds[:2]
    strip = (basis.grid < a + BOUNDARY_STRIP) | (basis.grid > b - BOUNDARY_STRIP)
    strip_part = float(np.dot(integrand[strip], w0[strip]))
    tail_coeff = float(np.sum(c[basis.M // 2:] ** 2 / gaps[basis.M // 2:]))
    return {
        "upper_bound": total,
        "boundary_strip": strip_part,
        "excluded_nodes": int(negative.sum()),
        "mean_zero_defect": abs(c0),
        "coefficient_tail": tail_coeff,
        "gradient_norm_sq": float(np.dot(grad**2, w0)),
    }


# ---------------------------------------------------------------------------
# dual lower bound
# ---------------------------------------------------------------------------

def kantorovich_dual_lower(m1: GridMeasure, m2: GridMeasure, f_values, f_nodes):
    """Certified lower bound on W2^2 from one dual potential, given by its
    values at f_nodes and interpolated between them by PCHIP.

    The conjugate f^c(y) = inf_x {(x-y)^2/2 - f(x)} is minimized over a
    dense grid of DUAL_SEARCH nodes x_i by `_c_transform`, in O(N + M) time
    and memory for N search nodes and M target nodes.  Subtracting the
    parabola-bound slack (dx^2/8) (1 + max|f''|) keeps the reported value
    below the true weak-duality bound.  A poor potential yields a weak but
    valid bound; the result is clamped below at zero.
    """
    lo = min(m1.support[0], m2.support[0])
    hi = max(m1.support[1], m2.support[1])
    nodes = np.asarray(f_nodes, dtype=float)
    pp = PchipInterpolator(nodes, np.asarray(f_values, dtype=float))
    xs = np.linspace(max(lo, nodes[0]), min(hi, nodes[-1]), DUAL_SEARCH)
    if not xs[-1] > xs[0]:
        raise TransportError("dual potential nodes must overlap the supports")
    fx = pp(xs)
    if not np.all(np.isfinite(fx)):
        raise TransportError("dual potential must be bounded on the grid")
    dx = xs[1] - xs[0]
    fpp = pp.derivative(2)(xs)
    slack = (dx * dx / 8.0) * (1.0 + float(np.max(np.abs(fpp))))

    fc = _c_transform(xs, fx, m2.nodes) - slack

    int_f = m1.expectation(pp(m1.nodes))
    int_fc = m2.expectation(fc)
    raw = 2.0 * (int_f + int_fc)
    return {
        "lower_bound": max(raw, 0.0),
        "raw_value": raw,
        "conjugation_slack": slack,
        "potential_term": int_f,
        "conjugate_term": int_fc,
    }


def _c_transform(x, f, y):
    """The conjugate min_i {(x_i - y)^2/2 - f_i} at every y, for x strictly
    ascending: a discrete Legendre transform in O(N + M).

    Since (x_i - y)^2/2 - f_i = y^2/2 - (x_i y - psi_i) with psi_i =
    x_i^2/2 - f_i, each y's minimizer is a vertex of the lower convex hull
    of the points (x_i, psi_i) (Lucet 1997).  Each y picks its vertex by one
    search into the hull's edge slopes, and the original expression is
    evaluated at that vertex and its two hull neighbours, so the value
    equals the minimum over every x_i up to rounding at near-ties.
    """
    hull, slopes = _lower_hull(x, 0.5 * x * x - f)
    k = np.searchsorted(slopes, y)
    cand = hull[np.clip(k + np.array([[-1], [0], [1]]), 0, hull.size - 1)]
    return (0.5 * (x[cand] - y) ** 2 - f[cand]).min(axis=0)


def _lower_hull(x, y):
    """Vertices of the lower convex hull of the points (x_i, y_i), x
    ascending, by the monotone chain, and the slopes of its edges.

    A vertex is dropped while the edge to the next point is no steeper than
    the edge into it, so the returned slopes strictly increase as computed
    in floating point and can be searched.  When the consecutive slopes
    already do, every point is a vertex and the chain would drop none.
    """
    slopes = np.diff(y) / np.diff(x)      # the chain's own operations
    if np.all(slopes[1:] > slopes[:-1]):
        return np.arange(x.size), slopes
    xl, yl = x.tolist(), y.tolist()
    hull, slopes = [0], []
    for i in range(1, len(xl)):
        while True:
            j = hull[-1]
            s = (yl[i] - yl[j]) / (xl[i] - xl[j])
            if not slopes or s > slopes[-1]:
                break
            hull.pop()
            slopes.pop()
        hull.append(i)
        slopes.append(s)
    return np.array(hull), np.array(slopes)
