import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.interpolate import PchipInterpolator
from scipy.optimize import linprog
from scipy.special import logsumexp

from condemp import (build_analytic_basis, harness, mu_coefficients, project, transport,
                     unit_interval)
from condemp.domains import NEUMANN
from condemp.measures import GridMeasure, InitialDistribution
from condemp.semigroup import conditional_density, rho_tilde
from condemp.transport import (DUAL_SEARCH, TransportError, _lower_hull, h_minus1_upper_bound,
                               kantorovich_dual_lower, logarithmic_mean,
                               w1_grid_1d, w2_entropic,
                               w2_exact_discrete, w2_quantile_1d)

X = np.linspace(0.0, 1.0, 2049)


def uniform():
    return GridMeasure(X, np.ones_like(X))


def mu0_measure(n=8193):
    x = np.linspace(0, 1, n)
    return GridMeasure.normalized(x, 2.0 * np.sin(np.pi * x) ** 2)


def bump(center, width=0.02, n=4097):
    x = np.linspace(0, 1, n)
    d = np.exp(-0.5 * ((x - center) / width) ** 2)
    return GridMeasure.normalized(x, d)


def random_measure(rng, n=2049):
    x = np.linspace(0, 1, n)
    d = 0.3 * np.ones(n)
    for _ in range(3):
        c, s, a = rng.uniform(0.15, 0.85), rng.uniform(0.05, 0.2), rng.uniform(0.3, 1.5)
        d += a * np.exp(-0.5 * ((x - c) / s) ** 2)
    return GridMeasure.normalized(x, d)


# ---------------------------------------------------------------------------
# quantile route
# ---------------------------------------------------------------------------

def test_quantile_identical_measures():
    res = w2_quantile_1d(uniform(), uniform(), n_quantiles=5000)
    assert res.w2 <= 1e-12


def test_quantile_translated_bumps():
    res = w2_quantile_1d(bump(0.25), bump(0.75), n_quantiles=20000)
    assert res.w2 == pytest.approx(0.5, abs=1e-8)


def test_quantile_uniform_vs_ground_limit():
    # independent oracle: dense Riemann sum over the quantile gap
    xf = np.linspace(0.0, 1.0, 1_000_001)
    F = xf - np.sin(2 * np.pi * xf) / (2 * np.pi)    # CDF of 2 sin^2(pi x)
    u = (np.arange(1_000_000) + 0.5) / 1_000_000
    q2 = np.interp(u, F, xf)
    oracle = float(np.mean((u - q2) ** 2))
    res = w2_quantile_1d(uniform(), mu0_measure(), n_quantiles=100_000)
    assert res.w2_squared == pytest.approx(oracle, abs=1e-8)


def test_quantile_rejects_corrupt_cdf():
    gm = uniform()
    gm._cdf_nodes = gm._cdf_nodes.copy()
    gm._cdf_nodes[100] = gm._cdf_nodes[99] - 1e-3    # corrupt the cache
    gm.cdf = lambda x: np.interp(x, gm.nodes, gm._cdf_nodes)
    with pytest.raises(TransportError):
        w2_quantile_1d(gm, uniform())


# ---------------------------------------------------------------------------
# exact discrete route
# ---------------------------------------------------------------------------

def test_exact_identical_atoms():
    x = np.linspace(0.1, 0.9, 32)
    w = np.full(32, 1.0 / 32)
    res = w2_exact_discrete(x, w, x, w)
    assert res.w2_squared == 0.0


def test_exact_two_atom_forced_plan():
    res = w2_exact_discrete([0.0, 1.0], [0.5, 0.5], [0.5], [1.0])
    assert res.w2_squared == pytest.approx(0.25, abs=1e-12)


def test_exact_mass_mismatch_rejected():
    with pytest.raises(TransportError):
        w2_exact_discrete([0.0, 1.0], [0.5, 0.6], [0.5], [1.0])
    with pytest.raises(TransportError, match="mismatch"):
        w2_exact_discrete([0.0, 1.0], [0.5, 0.5 + 1e-9], [0.5], [1.0])
    with pytest.raises(TransportError, match="1D"):
        w2_exact_discrete([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5], [0.5], [1.0])


@pytest.mark.parametrize("support, weights, match", [
    ([0.0, np.nan], [0.5, 0.5], "finite"),
    ([0.0, np.inf], [0.5, 0.5], "finite"),
    ([0.0, 1.0], [1.5, -0.5], "nonnegative"),
    ([0.0, 1.0], [np.nan, 1.0], "finite"),
    ([0.0, 1.0], [0.0, 0.0], "not all zero"),
    ([0.0, 1.0], [1.0], "one weight per atom"),
])
def test_exact_rejects_invalid_atoms(support, weights, match):
    with pytest.raises(TransportError, match=match):
        w2_exact_discrete(support, weights, [0.5], [1.0])
    with pytest.raises(TransportError, match=match):
        w2_exact_discrete([0.5], [1.0], support, weights)


def test_exact_matches_quantile_on_occupation():
    basis = build_analytic_basis(unit_interval(), 64)
    cd = conditional_density(InitialDistribution.from_mu(), basis, 2.0)
    from condemp.harness import mu0_measure as m0_of, spectral_measure
    mt = spectral_measure(cd, basis, 4097)
    m0 = m0_of(basis, 4097)
    x1, a1 = mt.atomize(256)
    x2, a2 = m0.atomize(256)
    exact = w2_exact_discrete(x1, a1, x2, a2)
    quant = w2_quantile_1d(mt, m0, n_quantiles=50_000)
    spacing = 1.0 / 256
    assert abs(exact.w2 - quant.w2) <= spacing


def _exact_lp_reference(x, a, y, b):
    """The transportation linear program over the full N x M cost matrix,
    by the HiGHS dual simplex; returns W2^2 and its declared error (the
    duality gap plus the marginal residual times the squared diameter).
    Presolve is off: with zero weights it can declare the program
    infeasible over a mass mismatch of one rounding unit."""
    a = np.asarray(a, dtype=float) / np.sum(a)
    b = np.asarray(b, dtype=float) / np.sum(b)
    n, m = a.size, b.size
    C = (np.asarray(x, dtype=float)[:, None] - np.asarray(y, dtype=float)[None, :]) ** 2
    rows = np.repeat(np.arange(n), m)
    cols = np.arange(n * m)
    data = np.ones(n * m)
    A_eq = sparse.coo_matrix(
        (np.concatenate([data, data]),
         (np.concatenate([rows, n + np.tile(np.arange(m), n)]),
          np.concatenate([cols, cols]))),
        shape=(n + m, n * m))
    res = linprog(C.ravel(), A_eq=A_eq.tocsr(), b_eq=np.concatenate([a, b]),
                  bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10,
                           "presolve": False})
    assert res.status == 0, res.message
    plan = res.x.reshape(n, m)
    row_err = float(np.max(np.abs(plan.sum(axis=1) - a)))
    col_err = float(np.max(np.abs(plan.sum(axis=0) - b)))
    dual = float(np.dot(res.eqlin.marginals, np.concatenate([a, b])))
    err = (abs(res.fun - dual) + (row_err + col_err) * float(np.max(C))
           + 1e-14 * max(1.0, res.fun))
    return max(float(res.fun), 0.0), err


def _random_atoms(rng, n, lo, hi, zeros, repeats):
    x = rng.uniform(lo, hi, n)
    if repeats and n > 1:
        x[rng.integers(0, n, repeats)] = x[rng.integers(0, n, repeats)]
    w = rng.uniform(0.0, 1.0, n) ** 3
    w[rng.integers(0, n, zeros)] = 0.0
    if not w.sum() > 0:
        w[0] = 1.0
    return x, w / w.sum()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 160), m=st.integers(1, 160),
       shift=st.sampled_from([0.0, 0.3, 1.5, -4.0]),
       zeros=st.integers(0, 5), repeats=st.integers(0, 5),
       seed=st.integers(0, 2**32 - 1))
def test_exact_matches_lp_reference(n, m, shift, zeros, repeats, seed):
    # unsorted atoms with repeated points and zero weights on both sides;
    # a shift of 1.5 or -4 puts the supports apart
    rng = np.random.default_rng(seed)
    x, a = _random_atoms(rng, n, 0.0, 1.0, zeros, repeats)
    y, b = _random_atoms(rng, m, shift, shift + rng.uniform(0.01, 2.0), zeros, repeats)
    ref, ref_err = _exact_lp_reference(x, a, y, b)
    res = w2_exact_discrete(x, a, y, b)
    assert abs(res.w2_squared - ref) <= ref_err
    assert res.details["dual_gap"] <= 1e-13 * max(1.0, res.w2_squared)


# ---------------------------------------------------------------------------
# entropic route
# ---------------------------------------------------------------------------

def test_entropic_identical():
    res = w2_entropic(uniform(), uniform(), eps_target=2e-3, atoms=192)
    assert res.w2_squared <= 1e-6


def test_entropic_matches_quantile_1d():
    m1 = bump(0.3, width=0.1, n=2049)
    m2 = bump(0.6, width=0.15, n=2049)
    quant = w2_quantile_1d(m1, m2, n_quantiles=20_000)
    ent = w2_entropic(m1, m2, eps_target=1e-3, atoms=384)
    tight = max(ent.details["dual_gap"], 1e-6)
    assert abs(ent.w2_squared - quant.w2_squared) <= tight
    assert abs(ent.w2_squared - quant.w2_squared) <= ent.error_estimate


def _zero_weight_bumps():
    # narrow bumps on 200 nodes: six weights per side underflow to zero
    x = np.linspace(0.0, 1.0, 200)
    b1 = np.exp(-0.5 * ((x - 0.2) / 0.02) ** 2)
    b2 = np.exp(-0.5 * ((x - 0.8) / 0.02) ** 2)
    assert np.sum(b1 == 0) == np.sum(b2 == 0) == 6
    return x, b1 / b1.sum(), b2 / b2.sum()


def test_entropic_zero_weights_finite_error():
    x, a, b = _zero_weight_bumps()
    ent = w2_entropic((x, a), (x, b), eps_target=1e-4)
    assert np.isfinite(ent.error_estimate)
    assert np.isfinite(ent.details["dual_gap"])
    assert ent.w2_squared == pytest.approx(0.36, abs=1e-4)


@pytest.mark.xfail(strict=True, reason="the declared error omits the entropic blur "
                   "across raw atoms (6.3e-9 declared vs 6.1e-6 off the exact LP)")
def test_entropic_zero_weights_error_covers_exact():
    x, a, b = _zero_weight_bumps()
    ent = w2_entropic((x, a), (x, b), eps_target=1e-4)
    exact = w2_exact_discrete(x, a, x, b)
    assert abs(ent.w2_squared - exact.w2_squared) <= ent.error_estimate


@pytest.mark.parametrize("center", [0.8, 0.3])
def test_entropic_reports_nonconvergence(center):
    # wide bumps on 200 nodes at eps 1e-4: the last epsilon level needs more
    # sweeps than it is allowed, and the route must say so
    x = np.linspace(0.0, 1.0, 200)
    b1 = np.exp(-0.5 * ((x - 0.2) / 0.2) ** 2)
    b2 = np.exp(-0.5 * ((x - center) / 0.2) ** 2)
    with pytest.raises(TransportError, match="did not converge"):
        w2_entropic((x, b1), (x, b2), eps_target=1e-4)


def test_entropic_tensorization_rectangle():
    # product measures: squared distance adds over axes
    mx1, my1 = bump(0.3, 0.08, 513), bump(0.5, 0.1, 513)
    mx2, my2 = bump(0.6, 0.1, 513), bump(0.35, 0.09, 513)
    ax, wx = mx1.atomize(24)
    ay, wy = my1.atomize(24)
    bx, vx = mx2.atomize(24)
    by, vy = my2.atomize(24)
    s1 = np.column_stack([np.repeat(ax, ay.size), np.tile(ay, ax.size)])
    w1 = np.outer(wx, wy).ravel()
    s2 = np.column_stack([np.repeat(bx, by.size), np.tile(by, bx.size)])
    w2_ = np.outer(vx, vy).ravel()
    ent = w2_entropic((s1, w1), (s2, w2_), eps_target=2e-3)
    per_axis = (w2_quantile_1d(mx1, mx2, 20000).w2_squared
                + w2_quantile_1d(my1, my2, 20000).w2_squared)
    assert ent.w2_squared == pytest.approx(per_axis, abs=ent.error_estimate + 5e-4)


def _sinkhorn_reference(loga, logb, C, eps, f, g, max_iter, drift_tol, symmetric):
    """The log-domain sweep written term by term through scipy's logsumexp,
    with the same drift test and return values as the route's scaling sweep."""
    if f is None:
        f, g = np.zeros(loga.size), np.zeros(logb.size)
    for it in range(1, max_iter + 1):
        if symmetric:
            f_new = 0.5 * (f - eps * logsumexp((f[None, :] - C) / eps
                                               + loga[None, :], axis=1))
            drift = np.max(np.abs(f_new - f))
            f = g = f_new
        else:
            f_new = -eps * logsumexp((g[None, :] - C) / eps + logb[None, :], axis=1)
            g_new = -eps * logsumexp((f_new[:, None] - C) / eps + loga[:, None], axis=0)
            drift = np.max(np.abs(f_new - f))
            f, g = f_new, g_new
        if drift < drift_tol:
            break
    return f, g, it, drift


def _sweep_case(name):
    """Atoms, weights and whether the problem is self-transport."""
    rng = np.random.default_rng(11)
    if name == "cross":
        x, y = np.sort(rng.uniform(0.0, 1.0, 90)), np.sort(rng.uniform(0.1, 1.3, 130))
        return x, rng.uniform(0.1, 1.0, x.size), y, rng.uniform(0.1, 1.0, y.size), False
    if name == "self":
        x = np.sort(rng.uniform(0.0, 1.0, 120))
        a = rng.uniform(0.1, 1.0, x.size)
        return x, a, x, a, True
    if name == "zero_weights":
        x, a, b = _zero_weight_bumps()
        return x, a, x, b, False
    x, y = rng.uniform(0.0, 1.0, (64, 2)), rng.uniform(0.2, 1.1, (81, 2))
    return x, rng.uniform(0.1, 1.0, 64), y, rng.uniform(0.1, 1.0, 81), False


def _sweep_levels(monkeypatch, sweep, case, eps_target):
    """Every level's (f, g, sweeps, drift) of one epsilon schedule run through
    `_ot_eps` with the given sweep, and whether the last level raised."""
    x, a, y, b, symmetric = _sweep_case(case)
    a, b = a / a.sum(), b / b.sum()
    C = transport._sq_cost(x, y)
    levels = []

    def recorded(*args, **kwargs):
        levels.append(sweep(*args, **kwargs))
        return levels[-1]

    monkeypatch.setattr(transport, "_sinkhorn_potentials", recorded)
    schedule = np.geomspace(C.max() / 4, eps_target, 12)
    try:
        transport._ot_eps(a, b, C, schedule, 1e-5 * eps_target, symmetric)
    except TransportError:
        return levels, True
    return levels, False


@pytest.mark.parametrize("eps_target", [3e-3, 2e-5])
@pytest.mark.parametrize("case", ["cross", "self", "zero_weights", "rectangle"])
def test_sinkhorn_sweep_matches_reference(monkeypatch, case, eps_target):
    # every case converges at 3e-3; at 2e-5 the cross and rectangle cases
    # exhaust FINAL_SWEEPS and raise
    scaled = transport._sinkhorn_potentials
    got, got_raised = _sweep_levels(monkeypatch, scaled, case, eps_target)
    ref, ref_raised = _sweep_levels(monkeypatch, _sinkhorn_reference, case, eps_target)
    assert got_raised == ref_raised
    assert len(got) == len(ref)
    for (f, g, n, _), (f_ref, g_ref, n_ref, _) in zip(got, ref):
        assert n == n_ref
        for p, p_ref in ((f, f_ref), (g, g_ref)):
            assert np.all(np.isfinite(p))
            assert np.max(np.abs(p - p_ref)) <= 1e-12 * np.max(np.abs(p_ref))


@pytest.mark.parametrize("symmetric", [False, True])
def test_sinkhorn_log_domain_fallback(monkeypatch, symmetric):
    # a cold start at eps 1e-4 on supports 0.4 apart: every entry of the first
    # kernel exp(-C/eps) underflows to 0, so the half-steps fall back to the
    # log domain until an absorption brings the sums back
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(0.0, 0.3, 70))
    y = x if symmetric else np.sort(rng.uniform(0.7, 1.0, 50))
    C = transport._sq_cost(x, y)
    if not symmetric:
        assert np.all(np.exp(-C / 1e-4) == 0.0)
    loga = np.log(np.full(x.size, 1.0 / x.size))
    logb = np.log(np.full(y.size, 1.0 / y.size))
    args = (loga, logb, C, 1e-4, None, None, 400, 1e-9, symmetric)
    ref = _sinkhorn_reference(*args)
    calls = []
    softmin = transport._softmin
    monkeypatch.setattr(transport, "_softmin",
                        lambda *a, **k: calls.append(1) or softmin(*a, **k))
    got = transport._sinkhorn_potentials(*args)
    assert bool(calls) == (not symmetric)      # a self kernel keeps its diagonal
    assert got[2] == ref[2]
    for p, p_ref in zip(got[:2], ref[:2]):
        assert np.all(np.isfinite(p))
        assert np.max(np.abs(p - p_ref)) <= 1e-12 * np.max(np.abs(p_ref))


def test_entropic_matches_reference_sweep_end_to_end(monkeypatch):
    # the reflecting delta_0 start at t = 4, as the neumann_delta0 config builds it
    basis = build_analytic_basis(unit_interval(boundary=NEUMANN), 512)
    nu_c = project(InitialDistribution.from_point(0.0), basis)
    mt = harness.mean_occupation_measure(nu_c, basis, 4.0, 8193)
    ref_measure = harness.mu0_measure(basis, 8193)
    got = w2_entropic(mt, ref_measure)
    monkeypatch.setattr(transport, "_sinkhorn_potentials", _sinkhorn_reference)
    ref = w2_entropic(mt, ref_measure)
    assert got.details["iterations"] == ref.details["iterations"]
    assert got.w2_squared == pytest.approx(ref.w2_squared, rel=1e-12, abs=0)
    assert got.error_estimate == pytest.approx(ref.error_estimate, rel=1e-12, abs=0)


def test_sinkhorn_sweep_memory():
    # at the 4096-atom cap one cost matrix is 128 MiB; a cross sweep holds
    # one absorbed kernel and no N x M array per step
    rng = np.random.default_rng(5)
    C = transport._sq_cost(rng.uniform(0.0, 1.0, 1024), rng.uniform(0.2, 1.2, 1024))
    loga = logb = np.full(1024, -np.log(1024.0))
    tracemalloc.start()
    try:
        transport._sinkhorn_potentials(loga, logb, C, 1e-2, None, None, max_iter=3,
                                       drift_tol=0.0, symmetric=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * C.nbytes


# ---------------------------------------------------------------------------
# weighted H^-1 upper bound
# ---------------------------------------------------------------------------

def test_upper_bound_zero_for_flat_density():
    basis = build_analytic_basis(unit_interval(), 32)
    out = h_minus1_upper_bound(np.ones(basis.grid.size), basis)
    assert out["upper_bound"] <= 1e-20


def test_upper_bound_single_mode_small_amplitude():
    basis = build_analytic_basis(unit_interval(), 32)
    gap1 = basis.gaps[1]
    for c in (1e-3, 1e-2):
        h = 1.0 + c * basis.ground_ratio[1]
        out = h_minus1_upper_bound(h, basis)
        leading = c * c / gap1
        assert abs(out["upper_bound"] - leading) <= 12.0 * c**3


def test_upper_bound_flags_negative_nodes():
    basis = build_analytic_basis(unit_interval(), 32)
    h = 1.0 + 1.2 * basis.ground_ratio[1]     # dips below zero
    out = h_minus1_upper_bound(h, basis)
    assert out["excluded_nodes"] > 0


# ---------------------------------------------------------------------------
# dual lower bound
# ---------------------------------------------------------------------------

def test_dual_lower_equal_measures_clamps():
    m = mu0_measure(2049)
    x = np.linspace(0, 1, 257)
    out = kantorovich_dual_lower(m, m, 0.05 * np.sin(2 * np.pi * x), f_nodes=x)
    assert out["raw_value"] <= 1e-12
    assert out["lower_bound"] == 0.0


def test_dual_lower_rejects_potential_off_the_supports():
    m = mu0_measure(513)
    x = np.linspace(1.5, 2.5, 33)
    with pytest.raises(TransportError, match="overlap"):
        kantorovich_dual_lower(m, m, np.zeros_like(x), f_nodes=x)


def test_dual_lower_translated_bumps():
    m1 = bump(0.35, width=0.03)
    m2 = bump(0.65, width=0.03)
    x = np.linspace(0, 1, 257)
    out = kantorovich_dual_lower(m1, m2, -0.3 * x, f_nodes=x)
    exact = w2_exact_discrete(*m1.atomize(256), *m2.atomize(256))
    assert out["lower_bound"] <= exact.w2_squared + exact.error_estimate
    assert abs(out["lower_bound"] - 0.09) <= 0.05 * 0.09


def test_dual_lower_near_tight_for_occupation():
    basis = build_analytic_basis(unit_interval(), 64)
    nu = InitialDistribution.from_mu()
    cd = conditional_density(nu, basis, 4.0)
    from condemp.harness import mu0_measure as m0_of, spectral_measure
    mt = spectral_measure(cd, basis, 8193)
    m0 = m0_of(basis, 8193)
    quant = w2_quantile_1d(mt, m0, n_quantiles=50_000)
    rt = rho_tilde(project(nu, basis), mu_coefficients(basis), basis, 4.0)
    gaps = basis.gaps.copy()
    gaps[0] = 1.0
    f_coeffs = rt.coeffs / gaps
    xs = np.linspace(0, 1, 4097)
    f_vals = f_coeffs @ basis.eval_ratio(xs)
    out = kantorovich_dual_lower(mt, m0, f_vals, f_nodes=xs)
    assert out["lower_bound"] <= quant.w2_squared * (1 + 1e-6)
    assert out["lower_bound"] >= (1.0 - 0.2) * quant.w2_squared


def _dual_lower_reference(m1, m2, f_values, f_nodes):
    """The conjugate by brute force: the minimum over every search node for
    every target node, in blocks of the full N x M matrix."""
    lo = min(m1.support[0], m2.support[0])
    hi = max(m1.support[1], m2.support[1])
    nodes = np.asarray(f_nodes, dtype=float)
    pp = PchipInterpolator(nodes, np.asarray(f_values, dtype=float))
    xs = np.linspace(max(lo, nodes[0]), min(hi, nodes[-1]), DUAL_SEARCH)
    fx = pp(xs)
    dx = xs[1] - xs[0]
    slack = (dx * dx / 8.0) * (1.0 + float(np.max(np.abs(pp.derivative(2)(xs)))))
    y = m2.nodes
    fc = np.empty(y.size)
    block = max(1, int(2e7 // xs.size))
    for i0 in range(0, y.size, block):
        yb = y[i0:i0 + block, None]
        fc[i0:i0 + block] = (0.5 * (xs[None, :] - yb) ** 2 - fx[None, :]).min(axis=1)
    fc -= slack
    int_f = m1.expectation(pp(m1.nodes))
    int_fc = m2.expectation(fc)
    # rounding allowance for a near-tie between two search nodes
    tie = 4 * np.finfo(float).eps * (0.5 * max(y[-1] - xs[0], xs[-1] - y[0]) ** 2
                                     + float(np.max(np.abs(fx))))
    return 2.0 * (int_f + int_fc), int_fc, tie


@settings(max_examples=40, deadline=None)
@given(n_f=st.integers(2, 300), n_y=st.integers(17, 1025),
       slope=st.floats(-5.0, 5.0), curvature=st.floats(-50.0, 50.0),
       walk=st.sampled_from([0.0, 1e-9, 1e-3, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_dual_lower_matches_brute_force(n_f, n_y, slope, curvature, walk, seed):
    # random walks, steep convex potentials (a hull of a few vertices) and
    # nearly linear ones (every search node on the hull); the target measure
    # extends beyond the search interval on both sides
    rng = np.random.default_rng(seed)
    f_nodes = np.unique(np.concatenate([[0.1, 0.9], rng.uniform(0.1, 0.9, n_f - 2)]))
    f_vals = (slope * f_nodes + curvature * (f_nodes - 0.5) ** 2
              + walk * np.cumsum(rng.standard_normal(f_nodes.size)))
    y = np.linspace(-0.2, 1.3, n_y)
    m2 = GridMeasure.normalized(y, 0.2 + rng.uniform(0.0, 1.0, n_y))
    m1 = mu0_measure(513)
    out = kantorovich_dual_lower(m1, m2, f_vals, f_nodes=f_nodes)
    raw, conj, tie = _dual_lower_reference(m1, m2, f_vals, f_nodes)
    if out["conjugate_term"] != conj:
        assert abs(out["conjugate_term"] - conj) <= tie
        assert abs(out["raw_value"] - raw) <= 2 * tie + np.spacing(abs(raw))
    else:
        assert out["raw_value"] == raw


def _monotone_chain(x, y):
    """Lower hull vertices and edge slopes by the monotone chain alone."""
    hull, slopes = [0], []
    for i in range(1, x.size):
        while True:
            j = hull[-1]
            s = (float(y[i]) - float(y[j])) / (float(x[i]) - float(x[j]))
            if not slopes or s > slopes[-1]:
                break
            hull.pop()
            slopes.pop()
        hull.append(i)
        slopes.append(s)
    return np.array(hull), np.array(slopes)


@pytest.mark.parametrize("shape", ["convex", "random walk", "collinear", "single point"])
def test_lower_hull_matches_monotone_chain(shape):
    # the convex case takes the every-point-a-vertex shortcut, the others the chain
    rng = np.random.default_rng(5)
    x = np.linspace(0.0, 1.0, 1 if shape == "single point" else 4097)
    y = {"convex": 0.5 * x * x - 0.01 * np.sin(np.pi * x),
         "random walk": np.cumsum(rng.standard_normal(x.size)),
         "collinear": 2.0 * x,
         "single point": x}[shape]
    slopes = np.diff(y) / np.diff(x)
    assert np.all(slopes[1:] > slopes[:-1]) == (shape in ("convex", "single point"))
    hull, got = _lower_hull(x, y)
    ref_hull, ref = _monotone_chain(x, y)
    assert hull.dtype == ref_hull.dtype and got.dtype == ref.dtype
    assert np.array_equal(hull, ref_hull) and np.array_equal(got, ref)


# ---------------------------------------------------------------------------
# cross-method and metric properties
# ---------------------------------------------------------------------------

def test_metric_axioms(rng):
    ms = [random_measure(rng) for _ in range(3)]
    d = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            d[i, j] = w2_quantile_1d(ms[i], ms[j], n_quantiles=20_000).w2
    assert np.max(np.abs(d - d.T)) <= 1e-9
    assert np.max(np.abs(np.diag(d))) <= 1e-10
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert d[i, j] <= d[i, k] + d[k, j] + 1e-8


def test_three_method_agreement(rng):
    for _ in range(3):
        m1, m2 = random_measure(rng), random_measure(rng)
        quant = w2_quantile_1d(m1, m2, n_quantiles=20_000)
        x1, a1 = m1.atomize(192)
        x2, a2 = m2.atomize(192)
        exact = w2_exact_discrete(x1, a1, x2, a2)
        ent = w2_entropic(m1, m2, eps_target=2e-3, atoms=192)
        tol_xq = quant.error_estimate + exact.error_estimate + 2 * 0.5 / 192
        assert abs(exact.w2_squared - quant.w2_squared) <= tol_xq
        assert abs(ent.w2_squared - quant.w2_squared) <= \
            ent.error_estimate + quant.error_estimate


@settings(max_examples=300, deadline=None)
@given(a=st.floats(1e-8, 1e8), b=st.floats(1e-8, 1e8))
def test_logarithmic_mean_bounds(a, b):
    m = float(logarithmic_mean(a, b))
    assert min(a, b) * (1 - 1e-12) <= m <= max(a, b) * (1 + 1e-12)


def test_logarithmic_mean_diagonal_and_zeros():
    assert float(logarithmic_mean(2.5, 2.5)) == 2.5
    assert float(logarithmic_mean(0.0, 1.0)) == 0.0
    vals = logarithmic_mean(np.array([1.0, 2.0]), np.array([1.0 + 1e-13, 0.5]))
    assert vals[0] == pytest.approx(1.0, rel=1e-12)


def test_gradient_matches_finite_differences():
    basis = build_analytic_basis(unit_interval(), 24)
    x = np.linspace(0.08, 0.92, 301)
    h = 1e-5
    analytic = basis.eval_ratio_deriv(x)
    fd = (basis.eval_ratio(x + h) - basis.eval_ratio(x - h)) / (2 * h)
    assert np.max(np.abs(analytic - fd)) <= 1e-4 * np.max(np.abs(analytic))


def test_w1_distance():
    m1 = uniform()
    m2 = bump(0.5, width=0.05)
    assert w1_grid_1d(m1, m1) <= 1e-12
    oracle = np.trapezoid(np.abs(m1.cdf(X) - m2.cdf(X)), X)
    assert w1_grid_1d(m1, m2) == pytest.approx(oracle, abs=1e-6)
