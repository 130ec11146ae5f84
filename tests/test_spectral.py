import functools
import json
import tracemalloc

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from condemp import (build_analytic_basis, mu_coefficients, project,
                     solve_sturm_liouville, spectral, unit_interval)
from condemp.domains import DIRICHLET, NEUMANN, Domain, DomainError, Potential, rectangle
from condemp.measures import InitialDistribution
from condemp.semigroup import conditional_density
from condemp.spectral import (BasisError, ProjectionError, SpectralBasis, _axis_factors,
                              _legendre_rule, _tensor_modes, cosine_series, gauss_legendre,
                              mode_table)

PI2 = np.pi**2
EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# analytic bases
# ---------------------------------------------------------------------------

def test_dirichlet_interval_closed_form():
    basis = build_analytic_basis(unit_interval(), 3)
    assert np.allclose(basis.eigenvalues, [PI2, 4 * PI2, 9 * PI2], rtol=1e-14)
    assert basis.eval_modes([0.5], modes=[0])[0, 0] == pytest.approx(np.sqrt(2.0), abs=1e-15)


def test_neumann_interval_closed_form():
    basis = build_analytic_basis(unit_interval(boundary=NEUMANN), 2)
    assert basis.eigenvalues[0] == 0.0
    assert basis.eigenvalues[1] == pytest.approx(PI2, rel=1e-15)
    assert np.allclose(basis.ground_state, 1.0)


def test_orthonormality_fifty_modes_400_nodes():
    basis = build_analytic_basis(unit_interval(), 50, n_quad=400)
    assert basis.orthonormality_residual() <= 1e-10


def _mp_legendre(n, x0, mp):
    """The root of P_n nearest x0 and its Gauss weight, by Newton on the
    three-term recurrence in 30-digit arithmetic."""
    def pair(x):
        prev, p = mp.mpf(1), x
        for j in range(1, n):
            prev, p = p, ((2 * j + 1) * x * p - j * prev) / (j + 1)
        return p, n * (prev - x * p) / (1 - x * x)
    x = mp.mpf(x0)
    for _ in range(20):
        p, dp = pair(x)
        x -= p / dp
        if abs(p / dp) < mp.mpf(10) ** -28:
            break
    return x, 2 / ((1 - x * x) * pair(x)[1] ** 2)


@pytest.mark.parametrize("n", [1, 2, 12, 16, 576, 2112])
def test_gauss_legendre_matches_extended_precision(n):
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 30
    x, w = _legendre_rule(n)
    xn, wn = np.polynomial.legendre.leggauss(n)
    assert x.size == w.size == n and np.all(np.diff(x) > 0)
    # both end nodes, the middle node and two interior nodes
    for i in sorted({0, n // 4, n // 2, (3 * n) // 4, n - 1}):
        ref_x, ref_w = _mp_legendre(n, xn[i], mp)
        assert abs(float(x[i] - ref_x)) <= 2.3e-16
        err, err_numpy = (abs(float((v - ref_w) / ref_w)) for v in (w[i], wn[i]))
        # no less accurate than numpy's rule, beyond the rounding of n recurrence steps
        assert err <= 1e-10 and err <= err_numpy + n * EPS, (i, err, err_numpy)
    if n % 2:
        assert x[n // 2] == 0.0
    a, b = -0.25, 1.5
    nodes, weights = gauss_legendre(n, a, b)
    assert np.array_equal(nodes, 0.5 * (b - a) * (x + 1.0) + a)
    assert np.array_equal(weights, 0.5 * (b - a) * w)
    for raw in _legendre_rule(n):
        assert not raw.flags.writeable
    assert nodes.flags.writeable and weights.flags.writeable


def test_gauss_legendre_rule_in_linear_memory():
    tracemalloc.start()
    try:
        _legendre_rule.__wrapped__(2112)       # uncached: numpy's eigensolve took 34 MiB
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_gauss_legendre_rule_that_does_not_converge_raises(monkeypatch):
    monkeypatch.setattr(spectral, "LEGENDRE_SWEEPS", 1)
    with pytest.raises(BasisError, match="did not converge"):
        _legendre_rule.__wrapped__(576)
    with pytest.raises(BasisError, match="at least 1 node"):
        _legendre_rule.__wrapped__(0)


@pytest.mark.parametrize("boundary, M", [(DIRICHLET, 128), (NEUMANN, 512)])
def test_repeated_basis_builds_are_identical(boundary, M):
    first, second = (build_analytic_basis(unit_interval(boundary=boundary), M)
                     for _ in range(2))
    for field_name in ("grid", "weights", "eigenfunctions"):
        assert np.array_equal(getattr(first, field_name), getattr(second, field_name))


@pytest.mark.parametrize("boundary, ratio", [(DIRICHLET, False), (NEUMANN, False),
                                             (DIRICHLET, True)])
def test_axis_factors_bitwise(boundary, ratio):
    # both faces included; each factor written as the plain expression
    u = np.linspace(0.0, 1.0, 8193)
    k = np.arange(1, 129) if boundary == DIRICHLET else np.arange(128)
    arg = np.outer(k, np.pi * u)
    if boundary == NEUMANN:
        expected = np.sqrt(2.0) * np.cos(arg)
        expected[k == 0] = 1.0
    elif not ratio:
        expected = np.sqrt(2.0) * np.sin(arg)
    else:
        expected = np.empty_like(arg)
        expected[:, 1:-1] = np.sin(arg[:, 1:-1]) / np.sin(np.pi * u[1:-1])
        expected[:, 0] = k
        expected[:, -1] = k * (-1.0) ** (k + 1)
    assert np.array_equal(_axis_factors(k, u, boundary, ratio), expected)


def _ratio_factors_reference(k, u):
    """The Dirichlet ratio table as it was built before it was built in
    place: interior columns, then each face."""
    out = np.empty((k.size, u.size))
    inner = (u > 0.0) & (u < 1.0)
    out[:, inner] = np.sin(np.outer(k, np.pi * u[inner])) / np.sin(np.pi * u[inner])
    out[:, u <= 0.0] = k[:, None]
    out[:, u >= 1.0] = (k * (-1.0) ** (k + 1))[:, None]
    return out


def test_ratio_factors_in_place_bitwise():
    k = np.arange(1, 129)
    cases = [("both faces", k, np.linspace(0.0, 1.0, 8193)),
             ("interior only", k, gauss_legendre(577, 0.0, 1.0)[0])]
    rect = rectangle(0.0, 1.0, 0.0, 0.5, boundary=DIRICHLET)
    idx = mode_table(rect, 64)[1]
    xy = np.stack(np.meshgrid(np.linspace(0.0, 1.0, 65), np.linspace(0.0, 0.5, 33)),
                  axis=-1).reshape(-1, 2)
    cases += [(f"rectangle axis {ax}", idx[:, ax], (xy[:, ax] - lo) / (hi - lo))
              for ax, (lo, hi) in enumerate(rect.axes)]
    for name, kk, u in cases:
        got = _axis_factors(kk, u, DIRICHLET, ratio=True)
        assert np.array_equal(got, _ratio_factors_reference(kk, u)), name


# ---------------------------------------------------------------------------
# series on a uniform grid
# ---------------------------------------------------------------------------

PI_LD = np.arccos(np.longdouble(-1.0))


@functools.cache
def _interval_basis(boundary, M):
    return build_analytic_basis(unit_interval(boundary=boundary), M)


def _direct_series(basis, C, n):
    """The grid series by direct long-double sums at <= 12 nodes, both faces
    included, with the long-double sum of |a_p| over its unaliased cosine
    coefficients a_p, p = 0 .. 2 max k."""
    j = np.unique(np.linspace(0, n - 1, 12).round().astype(int))
    k = basis.mode_indices[:, 0]
    arg = np.outer(k.astype(np.longdouble), PI_LD * j.astype(np.longdouble) / (n - 1))
    root2 = np.sqrt(np.longdouble(2.0))
    Cl = np.asarray(C, dtype=np.longdouble)
    a = np.zeros(2 * k[-1] + 1, dtype=np.longdouble)
    if basis.domain.boundary == NEUMANN:
        s = np.where(k > 0, root2, 1.0)
        phi = s[:, None] * np.cos(arg)
        if Cl.ndim == 1:                          # the linear series
            np.add.at(a, k, Cl * s)
            return j, Cl @ phi, float(np.sum(np.abs(a)))
        half = Cl * np.outer(s, s) / 2            # cos cos = (cos(-) + cos(+)) / 2
        sign = 1.0
    else:
        phi = root2 * np.sin(arg)                 # 2 sin sin = cos(-) - cos(+)
        half, sign = Cl, -1.0
    kk, ll = np.meshgrid(k, k, indexing="ij")
    np.add.at(a, np.abs(kk - ll), half)
    np.add.at(a, kk + ll, sign * half)
    return j, np.einsum("mj,mn,nj->j", phi, Cl, phi), float(np.sum(np.abs(a)))


@pytest.mark.parametrize("n", [2, 3, 17, 8193])
@pytest.mark.parametrize("M", [1, 2, 128, 512])
@pytest.mark.parametrize("series", ["h_t block", "random block", "neumann linear",
                                    "neumann block"])
def test_grid_series_matches_long_double_sums(series, M, n):
    # n = 2, 3 and 17 alias most phases onto the grid; the error stays
    # within 8 ulp of sum |a_p|, the scale of the cosine series' terms
    rng = np.random.default_rng(M * 10_000 + n)
    if series == "neumann linear":
        basis = _interval_basis(NEUMANN, M)
        C = rng.standard_normal(M) / np.arange(1, M + 1)
    elif series == "neumann block":
        basis = _interval_basis(NEUMANN, M)
        C = rng.standard_normal((M, M))
    else:
        basis = _interval_basis(DIRICHLET, M)
        if series == "h_t block":
            C = conditional_density(InitialDistribution.from_mu(), basis, 2.0).bilinear
        else:
            C = rng.standard_normal((M, M))
            C += C.T
    j, direct, scale = _direct_series(basis, C, n)
    got = basis.grid_series(C, n)
    assert got.shape == (n,)
    err = np.abs(got[j] - direct).astype(float)
    assert np.max(err) <= 8 * np.spacing(scale)


def test_cosine_series_folds_high_phases():
    # cos(p pi j / (n - 1)) for p up to 3 (n - 1), one phase at a time
    n = 9
    u = np.arange(n, dtype=np.longdouble) / (n - 1)
    for p in range(3 * (n - 1) + 1):
        a = np.zeros(p + 1)
        a[p] = 1.0
        np.testing.assert_allclose(cosine_series(a, n), np.cos(p * PI_LD * u).astype(float),
                                   rtol=0, atol=4 * EPS)
    with pytest.raises(BasisError):
        cosine_series([1.0], 1)


def test_grid_series_needs_an_interval():
    basis = build_analytic_basis(rectangle(0.0, 1.0, 0.0, 0.5), 8)
    with pytest.raises(BasisError, match="intervals only"):
        basis.grid_series(np.eye(8), 17)


def test_reject_bad_inputs():
    with pytest.raises(BasisError):
        build_analytic_basis(unit_interval(), 0)
    with pytest.raises(DomainError):
        Domain(kind="rectangle", bounds=(0, 1, 0, 1),
               potential=Potential(np.linspace(0, 1, 8), np.zeros(8)))


def test_rectangle_tensor_basis():
    dom = rectangle(0.0, 1.0, 0.0, 0.5)
    basis = build_analytic_basis(dom, 24)
    assert basis.orthonormality_residual() <= 1e-8
    # lowest mode is (1, 1)
    assert basis.eigenvalues[0] == pytest.approx(PI2 * (1.0 + 4.0), rel=1e-13)
    assert np.all(np.diff(basis.eigenvalues) >= -1e-12)
    # d = 2 growth law
    assert abs(basis.weyl_slope() - 1.0) <= 0.15 * 1.0


@pytest.mark.parametrize("boundary", [DIRICHLET, NEUMANN])
def test_rectangle_modes_are_products_of_interval_modes(boundary):
    a, b, c, d = -0.5, 1.0, 0.25, 0.75
    rect = build_analytic_basis(rectangle(a, b, c, d, boundary=boundary), 40)
    kmax = int(rect.mode_indices.max())
    x_axis = build_analytic_basis(Domain("interval", (a, b), boundary), kmax + 1)
    y_axis = build_analytic_basis(Domain("interval", (c, d), boundary), kmax + 1)
    xs = np.concatenate([[a, b], np.linspace(a, b, 11)])
    ys = np.concatenate([[c, d], np.linspace(c, d, 7)])
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    # interval mode m has axis index m + 1 (Dirichlet) or m (Neumann)
    shift = 1 if boundary == DIRICHLET else 0
    i, j = (rect.mode_indices - shift).T
    np.testing.assert_array_equal(
        rect.eval_modes(pts), x_axis.eval_modes(pts[:, 0])[i] * y_axis.eval_modes(pts[:, 1])[j])
    np.testing.assert_array_equal(
        rect.eval_ratio(pts), x_axis.eval_ratio(pts[:, 0])[i] * y_axis.eval_ratio(pts[:, 1])[j])


def test_mode_table_thin_rectangle():
    # the 24 lowest modes of a 10:1 rectangle reach index 18 on the long
    # axis, beyond a box of 2 sqrt(24) indices per axis
    basis = build_analytic_basis(rectangle(0.0, 1.0, 0.0, 0.1), 24)
    i, j = np.meshgrid(np.arange(1, 41), np.arange(1, 41), indexing="ij")
    lam = np.sort((PI2 * (i**2 + 100.0 * j**2)).ravel())[:24]
    np.testing.assert_allclose(basis.eigenvalues, lam, rtol=1e-14)
    assert basis.mode_indices[:, 0].max() == 18


def test_mode_table_that_overflows_raises():
    # pi^2 / L^2 is 9.9e306 at L = 1e-153, and the fifth index overflows:
    # the box that should hold 8 modes grew until memory ran out
    with pytest.raises(BasisError, match="8 lowest eigenvalues .* overflow the float range"):
        mode_table(Domain("interval", (0.0, 1e-153)), 8)
    assert np.isfinite(mode_table(Domain("interval", (0.0, 1e-153)), 4)[0]).all()


def test_potential_tables_are_finite_reals():
    nodes = np.linspace(0.0, 1.0, 8)
    for bad in ([True] + [0.0] * 7, [0.0] * 7 + [10**400], np.full(8, np.nan),
                np.zeros(8, dtype=bool), np.zeros((2, 4))):
        with pytest.raises(DomainError, match="domain.potential.values must be a 1D list"):
            Potential(nodes, bad)
    with pytest.raises(DomainError, match="domain.potential.nodes must be a 1D list"):
        Potential(["0"] + nodes[1:].tolist(), np.zeros(8))


CLOSED_FORM = {"dirichlet": lambda: unit_interval(), "neumann": lambda: unit_interval(NEUMANN),
               "rectangle": lambda: rectangle(0.0, 1.0, 0.0, 0.5)}


@pytest.mark.parametrize("domain", list(CLOSED_FORM))
def test_closed_form_table_is_built_on_first_read(domain):
    # the build stores no table and validate does not force one; the first
    # read tabulates the modes as the build did, read-only, once
    basis = build_analytic_basis(CLOSED_FORM[domain](), 24)
    assert basis.samples is None and "eigenfunctions" not in vars(basis)
    table = basis.eigenfunctions
    expected = _tensor_modes(basis.domain, basis.mode_indices, basis.grid, ratio=False)
    assert np.array_equal(table, expected)
    assert not table.flags.writeable
    assert basis.eigenfunctions is table
    assert np.array_equal(basis.eval_modes(basis.grid, [0])[0], table[0])


def test_too_coarse_closed_form_rule_raises_on_first_table_read():
    # 40 Gauss points cannot integrate the products of 50 sines: the build
    # stands, and every read derived from the table raises
    basis = build_analytic_basis(unit_interval(), 50, n_quad=40)
    reads = (lambda: basis.eigenfunctions, lambda: project(InitialDistribution.from_mu(), basis),
             lambda: mu_coefficients(basis), basis.orthonormality_residual)
    for read in reads:
        with pytest.raises(BasisError, match="orthonormality residual 4.644e-01 above"):
            read()
    assert "eigenfunctions" not in vars(basis)


def test_weyl_slope_interval(dirichlet_basis_64, neumann_basis_64):
    assert abs(dirichlet_basis_64.weyl_slope() - 2.0) <= 0.15 * 2.0
    assert abs(neumann_basis_64.weyl_slope() - 2.0) <= 0.15 * 2.0


# ---------------------------------------------------------------------------
# Sturm-Liouville solver
# ---------------------------------------------------------------------------

def test_sl_flat_potential_eigenvalues():
    basis = solve_sturm_liouville(unit_interval(), 10, 2000)
    exact = ((np.arange(10) + 1) * np.pi) ** 2
    rel = np.abs(basis.eigenvalues - exact) / exact
    assert np.max(rel) <= 1e-6


def test_sl_neumann_constant_mode():
    basis = solve_sturm_liouville(unit_interval(boundary=NEUMANN), 1, 256)
    assert abs(basis.eigenvalues[0]) <= 1e-9
    assert np.max(np.abs(basis.ground_state - 1.0)) <= 1e-7


def test_sl_linear_potential_mesh_doubling():
    nodes = np.linspace(0.0, 1.0, 257)
    dom = unit_interval(potential=Potential(nodes, nodes.copy()))
    coarse = solve_sturm_liouville(dom, 5, 1000)
    fine = solve_sturm_liouville(dom, 5, 2000)
    rel = np.abs(coarse.eigenvalues - fine.eigenvalues) / fine.eigenvalues
    assert np.max(rel) <= 1e-5


def test_sl_matches_analytic_basis():
    numeric = solve_sturm_liouville(unit_interval(), 10, 2000)
    exact = build_analytic_basis(unit_interval(), 10)
    rel = np.abs(numeric.eigenvalues - exact.eigenvalues) / exact.eigenvalues
    assert np.max(rel) <= 1e-6
    # eigenfunctions on the numeric grid, signs already aligned by convention
    ref = exact.eval_modes(numeric.grid)
    assert np.max(np.abs(numeric.eigenfunctions - ref)) <= 1e-5


@pytest.mark.parametrize("boundary", [DIRICHLET, NEUMANN])
def test_sl_tables_are_each_modes_own_spline(boundary):
    # one vector-valued spline per table gives the per-mode splines bitwise,
    # in C order, for every mode and for a selection
    nodes = np.linspace(0.0, 1.0, 65)
    dom = unit_interval(boundary=boundary, potential=Potential(nodes, 2.0 * nodes))
    basis = solve_sturm_liouville(dom, 32, 2000)
    x = np.linspace(0.0, 1.0, 1001)
    modes = np.array([CubicSpline(basis.grid, phi)(x) for phi in basis.eigenfunctions])
    deriv = np.array([CubicSpline(basis.grid, r)(x, 1) for r in basis.eval_ratio(basis.grid)])
    for sel, expected in ((None, modes), ([0], modes[:1]), ([3, 1], modes[[3, 1]])):
        got = basis.eval_modes(x, modes=sel)
        assert got.flags.c_contiguous and np.array_equal(got, expected)
    got = basis.eval_ratio_deriv(x)
    assert got.flags.c_contiguous and np.array_equal(got, deriv)


def test_sl_preconditions():
    with pytest.raises(BasisError):
        solve_sturm_liouville(unit_interval(), 10, 50)   # n_grid < 8 M
    with pytest.raises(BasisError):
        solve_sturm_liouville(rectangle(0, 1, 0, 1), 4, 64)


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def test_project_mu_closed_form(dirichlet_basis_64):
    coeffs = project(InitialDistribution.from_mu(), dirichlet_basis_64)
    k = np.arange(64) + 1
    exact = np.where(k % 2 == 1, 2.0 * np.sqrt(2.0) / (k * np.pi), 0.0)
    assert np.max(np.abs(coeffs - exact)) <= 1e-12


def test_project_point_mass(dirichlet_basis_64):
    coeffs = project(InitialDistribution.from_point(0.5), dirichlet_basis_64)
    assert coeffs[0] == pytest.approx(np.sqrt(2.0), abs=1e-14)
    assert coeffs[1] == pytest.approx(0.0, abs=1e-14)


def test_project_mu0_quadrature_refinement():
    coarse = build_analytic_basis(unit_interval(), 16, n_quad=200)
    fine = build_analytic_basis(unit_interval(), 16, n_quad=400)
    got = []
    for basis in (coarse, fine):
        nu = InitialDistribution(kind="density_mu",
                                 density=basis.ground_state**2,
                                 nodes=basis.grid, name="mu0")
        got.append(project(nu, basis))
    assert np.max(np.abs(got[0] - got[1])) <= 1e-11
    # analytic value of the first coefficient: integral of phi_0^3 d(mu)
    assert got[1][0] == pytest.approx(8.0 * np.sqrt(2.0) / (3.0 * np.pi), rel=1e-12)


def test_project_rejects_bad_measures(dirichlet_basis_64):
    with pytest.raises(ProjectionError):
        project(InitialDistribution.from_point(0.0), dirichlet_basis_64)
    n = dirichlet_basis_64.grid.size
    bad = InitialDistribution(kind="density_mu", density=-np.ones(n),
                              nodes=dirichlet_basis_64.grid)
    with pytest.raises(ProjectionError):
        project(bad, dirichlet_basis_64)
    off_mass = InitialDistribution(kind="density_mu", density=1.5 * np.ones(n),
                                   nodes=dirichlet_basis_64.grid)
    with pytest.raises(ProjectionError):
        project(off_mass, dirichlet_basis_64)


def test_mu_coefficient_budget(dirichlet_basis_128, neumann_basis_64):
    mu_c = mu_coefficients(dirichlet_basis_128)
    assert np.dot(mu_c, mu_c) <= 1.0 + 1e-8
    neu = mu_coefficients(neumann_basis_64)
    assert neu[0] == pytest.approx(1.0, abs=1e-13)
    assert np.max(np.abs(neu[1:])) <= 1e-13


def test_completeness_doubling():
    domain = unit_interval()
    f = lambda x: x * (1.0 - x) * np.exp(x)
    residuals = []
    for M in (8, 16, 32, 64):
        basis = build_analytic_basis(domain, M)
        fv = f(basis.grid)
        coeffs = basis.eigenfunctions @ (fv * basis.weights)
        recon = coeffs @ basis.eigenfunctions
        residuals.append(np.sqrt(basis.integrate((recon - fv) ** 2)))
    assert all(r2 < r1 for r1, r2 in zip(residuals, residuals[1:]))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_basis_roundtrip(tmp_path, dirichlet_basis_64):
    rect = build_analytic_basis(rectangle(0.0, 1.0, 0.0, 0.5, boundary=NEUMANN), 24)
    # condemp.basis/1 files carry sup_norms, which nothing reads, and those
    # written before the mode indices were derived carry the indices too
    current = rect.to_dict()
    assert current["schema"] == "condemp.basis/2" and "sup_norms" not in current
    legacy = dict(current, schema="condemp.basis/1", mode_indices=rect.mode_indices.tolist(),
                  sup_norms=np.where(rect.mode_indices > 0, np.sqrt(2.0), 1.0).prod(1).tolist())
    path = tmp_path / "basis.json"
    for basis, doc in ((dirichlet_basis_64, None), (rect, None), (rect, legacy)):
        if doc is None:
            basis.save(path)
        else:
            path.write_text(json.dumps(doc))
        loaded = SpectralBasis.load(path)
        assert np.array_equal(loaded.eigenvalues, basis.eigenvalues)
        assert np.array_equal(loaded.grid, basis.grid)
        assert np.array_equal(loaded.eigenfunctions, basis.eigenfunctions)
        assert np.array_equal(loaded.weights, basis.weights)
        assert np.array_equal(loaded.eval_ratio(basis.grid[:5]), basis.eval_ratio(basis.grid[:5]))
        assert loaded.to_dict() == basis.to_dict()


def test_basis_rejects_unknown_schema(tmp_path, dirichlet_basis_64):
    doc = dirichlet_basis_64.to_dict()
    doc["schema"] = "condemp.basis/999"
    with pytest.raises(BasisError):
        SpectralBasis.from_dict(doc)


def _spoil(doc, key, value):
    # the middle value of one array of a basis document
    arr = np.asarray(doc[key], dtype=float)
    arr.flat[arr.size // 2] = value
    return dict(doc, **{key: arr.tolist()})


@pytest.mark.parametrize("key, value, match", [
    ("eigenfunctions", np.nan, "orthonormality residual nan"),
    ("weights", np.nan, "orthonormality residual nan"),
    ("eigenvalues", np.inf, "eigenvalues must be finite"),
    ("weights", -1e-3, "weights must be nonnegative"),
], ids=["nan-eigenfunction", "nan-weight", "inf-eigenvalue", "negative-weight"])
def test_basis_rejects_non_finite_or_negative_entries(dirichlet_basis_64, key, value, match):
    with pytest.raises(BasisError, match=match):
        SpectralBasis.from_dict(_spoil(dirichlet_basis_64.to_dict(), key, value))
