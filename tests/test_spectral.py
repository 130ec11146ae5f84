import json

import numpy as np
import pytest

from condemp import (build_analytic_basis, mu_coefficients, project,
                     solve_sturm_liouville, unit_interval)
from condemp.domains import DIRICHLET, NEUMANN, Domain, DomainError, Potential, rectangle
from condemp.measures import InitialDistribution
from condemp.spectral import (BasisError, ProjectionError, SpectralBasis, _axis_factors,
                              _legendre_rule, gauss_legendre, mode_table)

PI2 = np.pi**2


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


@pytest.mark.parametrize("n", [12, 576, 2112])
def test_gauss_legendre_is_numpy_rule_scaled(n):
    x, w = np.polynomial.legendre.leggauss(n)
    a, b = -0.25, 1.5
    nodes, weights = gauss_legendre(n, a, b)
    assert np.array_equal(nodes, 0.5 * (b - a) * (x + 1.0) + a)
    assert np.array_equal(weights, 0.5 * (b - a) * w)
    for raw in _legendre_rule(n):
        assert not raw.flags.writeable
    assert nodes.flags.writeable and weights.flags.writeable


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
    # files written before the mode indices were derived still carry them
    legacy = dict(rect.to_dict(), mode_indices=rect.mode_indices.tolist())
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


def test_basis_rejects_unknown_schema(tmp_path, dirichlet_basis_64):
    doc = dirichlet_basis_64.to_dict()
    doc["schema"] = "condemp.basis/999"
    with pytest.raises(BasisError):
        SpectralBasis.from_dict(doc)
