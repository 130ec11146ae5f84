"""Rectangle-domain paths: tensor series, 2D limit constant, entropic W2."""

import numpy as np
import pytest

from condemp import build_analytic_basis, compute_I, mu_coefficients, project
from condemp.domains import rectangle
from condemp.measures import InitialDistribution
from condemp.semigroup import conditional_density
from condemp.transport import w2_entropic


@pytest.fixture(scope="module")
def rect_basis():
    return build_analytic_basis(rectangle(0.0, 1.0, 0.0, 0.5), 24)


def test_rectangle_conditional_density(rect_basis):
    basis = rect_basis
    cd = conditional_density(InitialDistribution.from_mu(), basis, 0.2)
    assert cd.mass == pytest.approx(1.0, abs=1e-6)
    assert abs(basis.integrate_mu0(cd.fluctuation())) <= 1e-8
    assert cd.min_value > 0.0


def test_rectangle_limit_constant(rect_basis):
    basis = rect_basis
    nu_c = project(InitialDistribution.from_mu(), basis)
    mu_c = mu_coefficients(basis)
    rep = compute_I(nu_c, mu_c, basis.eigenvalues,
                    tol=1e-3, d=2, nu_l2_bound=1.0)
    # oracle: tensor closed forms mu(phi_ij) = mux(i) muy(j) over many modes
    lam_or = []
    w_or = []
    for i in range(1, 40):
        for j in range(1, 40):
            lam = np.pi**2 * (i**2 + 4.0 * j**2)
            ci = 2 * np.sqrt(2.0) / (i * np.pi) if i % 2 else 0.0
            cj = 2 * np.sqrt(2.0) / (j * np.pi) if j % 2 else 0.0
            lam_or.append(lam)
            w_or.append(ci * cj)
    order = np.argsort(lam_or)
    lam_or = np.asarray(lam_or)[order]
    w_or = np.asarray(w_or)[order]
    gaps = lam_or - lam_or[0]
    I_oracle = float(np.sum((2 * w_or[0] * w_or[1:]) ** 2 / gaps[1:] ** 3)
                     / w_or[0] ** 4)
    # truncation at 24 modes leaves a visible but bounded tail
    assert rep.I_value == pytest.approx(I_oracle, rel=0.02)
    assert rep.I_value <= I_oracle


def test_rectangle_entropic_small_fluctuation():
    # perturb the limit measure along the first excited tensor mode and
    # compare the entropic distance with the inverse-generator linearization
    basis = build_analytic_basis(rectangle(0.0, 1.0, 0.0, 0.5), 12, n_quad=20)
    c = 0.08
    gap1 = basis.gaps[1]
    h = 1.0 + c * basis.ground_ratio[1]
    assert np.min(h) > 0
    w_mu0 = basis.ground_state**2 * basis.weights
    atoms = basis.grid
    ref_w = w_mu0 / w_mu0.sum()
    pert_w = (h * w_mu0) / np.dot(h, w_mu0)
    res = w2_entropic((atoms, pert_w), (atoms, ref_w), eps_target=1e-3)
    linear = c * c / gap1
    assert res.w2_squared == pytest.approx(linear, abs=res.error_estimate + 0.1 * linear)


def test_entropic_node_cap(rect_basis):
    big = np.random.default_rng(0).random((5000, 2))
    w = np.full(5000, 1.0 / 5000)
    from condemp.transport import TransportError
    with pytest.raises(TransportError, match="capped"):
        w2_entropic((big, w), (big, w))
