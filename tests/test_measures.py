import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condemp import measures, transport
from condemp.measures import GridMeasure, InitialDistribution, MeasureError


def uniform_measure(n=257):
    x = np.linspace(0.0, 1.0, n)
    return GridMeasure(x, np.ones(n))


def test_mass_validation():
    x = np.linspace(0, 1, 65)
    with pytest.raises(MeasureError):
        GridMeasure(x, 1.5 * np.ones(65))
    with pytest.raises(MeasureError):
        GridMeasure(x, -np.ones(65))
    with pytest.raises(MeasureError):
        GridMeasure.from_histogram(x, np.full(64, np.nan))


def test_uniform_quantile_is_identity():
    gm = uniform_measure()
    u = np.linspace(0, 1, 101)
    assert np.max(np.abs(gm.quantile(u) - u)) <= 1e-12
    assert np.max(np.abs(gm.cdf(u) - u)) <= 1e-12


def test_cdf_monotone_where_positive():
    x = np.linspace(0, 1, 513)
    dens = 2.0 * np.sin(np.pi * x) ** 2
    gm = GridMeasure(x, dens)
    F = gm.cdf(x)
    assert np.all(np.diff(F) >= 0)
    inner = (x[:-1] > 0.05) & (x[:-1] < 0.95)
    assert np.all(np.diff(F)[inner] > 0)


def test_quantile_inverts_cdf():
    x = np.linspace(0, 1, 1025)
    dens = 2.0 * np.sin(np.pi * x) ** 2
    gm = GridMeasure(x, dens)
    u = np.concatenate([np.linspace(1e-6, 1 - 1e-6, 333), [1e-10, 1 - 1e-10]])
    q = gm.quantile(u)
    assert np.max(np.abs(gm.cdf(q) - u)) <= 1e-12
    # a scalar level gives a 0-d result, a level array its own shape
    assert gm.quantile(0.5).shape == ()
    grid = np.linspace(0.01, 0.99, 300).reshape(20, 15)
    np.testing.assert_array_equal(gm.quantile(grid), gm.quantile(grid.ravel()).reshape(20, 15))


def test_histogram_quantile_closed_form():
    edges = np.array([0.0, 0.25, 0.5, 1.0])
    gm = GridMeasure.from_histogram(edges, np.array([0.5, 0.0, 0.5]))
    assert gm.quantile(0.25) == pytest.approx(0.125)
    # mass gap: quantiles jump across the empty cell
    assert gm.quantile(0.5 + 1e-9) >= 0.5
    assert gm.quantile(0.75) == pytest.approx(0.75)


# random measures: cells or node spacings, and levels that include 0, 1,
# the far tails and every node of the CDF table
widths = st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=40)
levels = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50)


def _levels(gm, u):
    F = gm.cdf(gm.nodes)
    return np.sort(np.concatenate([u, [0.0, 1.0, 1e-10, 1 - 1e-10], F,
                                   np.nextafter(F, 1.0), np.nextafter(F, 0.0)]))


def _assert_inverts(gm, u, q):
    """F(q) is u up to a few ulps of u, plus what one ulp of q moves F by,
    plus the rounding of F's cell polynomial at q (the eps-weighted sum of
    its absolute terms, large where the terms cancel); and q is
    nondecreasing wherever the levels are further apart than that."""
    d = np.maximum(gm.pdf(q), gm.pdf(np.nextafter(q, -np.inf)))
    j = np.clip(np.searchsorted(gm.nodes, q, side="right") - 1, 0, gm.nodes.size - 2)
    s, size = q - gm.nodes[j], 0.0
    for c in np.abs(gm._cdf.c[:, j]):
        size = size * s + c
    band = 8 * (np.spacing(u) + d * np.abs(np.spacing(q)) + np.spacing(size / gm._mass))
    assert np.all(np.abs(gm.cdf(q) - u) <= band)
    resolved = np.diff(u) > band[:-1] + band[1:]
    assert np.all(np.diff(q)[resolved] >= 0)


@settings(max_examples=200, deadline=None)
@given(w=widths, start=st.floats(-5.0, 5.0), data=st.data(), u=levels)
def test_histogram_quantile_random(w, start, data, u):
    edges = start + np.concatenate([[0.0], np.cumsum(w)])
    masses = np.array(data.draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-8, 1e3)),
                                         min_size=len(w), max_size=len(w))))
    if masses.sum() <= 0:
        masses[-1] = 1.0
    gm = GridMeasure.from_histogram(edges, masses)
    u = _levels(gm, np.array(u))
    q = gm.quantile(u)
    # closed form: linear interpolation of the cumulative cell masses
    F = np.concatenate([[0.0], np.cumsum(gm.lebesgue_density * np.diff(edges))])
    F = F / F[-1]
    j = np.clip(np.searchsorted(F, u, side="left"), 1, F.size - 1)
    F0, F1 = F[j - 1], F[j]
    frac = np.where(F1 > F0, (u - F0) / np.where(F1 > F0, F1 - F0, 1.0), 0.0)
    np.testing.assert_array_equal(
        q, np.minimum(edges[j - 1] + frac * (edges[j] - edges[j - 1]), edges[j]))
    _assert_inverts(gm, u, q)
    assert np.all(np.diff(q) >= 0)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 200), lo=st.floats(-5.0, 5.0), width=st.floats(1e-2, 10.0),
       data=st.data(), u=levels)
def test_sampled_density_quantile_random(n, lo, width, data, u):
    x = np.linspace(lo, lo + width, n)
    dens = np.array(data.draw(st.lists(st.floats(1e-6, 1e3), min_size=n, max_size=n)))
    gm = GridMeasure.normalized(x, dens)
    u = _levels(gm, np.array(u))
    _assert_inverts(gm, u, gm.quantile(u))


@pytest.mark.parametrize("shape", [lambda x: np.sin(np.pi * x),
                                   lambda x: np.sin(np.pi * x) ** 2,
                                   lambda x: x**6], ids=["sin", "sin2", "x6"])
def test_quantile_deep_tail(shape):
    # the density vanishes at the left node, so the first cell's CDF starts
    # as c_k s^k and these levels have roots many decades below the cell
    x = np.linspace(0.0, 1.0, 8193)
    gm = GridMeasure.normalized(x, shape(x))
    u = np.array([1e-300, 1e-200, 1e-100, 1e-50, 1e-30, 1e-16])
    q = gm.quantile(u)
    assert np.all(np.diff(q) >= 0)
    _assert_inverts(gm, u, q)


SHAPES = {"sin": lambda x: np.sin(np.pi * x), "sin2": lambda x: np.sin(np.pi * x) ** 2,
          "x6": lambda x: x**6,
          # flat on the right half: its cells are linear, so blocks mix open
          # and closed levels from the first sweep
          "half_flat": lambda x: 1.0 + np.maximum(np.sin(2 * np.pi * x), 0.0)}
B = measures.QUANTILE_BLOCK


@functools.cache
def _shape_measure(shape, n, histogram):
    x = np.linspace(0.0, 1.0, n)
    if histogram:
        mid = 0.5 * (x[:-1] + x[1:])
        return GridMeasure.from_histogram(x, SHAPES[shape](mid) * np.diff(x))
    return GridMeasure.normalized(x, SHAPES[shape](x))


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from(sorted(SHAPES)), n=st.sampled_from([65, 8193]),
       histogram=st.booleans(), count=st.sampled_from([1, B - 1, B, B + 1, 2 * B + 3]),
       u=levels, seed=st.integers(0, 2**32 - 1))
def test_blocked_inversion_matches_reference(shape, n, histogram, count, u, seed):
    # each level's Newton path is its own, so blocks of QUANTILE_BLOCK levels
    # give every bit of the inversion that takes all levels at once
    gm = _shape_measure(shape, n, histogram)
    pool = np.random.default_rng(seed).permutation(_levels(gm, np.array(u)))
    lv = np.resize(pool, count)
    np.testing.assert_array_equal(gm.quantile(lv), gm._invert(lv.copy()))


@pytest.mark.parametrize("n", [2, 3, 65, 8193])
@pytest.mark.parametrize("histogram", [False, True])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_node_cdf_is_the_cdf_at_the_nodes(shape, histogram, n):
    # read off the antiderivative's constant terms, bit for bit its values
    gm = _shape_measure(shape, n, histogram)
    assert [v.hex() for v in gm._cdf_nodes] == [v.hex() for v in gm._cdf(gm.nodes)]


def test_unconverged_inversion_raises(monkeypatch):
    # one sweep leaves levels of a smooth measure open
    x = np.linspace(0.0, 1.0, 8193)
    gm = GridMeasure.normalized(x, np.sin(np.pi * x) ** 2)
    monkeypatch.setattr(measures, "NEWTON_ITERS", 1)
    with pytest.raises(MeasureError, match="unconverged"):
        gm.quantile(np.linspace(0.01, 0.99, 2 * B + 3))


def test_inversion_memory():
    # blocks keep the sweep's work arrays small; an unblocked inversion holds
    # ~25 arrays of all levels at once and peaks at 37.5x its output
    x = np.linspace(0.0, 1.0, 8193)
    gm = GridMeasure.normalized(x, np.sin(np.pi * x) ** 2)
    u = transport._quantile_grid(100_000)[0]
    assert u.size == 99_984
    tracemalloc.start()
    try:
        q = gm.quantile(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * q.nbytes


def test_expectation_simpson():
    x = np.linspace(0, 1, 513)
    gm = GridMeasure(x, 2.0 * np.sin(np.pi * x) ** 2)
    mean = gm.expectation(x)
    assert mean == pytest.approx(0.5, abs=1e-12)
    second = gm.expectation(x**2)
    exact = 0.25 + 0.5 * (1.0 / 6.0 - 1.0 / (4 * np.pi**2)) * 2 - 0.25
    # direct oracle by fine Riemann sum
    xf = np.linspace(0, 1, 200001)
    oracle = np.trapezoid(xf**2 * 2 * np.sin(np.pi * xf) ** 2, xf)
    assert second == pytest.approx(oracle, abs=1e-9)


def test_atomize_preserves_mass_and_moment():
    x = np.linspace(0, 1, 2049)
    gm = GridMeasure(x, 2.0 * np.sin(np.pi * x) ** 2)
    atoms, masses = gm.atomize(128)
    assert masses.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all((atoms >= 0) & (atoms <= 1))
    assert np.dot(atoms, masses) == pytest.approx(0.5, abs=1e-6)


def test_initial_distribution_callable_density():
    nu = InitialDistribution.from_density_mu(lambda x: np.ones_like(np.asarray(x)))
    vals = nu.density_on(np.linspace(0, 1, 7))
    assert np.allclose(vals, 1.0)
    with pytest.raises(MeasureError):
        InitialDistribution.from_point(0.2).density_on([0.1])
