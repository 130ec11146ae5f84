import numpy as np
import pytest

from condemp import (build_analytic_basis, mu_coefficients, project,
                     unit_interval)
from condemp.domains import NEUMANN
from condemp.measures import GridMeasure, InitialDistribution
from condemp.mc import (SimulationConfig, SimulationError,
                        conditional_empirical_w2, simulate)
from condemp.semigroup import survival_probability
from condemp.transport import w1_grid_1d

PI2 = np.pi**2


def kill_config(**kw):
    base = dict(domain=unit_interval(), dt=1e-3, horizon=0.4, n_paths=20_000,
                seed=4242, initial=InitialDistribution.from_mu(),
                boundary_rule="kill")
    base.update(kw)
    return SimulationConfig(**base)


def test_config_validation():
    with pytest.raises(SimulationError):
        kill_config(dt=0.5)                    # dt > horizon/100
    with pytest.raises(SimulationError):
        kill_config(n_paths=0)
    with pytest.raises(SimulationError):
        kill_config(boundary_rule="absorb")
    with pytest.raises(SimulationError):
        kill_config(boundary_rule="reflect", resample=True)


def test_bitwise_reproducibility():
    s1 = simulate(kill_config(n_paths=4000))
    s2 = simulate(kill_config(n_paths=4000))
    assert np.array_equal(s1.histogram, s2.histogram)
    assert np.array_equal(s1.final_positions, s2.final_positions)
    assert s1.survival_count == s2.survival_count


def test_block_boundary_determinism():
    # crossing the fixed stream-block size must not change per-path draws:
    # the first block of a larger run reproduces the smaller run
    from condemp.mc import BLOCK, _run_block_direct
    cfg_small = kill_config(n_paths=BLOCK)
    cfg_large = kill_config(n_paths=BLOCK + 7)
    xa, alive_a, occ_a, _ = _run_block_direct(cfg_small, 0, BLOCK, {})
    xb, alive_b, occ_b, _ = _run_block_direct(cfg_large, 0, BLOCK, {})
    assert np.array_equal(xa, xb)
    assert np.array_equal(alive_a, alive_b)


def test_tabulated_density_start():
    # 3x^2 against mu on 65 nodes: its interpolated mass is 1 - 1.2e-7, so
    # the start law must be normalized once, by the measure itself
    from condemp.mc import _rng_for, _sample_initial
    x = np.linspace(0.0, 1.0, 65)
    nu = InitialDistribution(kind="density_mu", density=3 * x**2, nodes=x, name="3x^2")
    start = _sample_initial(nu, unit_interval(), _rng_for(4242, 0), 20_000)
    se = start.std(ddof=1) / np.sqrt(start.size)
    assert abs(start.mean() - 0.75) <= 3 * se
    sim = simulate(kill_config(initial=nu, n_paths=4000))
    assert sim.survival_count > 0


def test_survival_matches_spectral():
    basis = build_analytic_basis(unit_interval(), 128)
    mu_c = mu_coefficients(basis)
    t = 0.3
    sim = simulate(kill_config(horizon=t, n_paths=50_000))
    exact = survival_probability(mu_c, mu_c, basis.eigenvalues, t)
    n = sim.config.n_paths
    se = np.sqrt(exact * (1 - exact) / n)
    assert abs(sim.survival_fraction - exact) <= 3 * se + 2e-3 * exact


def test_survival_slope_small():
    times = (0.1, 0.2, 0.3, 0.4)
    sim = simulate(kill_config(horizon=0.4, n_paths=50_000, checkpoints=times))
    counts = np.array([sim.checkpoint_survival[t] * 50_000 for t in times])
    slope = np.polyfit(times, np.log(counts), 1, w=np.sqrt(counts))[0]
    assert abs(slope + PI2) <= 0.08 * PI2


def test_reflect_uniform_occupation():
    cfg = SimulationConfig(domain=unit_interval(boundary=NEUMANN), dt=2e-3,
                           horizon=5.0, n_paths=20_000, seed=99,
                           initial=InitialDistribution.from_mu(),
                           boundary_rule="reflect", n_bins=64)
    sim = simulate(cfg)
    dev = np.abs(sim.histogram - 1.0)
    assert np.mean(dev <= 3.0 * np.maximum(sim.stderr, 1e-12)) >= 0.95
    assert sim.survival_count == cfg.n_paths


def test_zero_survivors_reported():
    with pytest.raises(SimulationError, match="no surviving paths"):
        simulate(kill_config(horizon=3.0, n_paths=64))


def test_resampled_occupation_matches_spectral():
    from condemp.harness import spectral_measure
    from condemp.semigroup import conditional_density
    basis = build_analytic_basis(unit_interval(), 64)
    t = 1.0
    cfg = kill_config(horizon=t, n_paths=24_576, resample=True, islands=12)
    sim = simulate(cfg)
    cd = conditional_density(InitialDistribution.from_mu(), basis, t)
    ref = spectral_measure(cd, basis, 4097)
    occ = sim.occupation_measure()
    w1 = w1_grid_1d(occ, ref)
    w1_islands = [w1_grid_1d(GridMeasure.from_histogram(
        sim.bin_edges, h * np.diff(sim.bin_edges)), ref)
        for h in sim.island_histograms]
    se = np.std(w1_islands, ddof=1) / np.sqrt(len(w1_islands))
    assert w1 <= 3.0 * max(se, 1e-4)


def test_conditional_w2_self_reference_zero():
    sim = simulate(kill_config(horizon=0.3, n_paths=30_000))
    res, se = conditional_empirical_w2(sim, sim.occupation_measure(),
                                       n_bootstrap=50)
    assert res.w2 <= 1e-10


def test_conditional_w2_needs_survivors():
    sim = simulate(kill_config(horizon=0.6, n_paths=2_000))
    with pytest.raises(SimulationError):
        conditional_empirical_w2(sim, sim.occupation_measure())


def test_dt_halving_stability():
    ref = None
    hists = []
    for dt in (2e-3, 1e-3):
        sim = simulate(kill_config(dt=dt, horizon=0.3, n_paths=30_000))
        hists.append((sim.histogram, sim.stderr))
    tv = 0.5 * np.sum(np.abs(hists[0][0] - hists[1][0])) / hists[0][0].size * 1.0
    noise = 0.5 * np.sum(hists[0][1] + hists[1][1]) / hists[0][0].size
    assert tv <= 3.0 * noise


def test_neumann_mc_rescaled_distance_tracks_spectral():
    # reflecting start at the wall: the t^2-rescaled squared distance should
    # match the finite-t spectral value within Monte Carlo error bars
    from condemp.harness import mean_occupation_measure, mu0_measure
    basis = build_analytic_basis(unit_interval(boundary=NEUMANN), 256)
    nu = InitialDistribution.from_point(0.0)
    nu_c = project(nu, basis)
    t = 4.0
    cfg = SimulationConfig(domain=unit_interval(boundary=NEUMANN), dt=1e-3,
                           horizon=t, n_paths=16_384, seed=21,
                           initial=nu, boundary_rule="reflect", n_bins=128)
    sim = simulate(cfg)
    uniform = mu0_measure(basis, 4097)
    from condemp.transport import w2_quantile_1d
    spectral = w2_quantile_1d(mean_occupation_measure(nu_c, basis, t, 4097),
                              uniform, n_quantiles=20_000)
    res, se = conditional_empirical_w2(sim, uniform, n_bootstrap=100)
    assert abs(res.w2 - spectral.w2) <= 3.0 * se + 1e-4


def test_neumann_point_start_mean_occupation():
    # reflecting start at the boundary relaxes toward uniform occupation
    basis = build_analytic_basis(unit_interval(boundary=NEUMANN), 256)
    nu = InitialDistribution.from_point(0.0)
    nu_c = project(nu, basis)
    t = 4.0
    cfg = SimulationConfig(domain=unit_interval(boundary=NEUMANN), dt=1e-3,
                           horizon=t, n_paths=8_192, seed=7,
                           initial=nu, boundary_rule="reflect", n_bins=128)
    sim = simulate(cfg)
    from condemp.harness import mean_occupation_measure
    ref = mean_occupation_measure(nu_c, basis, t, 4097)
    w1 = w1_grid_1d(sim.occupation_measure(), ref)
    assert w1 <= 5e-3
