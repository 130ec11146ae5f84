import dataclasses

import numpy as np
import pytest
from scipy.special import ndtri

from condemp import (build_analytic_basis, mu_coefficients, project,
                     unit_interval)
from condemp.domains import NEUMANN
from condemp.measures import GridMeasure, InitialDistribution
from condemp.mc import (BLOCK, EMPIRICAL_QUANTILES, PathEnsembleSummary, SimulationConfig,
                        SimulationError, _noise_floor, _rng_for, conditional_empirical_w2,
                        simulate)
from condemp.semigroup import survival_probability
from condemp.transport import w1_grid_1d, w2_quantile_1d

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
    from condemp.mc import BLOCK, _run_block
    cfg_small = kill_config(n_paths=BLOCK)
    cfg_large = kill_config(n_paths=BLOCK + 7)
    xa, counts_a, _, _ = _run_block(cfg_small, 0, BLOCK, {})
    xb, counts_b, _, _ = _run_block(cfg_large, 0, BLOCK, {})
    assert np.array_equal(xa, xb)
    assert np.array_equal(counts_a, counts_b)


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


def test_branching_checkpoint_survival_matches_exact_law():
    # P(tau > t) from a uniform start is sum over odd k of 8/(k pi)^2 e^{-k^2 pi^2 t};
    # a population estimates it by the product of its per-step survival fractions
    times, n = (0.1, 0.2, 0.3, 0.4), 8000
    sim = simulate(kill_config(horizon=0.4, n_paths=n, islands=8, resample=True,
                               checkpoints=times))
    k = np.arange(1, 401, 2, dtype=float)
    for t in times:
        exact = np.sum(8.0 / (k * np.pi) ** 2 * np.exp(-(k * np.pi) ** 2 * t))
        se_log = np.sqrt((1.0 - exact) / (exact * n))    # the direct estimator's
        assert abs(np.log(sim.checkpoint_survival[t] / exact)) <= 4.0 * se_log


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


def test_conditional_w2_subtracts_its_noise_floor():
    # islands are the reference's bin densities plus i.i.d. noise: raw W2^2
    # sits a noise floor above the noise-free W2^2, and raw - floor does not
    x = np.linspace(0.0, 1.0, 2049)
    reference = GridMeasure.normalized(x, 1.0 + 0.5 * np.cos(np.pi * x))
    edges = np.linspace(0.0, 1.0, 65)
    exact = np.diff(reference.cdf(edges)) / np.diff(edges)
    noise_free = w2_quantile_1d(GridMeasure.from_histogram(edges, exact * np.diff(edges)),
                                reference, n_quantiles=20_000).w2_squared
    rng = np.random.default_rng(8)
    raw, debiased = [], []
    for rep in range(40):
        islands = exact + 0.05 * rng.standard_normal((16, exact.size))
        summary = PathEnsembleSummary(
            config=kill_config(seed=rep, resample=True, n_bins=64, islands=16),
            bin_edges=edges, histogram=islands.mean(axis=0), stderr=np.zeros(64),
            survival_count=16_000, survival_fraction=1.0,
            effective_sample_size=16_000.0, final_positions=np.empty(0),
            island_histograms=islands)
        res, _ = conditional_empirical_w2(summary, reference, n_bootstrap=2)
        raw.append(res.details["w2_raw"] ** 2)
        debiased.append(raw[-1] - res.details["noise_floor"])
    se = np.std(debiased, ddof=1) / np.sqrt(len(debiased))
    assert abs(np.mean(debiased) - noise_free) <= 3.0 * se
    assert np.mean(raw) - noise_free > 5.0 * se


def test_direct_noise_floor_counts_every_survivor():
    # the histogram averages survival_count paths, of which the pool keeps
    # the first rows only: the floor is that of a survival_count-path mean,
    # while each bootstrap resample keeps its pool-sized floor
    x = np.linspace(0.0, 1.0, 2049)
    reference = GridMeasure.normalized(x, 1.0 + 0.5 * np.cos(np.pi * x))
    edges = np.linspace(0.0, 1.0, 33)
    pool = 0.3 * np.random.default_rng(5).dirichlet(np.full(32, 20.0), size=1200)
    floors, ses = [], []
    for count in (1200, 4800, 96_000):
        summary = PathEnsembleSummary(
            config=kill_config(n_bins=32), bin_edges=edges,
            histogram=pool.mean(axis=0) / 0.3 / np.diff(edges), stderr=np.zeros(32),
            survival_count=count, survival_fraction=count / 100_000,
            effective_sample_size=float(count), final_positions=np.empty(0),
            path_occupations=pool)
        res, se = conditional_empirical_w2(summary, reference, n_bootstrap=3)
        floors.append(res.details["noise_floor"])
        ses.append(se)
        # the raw W2^2 the code subtracts from: w2_raw**2 need not round back to it
        raw_sq = w2_quantile_1d(summary.occupation_measure(), reference,
                                n_quantiles=EMPIRICAL_QUANTILES).w2_squared
        assert res.w2 == np.sqrt(max(raw_sq - floors[-1], 0.0))
    assert floors[0] > 0.0
    assert floors[1] == pytest.approx(floors[0] / 4, rel=1e-12)
    assert floors[2] == pytest.approx(floors[0] / 80, rel=1e-12)
    assert ses[0] == ses[1] == ses[2]


def test_bootstrap_matches_per_resample_quantile_distance():
    # the bootstrap inverts the reference once; each resample's W2^2 is still
    # the one w2_quantile_1d gives on its 4000-level grid, so the SE, the
    # bootstrap mean and the distance are those of per-resample calls, bit for bit
    x = np.linspace(0.0, 1.0, 2049)
    reference = GridMeasure.normalized(x, 0.1 + np.sin(np.pi * x) ** 2)
    edges = np.linspace(0.0, 1.0, 65)
    widths = np.diff(edges)
    exact = np.diff(reference.cdf(edges)) / widths
    islands = exact + 0.02 * np.random.default_rng(3).standard_normal((16, exact.size))
    summary = PathEnsembleSummary(
        config=kill_config(seed=11, resample=True, n_bins=64, islands=16),
        bin_edges=edges, histogram=islands.mean(axis=0), stderr=np.zeros(64),
        survival_count=16_000, survival_fraction=1.0,
        effective_sample_size=16_000.0, final_positions=np.empty(0),
        island_histograms=islands)
    res, se = conditional_empirical_w2(summary, reference, n_bootstrap=20)

    cdfs = np.zeros((16, edges.size))
    np.cumsum(islands * widths, axis=1, out=cdfs[:, 1:])
    cdfs /= cdfs[:, -1:]
    rho = reference.pdf(edges)
    rng, vals = _rng_for(11, 10**6), np.empty(20)
    for k in range(20):
        pick = (rng.random(16) * 16).astype(int)
        gm = GridMeasure.from_histogram(edges, islands[pick].mean(axis=0) * widths)
        w2sq = w2_quantile_1d(gm, reference, n_quantiles=4000).w2_squared
        vals[k] = np.sqrt(max(w2sq - _noise_floor(cdfs[pick], edges, rho, 16), 0.0))
    base = w2_quantile_1d(summary.occupation_measure(), reference, n_quantiles=20_000)
    assert se > 0.0
    assert se == res.details["bootstrap_se"] == float(vals.std(ddof=1))
    assert res.details["bootstrap_mean"] == float(vals.mean())
    assert res.w2 == np.sqrt(max(base.w2_squared - _noise_floor(cdfs, edges, rho, 16), 0.0))
    assert res.error_estimate == base.error_estimate + 3 * se


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


# ---------------------------------------------------------------------------
# the engine against a plain reference: float occupation accumulated with
# np.add.at over every path of a block, blocks run one after another
# ---------------------------------------------------------------------------

def _ref_propose(cfg, rng, x):
    z = ndtri(rng.random(x.size))
    drift = 0.0 if cfg.drift is None else np.asarray(cfg.drift(x), dtype=float)
    return x + drift * cfg.dt + np.sqrt(2.0 * cfg.dt) * z


def _ref_crossing(d1, d2, dt):
    with np.errstate(over="ignore"):
        return np.exp(-np.maximum(d1, 0.0) * np.maximum(d2, 0.0) / dt)


def _ref_survives_given(u0, u1, x, xn, a, b, dt):
    inside = (xn > a) & (xn < b)
    return (inside & (u0 > _ref_crossing(x - a, xn - a, dt))
            & (u1 > _ref_crossing(b - x, b - xn, dt)))


def _ref_survives(rng, x, xn, a, b, dt):
    u0 = rng.random(x.size)
    return _ref_survives_given(u0, rng.random(x.size), x, xn, a, b, dt)


def _ref_bin_index(x, a, b, n_bins):
    return np.clip(((x - a) / (b - a) * n_bins).astype(np.int64), 0, n_bins - 1)


def _ref_occupy(occ, rows, x, xn, a, b, dt):
    n_bins = occ.shape[1]
    np.add.at(occ, (rows, _ref_bin_index(x, a, b, n_bins)), 0.5 * dt)
    np.add.at(occ, (rows, _ref_bin_index(xn, a, b, n_bins)), 0.5 * dt)


def _ref_block_direct(cfg, block, n, cp_steps):
    from condemp.mc import _reflect, _rng_for, _sample_initial
    a, b = cfg.domain.bounds
    rng = _rng_for(cfg.seed, block)
    x = _sample_initial(cfg.initial, cfg.domain, rng, n)
    kill = cfg.boundary_rule == "kill"
    alive = np.ones(n, dtype=bool)
    occ = np.zeros((n, cfg.n_bins))
    cp_counts = {}
    rows = np.arange(n)
    for s in range(1, cfg.n_steps() + 1):
        xn = _ref_propose(cfg, rng, x)
        if kill:
            alive &= _ref_survives(rng, x, xn, a, b, cfg.dt)
            xn = np.where(alive, np.clip(xn, a, b), x)
        else:
            xn = _reflect(xn, a, b)
        _ref_occupy(occ, rows, x, xn, a, b, cfg.dt)
        x = xn
        if s in cp_steps:
            cp_counts[cp_steps[s]] = int(alive.sum())
    return x, alive, occ, cp_counts


def _ref_block_resampled(cfg, block, n, cp_steps):
    from condemp.mc import _rng_for, _sample_initial
    a, b = cfg.domain.bounds
    rng = _rng_for(cfg.seed, block)
    x = _sample_initial(cfg.initial, cfg.domain, rng, n)
    occ = np.zeros((n, cfg.n_bins))
    log_surv = 0.0
    cp_logs = {}
    rows = np.arange(n)
    for s in range(1, cfg.n_steps() + 1):
        xn = _ref_propose(cfg, rng, x)
        killed = ~_ref_survives(rng, x, xn, a, b, cfg.dt)
        nk = int(killed.sum())
        if nk == n:
            raise SimulationError("entire population killed in one step; shrink dt")
        xold = x
        if nk:
            survivors = np.flatnonzero(~killed)
            donors = survivors[(rng.random(nk) * survivors.size).astype(np.int64)]
            xold = x.copy()
            xold[killed] = x[donors]
            xn[killed] = np.clip(_ref_propose(cfg, rng, x[donors]), a + 1e-12, b - 1e-12)
            occ[killed] = occ[donors]
        log_surv += np.log1p(-nk / n)
        _ref_occupy(occ, rows, xold, xn, a, b, cfg.dt)
        x = xn
        if s in cp_steps:
            cp_logs[cp_steps[s]] = log_surv
    return x, occ, log_surv, cp_logs


def _simulate_reference(config):
    from condemp.mc import BLOCK, PathEnsembleSummary
    a, b = config.domain.bounds
    edges = np.linspace(a, b, config.n_bins + 1)
    widths = np.diff(edges)
    t = config.horizon
    cp_steps = {int(round(c / config.dt)): c for c in config.checkpoints}
    if config.resample:
        n_isl = config.islands
        per = config.n_paths // n_isl
        island_hist = np.empty((n_isl, config.n_bins))
        finals, log_survs, cp_acc = [], [], {}
        for isl in range(n_isl):
            xf, occ, ls, cps = _ref_block_resampled(config, isl, per, cp_steps)
            island_hist[isl] = occ.mean(axis=0) / t / widths
            finals.append(xf)
            log_survs.append(ls)
            for k, v in cps.items():
                cp_acc.setdefault(k, []).append(v)
        return PathEnsembleSummary(
            config=config, bin_edges=edges, histogram=island_hist.mean(axis=0),
            stderr=island_hist.std(axis=0, ddof=1) / np.sqrt(n_isl),
            survival_count=n_isl * per,
            survival_fraction=float(np.exp(np.mean(log_survs))),
            effective_sample_size=float(n_isl * per),
            final_positions=np.concatenate(finals),
            checkpoint_survival={k: float(np.exp(np.mean(v))) for k, v in cp_acc.items()},
            island_histograms=island_hist)
    total_occ = np.zeros(config.n_bins)
    total_sq = np.zeros(config.n_bins)
    survivors, finals, surv_occ, cp_counts = 0, [], [], {}
    remaining, block = config.n_paths, 0
    while remaining > 0:
        n = min(BLOCK, remaining)
        xf, alive, occ, cps = _ref_block_direct(config, block, n, cp_steps)
        occ_alive = occ[alive] / t
        survivors += int(alive.sum())
        finals.append(xf[alive])
        if occ_alive.size:
            total_occ += occ_alive.sum(axis=0)
            total_sq += (occ_alive**2).sum(axis=0)
            surv_occ.append(occ_alive)
        for k, v in cps.items():
            cp_counts[k] = cp_counts.get(k, 0) + v
        remaining -= n
        block += 1
    mean_occ = total_occ / survivors
    var_occ = np.maximum(total_sq / survivors - mean_occ**2, 0.0)
    path_occ = np.vstack(surv_occ)[:60000]
    return PathEnsembleSummary(
        config=config, bin_edges=edges, histogram=mean_occ / widths,
        stderr=np.sqrt(var_occ / survivors) / widths, survival_count=survivors,
        survival_fraction=survivors / config.n_paths,
        effective_sample_size=float(survivors),
        final_positions=np.concatenate(finals),
        checkpoint_survival={k: v / config.n_paths for k, v in cp_counts.items()},
        path_occupations=path_occ)


def _assert_same_summary(got, want):
    for f in dataclasses.fields(want):
        g, w = getattr(got, f.name), getattr(want, f.name)
        if isinstance(w, np.ndarray):
            assert g.dtype == w.dtype and np.array_equal(g, w), f.name
        else:
            assert type(g) is type(w) and g == w, f.name


def _drifted_interval(**kw):
    from condemp.domains import Potential
    xs = np.linspace(0.0, 1.0, 33)
    return unit_interval(potential=Potential(xs, 1.5 * np.sin(np.pi * xs)), **kw)


ENGINE_CASES = {
    "killed-direct-two-blocks": lambda: kill_config(
        n_paths=BLOCK + 7, horizon=0.05, dt=5e-4, checkpoints=(0.02, 0.05)),
    "reflecting": lambda: SimulationConfig(
        domain=unit_interval(boundary=NEUMANN), dt=2e-3, horizon=0.4, n_paths=3000,
        seed=5, initial=InitialDistribution.from_mu(), boundary_rule="reflect",
        n_bins=64),
    "resampled-drift-grid-density": lambda: SimulationConfig(
        domain=_drifted_interval(), dt=1e-3, horizon=0.3, n_paths=1500, seed=8,
        initial=InitialDistribution(
            kind="density_mu", density=1.0 + np.linspace(0.0, 1.0, 17),
            nodes=np.linspace(0.0, 1.0, 17)),
        boundary_rule="kill", resample=True, islands=5, checkpoints=(0.1, 0.3)),
    "point-start": lambda: kill_config(
        n_paths=5000, horizon=0.2, initial=InitialDistribution.from_point(0.3),
        checkpoints=(0.1,)),
    "reflecting-drift": lambda: SimulationConfig(
        domain=_drifted_interval(boundary=NEUMANN), dt=2e-3, horizon=0.4, n_paths=3000,
        seed=6, initial=InitialDistribution.from_point(0.2), boundary_rule="reflect",
        n_bins=64),
    "killed-direct-drift": lambda: kill_config(
        domain=_drifted_interval(), n_paths=4000, horizon=0.3, seed=9,
        checkpoints=(0.1, 0.3)),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", list(ENGINE_CASES))
def test_engine_matches_reference_bitwise(case, workers, monkeypatch):
    import condemp.mc as mc
    monkeypatch.setattr(mc, "_workers", lambda n_blocks: min(workers, n_blocks))
    cfg = ENGINE_CASES[case]()
    _assert_same_summary(simulate(cfg), _simulate_reference(cfg))


def _face_step(ratio, face, dt):
    """x, xn inside the unit interval with max(d1,0) max(d2,0) / dt == ratio
    exactly on the given face (searched over a few ulps of xn); the other
    face is far."""
    x = 0.25
    xn = ratio * dt / x
    for _ in range(200):
        r = x * xn / dt
        if r == ratio:
            break
        xn = np.nextafter(xn, np.inf if r < ratio else -np.inf)
    assert x * xn / dt == ratio
    return (x, xn) if face == 0 else (1.0 - x, 1.0 - xn)


@pytest.mark.parametrize("face", [0, 1])
def test_bridge_test_on_the_uniform_lattice(face):
    # Generator.random draws k 2^-53; beyond BRIDGE_CUTOFF the crossing
    # probability exp(-r) lies below 2^-53 and u > p must equal u > 0
    from condemp.mc import BRIDGE_CUTOFF, _survives
    dt = 1e-4
    cut = BRIDGE_CUTOFF
    ratios = [0.0, 36.0, 36.5, np.nextafter(cut, 0.0), cut, np.nextafter(cut, np.inf),
              40.0, 800.0]
    k = np.random.default_rng(11).integers(1, 2**53, 6)
    levels = np.concatenate([[0.0, 2.0**-53, 2 * 2.0**-53], k * 2.0**-53])
    x, xn, u_face = [], [], []
    steps = [((0.25, 0.0) if face == 0 else (0.75, 1.0)) if r == 0.0   # lands on the face
             else _face_step(r, face, dt) for r in ratios]
    # starts exactly on either face (d1 = 0), one step inside
    steps += [(0.0, 1e-3), (0.0, 5e-324), (1.0, 1.0 - 1e-3), (1.0, np.nextafter(1.0, 0.0))]
    for xs, xns in steps:
        x += [xs] * levels.size
        xn += [xns] * levels.size
        u_face.append(levels)
    x, xn, u_face = np.array(x), np.array(xn), np.concatenate(u_face)
    u_other = np.full(x.size, 0.5)
    u0, u1 = (u_face, u_other) if face == 0 else (u_other, u_face)
    want = _ref_survives_given(u0, u1, x, xn, 0.0, 1.0, dt)
    assert np.array_equal(_survives(u0, u1, x, xn, 0.0, 1.0, dt), want)
    # the lowest nonzero level 2^-53 lies below exp(-36.5) but above exp(-37)
    grid = want.reshape(len(steps), levels.size)
    assert not grid[2, 1] and grid[4, 1]
    assert not grid[len(ratios):].any()       # a start on a face is a crossing: p = 1


def test_visit_counts_beyond_the_smallest_dtype():
    # one bin, 40000 steps: every path makes 80000 visits, past uint16
    from condemp.mc import _new_counts
    cfg = SimulationConfig(domain=unit_interval(boundary=NEUMANN), dt=1e-5, horizon=0.4,
                           n_paths=32, seed=3, initial=InitialDistribution.from_mu(),
                           boundary_rule="reflect", n_bins=1)
    assert cfg.n_steps() == 40_000 and _new_counts(cfg, 1).dtype == np.uint32
    _assert_same_summary(simulate(cfg), _simulate_reference(cfg))


@pytest.mark.parametrize("resample", [False, True])
def test_prepaid_visit_counts_at_the_dtype_edge(resample):
    # one bin, 127 steps: the 254 visits of a path fit uint8, and with the
    # start visit prepaid a count peaks at 255, the largest uint8
    from condemp.mc import _new_counts
    cfg = SimulationConfig(
        domain=unit_interval() if resample else unit_interval(boundary=NEUMANN), dt=1e-3,
        horizon=0.127, n_paths=48, seed=3, initial=InitialDistribution.from_mu(),
        boundary_rule="kill" if resample else "reflect", resample=resample, islands=3,
        n_bins=1)
    assert cfg.n_steps() == 127 and _new_counts(cfg, 1).dtype == np.uint8
    _assert_same_summary(simulate(cfg), _simulate_reference(cfg))


def test_worker_error_reaches_the_caller(monkeypatch):
    # a population killed in one step raises inside a pool worker; the
    # caller sees the same SimulationError and no worker is left running
    import multiprocessing

    import condemp.mc as mc
    from condemp.domains import Domain
    monkeypatch.setattr(mc, "_workers", lambda n_blocks: min(2, n_blocks))
    cfg = SimulationConfig(domain=Domain(kind="interval", bounds=(0.0, 1e-3)), dt=1e-2,
                           horizon=1.0, n_paths=64, seed=1,
                           initial=InitialDistribution.from_mu(), boundary_rule="kill",
                           resample=True, islands=4)
    with pytest.raises(SimulationError, match="entire population killed") as err:
        simulate(cfg)
    assert type(err.value) is SimulationError
    assert type(err.value.__cause__).__name__ == "_RemoteTraceback"   # raised in a worker
    assert multiprocessing.active_children() == []
    simulate(kill_config(n_paths=BLOCK + 7, horizon=0.02, dt=2e-4))
    assert multiprocessing.active_children() == []
