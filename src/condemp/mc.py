"""Monte Carlo ground truth for killed and reflecting interval diffusions.

Paths follow dX = V'(X) dt + sqrt(2) dB (generator Delta + V' d/dx) by
Euler-Maruyama.  Killing applies the Brownian-bridge crossing correction
exp(-d1 d2 / dt) per face, matching quadratic variation 2 dt.  Random
numbers come from counter-based Philox streams keyed by (seed, block), with
fixed block size and inverse-CDF normals, so ensembles are bitwise
reproducible and independent of how blocks are scheduled: one after another
in this process, or on worker processes, one per core the process may run
on.  Workers are forked, so each starts with the config as it is (a config
may hold lambdas, which do not pickle) and only block results travel back.

Occupation is kept as integer visit counts per (path, bin), each step
visiting both its ends, every visit worth dt/2.  Visits are prepaid: a
path gets 1 at its start, 2 at each step's end (that end and the next
start) and -1 at its final bin, and a clone copies counts that hold its
start.  A count alone fixes a bin's occupation time, read from one table
of running sums bit for bit as adding the increments one by one gives it.

Deep horizons are unreachable by direct killing (survival decays like
e^{-lambda_0 t}), so the simulator also offers a resampling mode: killed
particles branch from a surviving one and inherit its occupation record.
The mean over final particles of the inherited occupation estimates the
conditional time-averaged occupation; island replication gives honest
standard errors.

One block kernel, `_run_block`, runs all three kinds of block: reflecting
paths, killed paths that drop out, and a branching population.  Direct
blocks send their survivors' visit counts back, which the standard error
of the occupation needs path by path.  A population keeps every row alive,
so it reduces its counts to one mean occupation per bin in the worker:
sending the (paths, bins) table back instead would hold every island's
table in the parent at once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .domains import DIRICHLET, Domain
from .measures import GridMeasure, InitialDistribution
from .transport import TransportResult, _quantile_grid, w2_quantile_1d

__all__ = ["SimulationError", "SimulationConfig", "PathEnsembleSummary",
           "simulate", "conditional_empirical_w2"]

BLOCK = 16384      # fixed stream-block size; never tied to worker count
EMPIRICAL_QUANTILES = 20000   # quantile nodes of the conditional empirical W2
BRIDGE_CUTOFF = 37.0   # exp(-37) < 2^-53: no nonzero uniform lies below the crossing probability


class SimulationError(ValueError):
    pass


@dataclass
class SimulationConfig:
    domain: Domain
    dt: float
    horizon: float
    n_paths: int
    seed: int
    initial: InitialDistribution
    boundary_rule: str = "kill"           # "kill" | "reflect"
    resample: bool = False                # branch killed particles (kill mode)
    n_bins: int = 256
    islands: int = 24                     # resampling populations
    checkpoints: tuple = ()
    drift: object = field(init=False)     # callable V'(x) of the potential; None when V = 0

    def __post_init__(self):
        if self.domain.kind != "interval":
            raise SimulationError("simulation supports interval domains only")
        if self.boundary_rule not in ("kill", "reflect"):
            raise SimulationError(f"unknown boundary rule {self.boundary_rule!r}")
        if self.n_paths < 1:
            raise SimulationError("need at least one path")
        if self.dt > self.horizon / 100.0:
            raise SimulationError("dt must not exceed horizon/100")
        if self.resample and self.boundary_rule != "kill":
            raise SimulationError("resampling applies to the killed mode only")
        self.drift = None
        if self.domain.potential is not None:
            spline = self.domain.potential.spline
            self.drift = lambda x: spline(x, 1)

    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))


@dataclass
class PathEnsembleSummary:
    config: SimulationConfig
    bin_edges: np.ndarray
    histogram: np.ndarray             # conditional occupation density (Lebesgue)
    stderr: np.ndarray
    survival_count: int
    survival_fraction: float
    effective_sample_size: float
    final_positions: np.ndarray
    checkpoint_survival: dict = field(default_factory=dict)
    island_histograms: np.ndarray | None = None
    path_occupations: np.ndarray | None = None   # survivors only (direct mode)

    def occupation_measure(self) -> GridMeasure:
        masses = self.histogram * np.diff(self.bin_edges)
        return GridMeasure.from_histogram(self.bin_edges, masses, name="mc-occupation")

    def final_measure(self) -> GridMeasure:
        hist, _ = np.histogram(self.final_positions, bins=self.bin_edges)
        return GridMeasure.from_histogram(self.bin_edges, hist.astype(float), name="mc-final")


def _rng_for(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[int(seed), int(block)]))


def _sample_initial(dist: InitialDistribution, domain: Domain, rng, n: int) -> np.ndarray:
    a, b = domain.bounds
    if dist.kind == "point":
        x0 = float(np.atleast_1d(dist.point)[0])
        if domain.boundary == DIRICHLET and not domain.contains_interior(x0):
            raise SimulationError("point mass must be interior in the killed case")
        if not a <= x0 <= b:
            raise SimulationError("point mass outside the domain")
        return np.full(n, x0)
    grid = np.linspace(a, b, 2049)
    dens = dist.density_on(grid) * np.exp(domain.potential_values(grid))
    return GridMeasure.normalized(grid, dens).quantile(rng.random(n))


def _reflect(x: np.ndarray, a: float, b: float) -> np.ndarray:
    L = b - a
    z = np.mod(x - a, 2.0 * L)
    return a + np.minimum(z, 2.0 * L - z)


def _bin_index(x: np.ndarray, a: float, b: float, n_bins: int) -> np.ndarray:
    idx = ((x - a) / (b - a) * n_bins).astype(np.int64)
    return np.minimum(idx, n_bins - 1, out=idx)      # x in [a, b]: only x = b needs a clamp


def _propose(cfg: SimulationConfig, u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One Euler-Maruyama step from x, driven by one uniform per path."""
    z = ndtri(u)
    z *= np.sqrt(2.0 * cfg.dt)     # without drift, bit for bit x + 0 dt + c z: no position is -0.0
    return np.add(z, x if cfg.drift is None else x + np.asarray(cfg.drift(x), dtype=float) * cfg.dt,
                  out=z)


def _survives(u0: np.ndarray, u1: np.ndarray, x: np.ndarray, xn: np.ndarray,
              a: float, b: float, dt: float) -> np.ndarray:
    """The step x -> xn, x in [a, b], ends inside and its Brownian bridge
    crossed neither face: face k is crossed with probability p =
    exp(-d1 d2 / dt) and survived when u_k > p; ending on or past it makes
    d1 d2 <= 0 and p >= 1.  p is evaluated only where d1 d2 <= BRIDGE_CUTOFF
    dt (1e-12 wider, to miss no d1 d2 / dt <= BRIDGE_CUTOFF); beyond it
    p < 2^-53, the spacing of the uniforms, and u_k > p means u_k > 0."""
    ok = np.minimum(u0, u1) > 0.0
    cut = BRIDGE_CUTOFF * dt * (1.0 + 1e-12)
    with np.errstate(over="ignore"):
        for u, d, dn in ((u0, x - a, xn - a), (u1, b - x, b - xn)):
            d *= dn
            near = (ok & (d <= cut)).nonzero()[0]
            ok[near] = u[near] > np.exp(-(d[near] / dt))
    return ok


def _new_counts(cfg: SimulationConfig, n: int) -> np.ndarray:
    """Per-(path, bin) visit counts in the smallest dtype that holds the
    2 n_steps + 1 visits of a path, one prepaid (every unsigned max is odd)."""
    return np.zeros((n, cfg.n_bins), dtype=np.min_scalar_type(2 * cfg.n_steps()))


def _visit_times(cfg: SimulationConfig) -> np.ndarray:
    """Occupation time of k visits at index k: k increments dt/2 summed one
    by one in float, as accumulating them per step does."""
    return np.concatenate([[0.0], np.cumsum(np.full(2 * cfg.n_steps(), 0.5 * cfg.dt))])


def _run_block(cfg: SimulationConfig, block: int, n: int, cp_steps: dict):
    """One stream block: n reflecting or killed paths, or a branching population.

    Each killed step draws 3 uniforms for every path of the block.  Without
    branching a killed path drops out of the arithmetic, its draws still
    taken, so a path's draws do not depend on which others died; with
    branching it clones a survivor's position and visit counts, so final
    records sample the conditioned paths.  Returns the final positions, the
    occupation (the survivors' visit counts, or a population's mean
    occupation time per bin), the log survival of a population, and the
    live count or log survival at each checkpoint."""
    a, b = cfg.domain.bounds
    rng = _rng_for(cfg.seed, block)
    x = _sample_initial(cfg.initial, cfg.domain, rng, n)
    counts = _new_counts(cfg, n)
    flat = counts.reshape(-1)
    live = np.arange(n)
    offsets = live * cfg.n_bins
    flat[offsets + _bin_index(x, a, b, cfg.n_bins)] = 1     # the start visit
    log_surv = 0.0
    cp_values = {}
    for s in range(1, cfg.n_steps() + 1):
        if cfg.boundary_rule == "reflect":
            xn = _reflect(_propose(cfg, rng.random(n), x), a, b)
        else:
            u = rng.random(3 * n).reshape(3, n)
            if live.size < n:
                u = u.take(live, axis=1)
            xn = _propose(cfg, u[0], x)
            ok = _survives(u[1], u[2], x, xn, a, b, cfg.dt)
            if not (cfg.resample or ok.all()):
                live, offsets, xn = live[ok], offsets[ok], xn[ok]
            elif cfg.resample and (killed := (~ok).nonzero()[0]).size:
                survivors = ok.nonzero()[0]
                if not survivors.size:
                    raise SimulationError("entire population killed in one step; shrink dt")
                nk = killed.size
                donors = survivors[(rng.random(nk) * survivors.size).astype(np.int64)]
                # np.minimum/np.maximum: np.clip without its dispatch cost
                xn[killed] = np.minimum(np.maximum(_propose(cfg, rng.random(nk), x[donors]),
                                                   a + 1e-12), b - 1e-12)
                counts[killed] = counts[donors]     # holds the donor's visit of x[donors]
                log_surv += np.log1p(-nk / n)
        flat[offsets + _bin_index(xn, a, b, cfg.n_bins)] += 2   # this end, next start
        x = xn
        if s in cp_steps:
            cp_values[cp_steps[s]] = log_surv if cfg.resample else live.size
    flat[offsets + _bin_index(x, a, b, cfg.n_bins)] -= 1     # no step starts at the horizon
    # a population's counts are (n, n_bins): reduce them here, not in the parent
    occupation = _visit_times(cfg)[counts].mean(axis=0) if cfg.resample else counts[live]
    return x, occupation, log_surv, cp_values


def _workers(n_blocks: int) -> int:
    """One worker per core this process may run on, at most one per block."""
    return min(len(os.sched_getaffinity(0)), n_blocks)


_worker_config = None     # set in each pool worker by _adopt_config


def _adopt_config(config: SimulationConfig):
    global _worker_config
    _worker_config = config


def _run_in_worker(job):
    return _run_block(_worker_config, *job)


def _run_blocks(config: SimulationConfig, jobs: list) -> list:
    """_run_block(config, *job) for every job, results in job order: on a
    pool of forked workers that get the config through their initializer,
    or in this process when there is one worker.  The pool is shut down
    before this returns or raises."""
    n_workers = _workers(len(jobs))
    if n_workers <= 1:
        return [_run_block(config, *job) for job in jobs]
    import multiprocessing                 # deferred: only pooled runs need them
    from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(n_workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_adopt_config, initargs=(config,))
    try:
        return list(pool.map(_run_in_worker, jobs))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def simulate(config: SimulationConfig) -> PathEnsembleSummary:
    """Run the config's stream blocks, islands of a branching population or
    BLOCK-path direct blocks, and summarize them."""
    a, b = config.domain.bounds
    edges = np.linspace(a, b, config.n_bins + 1)
    widths = np.diff(edges)
    t = config.horizon
    cp_steps = {int(round(c / config.dt)): c for c in config.checkpoints}
    if config.resample:
        per = config.n_paths // config.islands
        if per < 16:
            raise SimulationError("too few paths per island")
        jobs = [(isl, per, cp_steps) for isl in range(config.islands)]
    else:
        jobs = [(block, min(BLOCK, config.n_paths - start), cp_steps)
                for block, start in enumerate(range(0, config.n_paths, BLOCK))]
    finals, occupations, log_survs, cps = zip(*_run_blocks(config, jobs))
    cp_values = {k: [cp[k] for cp in cps] for k in cps[0]}
    final_positions = np.concatenate(finals)

    if config.resample:
        island_hist = np.array(occupations) / t / widths
        n = config.islands * per
        return PathEnsembleSummary(
            config=config, bin_edges=edges, histogram=island_hist.mean(axis=0),
            stderr=island_hist.std(axis=0, ddof=1) / np.sqrt(config.islands),
            survival_count=n, survival_fraction=float(np.exp(np.mean(log_survs))),
            effective_sample_size=float(n), final_positions=final_positions,
            checkpoint_survival={k: float(np.exp(np.mean(v))) for k, v in cp_values.items()},
            island_histograms=island_hist)

    # direct mode (kill without branching, or reflect)
    survivors = final_positions.size
    if survivors == 0:
        raise SimulationError(
            "no surviving paths at the horizon; infeasible without resampling "
            f"(expected survival ~ e^(-lambda_0 t), t={t})")
    visit_times = _visit_times(config)
    occ = [visit_times[counts] / t for counts in occupations]
    mean_occ = sum(o.sum(axis=0) for o in occ) / survivors
    var_occ = np.maximum(sum((o**2).sum(axis=0) for o in occ) / survivors - mean_occ**2, 0.0)
    return PathEnsembleSummary(
        config=config, bin_edges=edges, histogram=mean_occ / widths,
        stderr=np.sqrt(var_occ / survivors) / widths, survival_count=survivors,
        survival_fraction=survivors / config.n_paths,
        effective_sample_size=float(survivors), final_positions=final_positions,
        checkpoint_survival={k: sum(v) / config.n_paths for k, v in cp_values.items()},
        path_occupations=np.vstack(occ)[:60000])


def conditional_empirical_w2(summary: PathEnsembleSummary, reference: GridMeasure,
                             n_bootstrap: int = 200):
    """Quantile distance between the occupation histogram and a reference,
    less its noise floor, with path-level (or island-level) bootstrap errors.

    To first order, noise adds the floor int Var F(x)/rho(x) dx to W2^2
    (Peyre 2018): F is the pooled CDF, its variance estimated at the bin
    edges from the pool, and rho the reference density (0 where rho = 0).
    The distance is sqrt(max(W2^2 - floor, 0)), F the mean of all survivors
    (direct mode pools at most 60000); a bootstrap resample, debiased by its
    own pool-sized floor, gives a conservative SE when the pool is capped.
    A resample's W2^2 is the quadrature of its squared quantile gap on the
    4000-level grid of `w2_quantile_1d`, against the reference's quantiles
    inverted once for all resamples (no half-resolution error estimate).
    """
    cfg = summary.config
    if summary.effective_sample_size < 1000:
        raise SimulationError("need at least 1000 effective samples")
    base = w2_quantile_1d(summary.occupation_measure(), reference,
                          n_quantiles=EMPIRICAL_QUANTILES)
    rng = _rng_for(cfg.seed, 10**6)
    edges = summary.bin_edges
    widths = np.diff(edges)
    if summary.island_histograms is not None:       # densities per island
        pool, to_mass, n_hist = summary.island_histograms, widths, len(summary.island_histograms)
    elif summary.path_occupations is not None:      # occupation masses per path
        pool, to_mass, n_hist = summary.path_occupations, 1.0, summary.survival_count
    else:
        raise SimulationError("summary carries no resampling pool")
    cdfs = np.zeros((pool.shape[0], edges.size))
    np.cumsum(pool * to_mass, axis=1, out=cdfs[:, 1:])
    cdfs /= cdfs[:, -1:]
    rho = reference.pdf(edges)
    floor = _noise_floor(cdfs, edges, rho, n_hist)
    n = pool.shape[0]
    u, w = _quantile_grid(4000)
    q_ref = reference.quantile(u)
    vals = np.empty(n_bootstrap)
    for k in range(n_bootstrap):
        pick = (rng.random(n) * n).astype(int)
        gm = GridMeasure.from_histogram(edges, pool[pick].mean(axis=0) * to_mass)
        d = gm.quantile(u) - q_ref
        w2sq = float(np.dot(w, d * d))
        vals[k] = np.sqrt(max(w2sq - _noise_floor(cdfs[pick], edges, rho, n), 0.0))
    se = float(vals.std(ddof=1))
    result = TransportResult(w2=float(np.sqrt(max(base.w2_squared - floor, 0.0))),
                             method="quantile1d",
                             error_estimate=base.error_estimate + 3 * se,
                             details={"bootstrap_se": se,
                                      "bootstrap_mean": float(vals.mean()),
                                      "w2_raw": base.w2, "noise_floor": floor})
    return result, se


def _noise_floor(cdfs, edges, rho, n) -> float:
    """int Var(mean of n CDFs) / rho over the bin edges, Var from the rows of cdfs."""
    var = cdfs.var(axis=0, ddof=1) / n
    return float(np.trapezoid(np.divide(var, rho, out=np.zeros_like(var), where=rho > 0),
                              edges))
