"""Monte Carlo ground truth for killed and reflecting interval diffusions.

Paths follow dX = V'(X) dt + sqrt(2) dB (generator Delta + V' d/dx) by
Euler-Maruyama.  Killing applies the Brownian-bridge crossing correction
exp(-d1 d2 / dt) per face, matching quadratic variation 2 dt.  Random
numbers come from counter-based Philox streams keyed by (seed, block), with
fixed block size and inverse-CDF normals, so ensembles are bitwise
reproducible and independent of how blocks are scheduled.

Deep horizons are unreachable by direct killing (survival decays like
e^{-lambda_0 t}), so the simulator also offers a resampling mode: killed
particles branch from a surviving one and inherit its occupation record.
The mean over final particles of the inherited occupation estimates the
conditional time-averaged occupation; island replication gives honest
standard errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .domains import DIRICHLET, Domain
from .measures import GridMeasure, InitialDistribution
from .transport import TransportResult, w2_quantile_1d

__all__ = ["SimulationError", "SimulationConfig", "PathEnsembleSummary",
           "simulate", "conditional_empirical_w2"]

BLOCK = 16384      # fixed stream-block size; never tied to worker count
EMPIRICAL_QUANTILES = 20000   # quantile nodes of the conditional empirical W2


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
            spline = self.domain.potential.spline()
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
    dens = dist.density_on(grid)
    if dist.kind == "density_mu":
        dens = dens * np.exp(domain.potential_values(grid))
    return GridMeasure.normalized(grid, dens).quantile(rng.random(n))


def _reflect(x: np.ndarray, a: float, b: float) -> np.ndarray:
    L = b - a
    z = np.mod(x - a, 2.0 * L)
    return a + np.minimum(z, 2.0 * L - z)


def _bin_index(x: np.ndarray, a: float, b: float, n_bins: int) -> np.ndarray:
    idx = ((x - a) / (b - a) * n_bins).astype(np.int64)
    return np.clip(idx, 0, n_bins - 1)


def _propose(cfg: SimulationConfig, rng, x: np.ndarray) -> np.ndarray:
    """One Euler-Maruyama step from x; draws one uniform per path."""
    z = ndtri(rng.random(x.size))
    drift = 0.0 if cfg.drift is None else np.asarray(cfg.drift(x), dtype=float)
    return x + drift * cfg.dt + np.sqrt(2.0 * cfg.dt) * z


def _survives(rng, x: np.ndarray, xn: np.ndarray, a: float, b: float,
              dt: float) -> np.ndarray:
    """The step x -> xn ends inside and its Brownian bridge crossed neither
    face (crossing probability exp(-d1 d2 / dt) per face); draws two
    uniforms per path."""
    u0 = rng.random(x.size)
    u1 = rng.random(x.size)
    inside = (xn > a) & (xn < b)
    with np.errstate(over="ignore"):
        p0 = np.exp(-np.maximum(x - a, 0.0) * np.maximum(xn - a, 0.0) / dt)
        p1 = np.exp(-np.maximum(b - x, 0.0) * np.maximum(b - xn, 0.0) / dt)
    return inside & (u0 > p0) & (u1 > p1)


def _occupy(occ: np.ndarray, rows: np.ndarray, x: np.ndarray, xn: np.ndarray,
            a: float, b: float, dt: float):
    """Trapezoidal occupation of the step: dt/2 in the bins of both ends."""
    n_bins = occ.shape[1]
    np.add.at(occ, (rows, _bin_index(x, a, b, n_bins)), 0.5 * dt)
    np.add.at(occ, (rows, _bin_index(xn, a, b, n_bins)), 0.5 * dt)


def _run_block_direct(cfg: SimulationConfig, block: int, n: int, cp_steps: dict):
    """One stream block of killed or reflecting paths, no resampling."""
    a, b = cfg.domain.bounds
    rng = _rng_for(cfg.seed, block)
    x = _sample_initial(cfg.initial, cfg.domain, rng, n)
    kill = cfg.boundary_rule == "kill"
    alive = np.ones(n, dtype=bool)
    occ = np.zeros((n, cfg.n_bins))
    cp_counts = {}
    rows = np.arange(n)
    for s in range(1, cfg.n_steps() + 1):
        xn = _propose(cfg, rng, x)
        if kill:
            alive &= _survives(rng, x, xn, a, b, cfg.dt)
            xn = np.where(alive, np.clip(xn, a, b), x)
        else:
            xn = _reflect(xn, a, b)
        _occupy(occ, rows, x, xn, a, b, cfg.dt)
        x = xn
        if s in cp_steps:
            cp_counts[cp_steps[s]] = int(alive.sum())
    return x, alive, occ, cp_counts


def _run_block_resampled(cfg: SimulationConfig, block: int, n: int, cp_steps: dict):
    """One branching population: killed particles clone a survivor's state
    and occupation record, so final records sample the conditioned paths."""
    a, b = cfg.domain.bounds
    rng = _rng_for(cfg.seed, block)
    x = _sample_initial(cfg.initial, cfg.domain, rng, n)
    occ = np.zeros((n, cfg.n_bins))
    log_surv = 0.0
    cp_logs = {}
    rows = np.arange(n)
    for s in range(1, cfg.n_steps() + 1):
        xn = _propose(cfg, rng, x)
        killed = ~_survives(rng, x, xn, a, b, cfg.dt)
        nk = int(killed.sum())
        if nk == n:
            raise SimulationError("entire population killed in one step; shrink dt")
        xold = x
        if nk:
            survivors = np.flatnonzero(~killed)
            donors = survivors[(rng.random(nk) * survivors.size).astype(np.int64)]
            xold = x.copy()
            xold[killed] = x[donors]
            xn[killed] = np.clip(_propose(cfg, rng, x[donors]), a + 1e-12, b - 1e-12)
            occ[killed] = occ[donors]
        log_surv += np.log1p(-nk / n)
        _occupy(occ, rows, xold, xn, a, b, cfg.dt)
        x = xn
        if s in cp_steps:
            cp_logs[cp_steps[s]] = log_surv
    return x, occ, log_surv, cp_logs


def simulate(config: SimulationConfig) -> PathEnsembleSummary:
    a, b = config.domain.bounds
    edges = np.linspace(a, b, config.n_bins + 1)
    widths = np.diff(edges)
    t = config.horizon
    cp_steps = {int(round(c / config.dt)): c for c in config.checkpoints}

    if config.resample:
        n_isl = config.islands
        per = config.n_paths // n_isl
        if per < 16:
            raise SimulationError("too few paths per island")
        island_hist = np.empty((n_isl, config.n_bins))
        finals = []
        log_survs = []
        cp_acc: dict = {}
        for isl in range(n_isl):
            xf, occ, ls, cps = _run_block_resampled(config, isl, per, cp_steps)
            island_hist[isl] = occ.mean(axis=0) / t / widths
            finals.append(xf)
            log_survs.append(ls)
            for k, v in cps.items():
                cp_acc.setdefault(k, []).append(v)
        hist = island_hist.mean(axis=0)
        se = island_hist.std(axis=0, ddof=1) / np.sqrt(n_isl)
        surv_frac = float(np.exp(np.mean(log_survs)))
        cp = {k: float(np.exp(np.mean(v))) for k, v in cp_acc.items()}
        return PathEnsembleSummary(
            config=config, bin_edges=edges, histogram=hist, stderr=se,
            survival_count=n_isl * per, survival_fraction=surv_frac,
            effective_sample_size=float(n_isl * per),
            final_positions=np.concatenate(finals),
            checkpoint_survival=cp, island_histograms=island_hist)

    # direct mode (kill without branching, or reflect)
    total_occ = np.zeros(config.n_bins)
    total_sq = np.zeros(config.n_bins)
    survivors = 0
    finals = []
    surv_occ = []
    cp_counts: dict = {}
    remaining = config.n_paths
    block = 0
    while remaining > 0:
        n = min(BLOCK, remaining)
        xf, alive, occ, cps = _run_block_direct(config, block, n, cp_steps)
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

    if survivors == 0:
        raise SimulationError(
            "no surviving paths at the horizon; infeasible without resampling "
            f"(expected survival ~ e^(-lambda_0 t), t={t})")
    mean_occ = total_occ / survivors
    var_occ = np.maximum(total_sq / survivors - mean_occ**2, 0.0)
    hist = mean_occ / widths
    se = np.sqrt(var_occ / survivors) / widths
    path_occ = np.vstack(surv_occ) if surv_occ else None
    if path_occ is not None and path_occ.shape[0] > 60000:
        path_occ = path_occ[:60000]
    return PathEnsembleSummary(
        config=config, bin_edges=edges, histogram=hist, stderr=se,
        survival_count=survivors,
        survival_fraction=survivors / config.n_paths,
        effective_sample_size=float(survivors),
        final_positions=np.concatenate(finals) if finals else np.empty(0),
        checkpoint_survival={k: v / config.n_paths for k, v in cp_counts.items()},
        path_occupations=path_occ)


def conditional_empirical_w2(summary: PathEnsembleSummary, reference: GridMeasure,
                             n_bootstrap: int = 200):
    """Quantile distance between the occupation histogram and a reference,
    with path-level (or island-level) bootstrap error bars."""
    cfg = summary.config
    if summary.effective_sample_size < 1000:
        raise SimulationError("need at least 1000 effective samples")
    base = w2_quantile_1d(summary.occupation_measure(), reference,
                          n_quantiles=EMPIRICAL_QUANTILES)
    rng = _rng_for(cfg.seed, 10**6)
    edges = summary.bin_edges
    widths = np.diff(edges)
    if summary.island_histograms is not None:
        pool, to_mass = summary.island_histograms, widths     # densities per island
    elif summary.path_occupations is not None:
        pool, to_mass = summary.path_occupations, 1.0         # occupation masses per path
    else:
        raise SimulationError("summary carries no resampling pool")
    n = pool.shape[0]
    vals = np.empty(n_bootstrap)
    for k in range(n_bootstrap):
        pick = (rng.random(n) * n).astype(int)
        gm = GridMeasure.from_histogram(edges, pool[pick].mean(axis=0) * to_mass)
        vals[k] = w2_quantile_1d(gm, reference, n_quantiles=4000).w2
    se = float(vals.std(ddof=1))
    result = TransportResult(w2=base.w2, method="quantile1d",
                             error_estimate=base.error_estimate + 3 * se,
                             w2_squared=base.w2_squared,
                             details={"bootstrap_se": se,
                                      "bootstrap_mean": float(vals.mean())})
    return result, se
