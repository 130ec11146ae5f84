"""Experiment runner: convergence studies, sandwich reports, MC cross-checks.

Configurations are versioned JSON documents with a closed key set; every
emitted row carries its provenance (mode cutoff, tail bound, method tag,
seed).  Reports are deterministic given (config, seed).
"""

from __future__ import annotations

import csv
import json
import numbers
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .domains import DIRICHLET, NEUMANN, Domain
from .limits import LimitReport, compute_I, compute_I_neumann
from .measures import GridMeasure, InitialDistribution
from .mc import SimulationConfig, conditional_empirical_w2, simulate
from .semigroup import (ConditionalDensity, conditional_density,
                        mean_empirical_density, rho_tilde, survival_probability)
from .spectral import (SpectralBasis, analytic_eigenvalues, build_analytic_basis,
                       mu_coefficients, nu_l2_budget, project,
                       solve_sturm_liouville)
from .transport import (atomization_error, h_minus1_upper_bound,
                        kantorovich_dual_lower, w1_grid_1d, w2_entropic,
                        w2_exact_discrete, w2_quantile_1d)

__all__ = ["ConfigError", "ExperimentConfig", "ConvergenceReport",
           "run_convergence", "killed_row", "run_w2", "run_sandwich", "run_mc_crosscheck",
           "limit_report", "w2_by_method", "interval_basis",
           "spectral_measure", "mu0_measure", "resolve_nu"]

CONFIG_VERSION = "1"

_ALLOWED_KEYS = {
    "version", "domain", "nu", "times", "modes", "tol",
    "w2_method", "n_quantiles", "grid_nodes", "mc", "seed", "out",
}
_ALLOWED_MC_KEYS = {"dt", "n_paths", "islands", "resample", "n_bins", "horizon", "slope_times"}
_NU_FIELDS = {"mu": (), "mu0": (), "point": ("x",), "density_mu": ("values", "nodes")}
W2_METHODS = ("quantile1d", "exact-discrete", "entropic")
EXACT_ATOMS = 384      # atoms per side of the exact monotone-coupling route


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    domain: Domain
    nu_spec: dict
    times: list
    modes: int = 128
    tol: float = 1e-8
    w2_method: str = "quantile1d"
    n_quantiles: int = 100_000
    grid_nodes: int = 8193
    mc: dict = field(default_factory=dict)
    seed: int = 20240915
    out: str | None = None

    def __post_init__(self):
        # also runs on dataclasses.replace, which the CLI overrides go through
        if self.modes < 1:
            raise ConfigError(f"modes must be at least 1, got {self.modes}")
        if self.grid_nodes < 2:
            raise ConfigError(f"grid_nodes must be at least 2, got {self.grid_nodes}")
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ConfigError(f"tol must be finite and positive, got {self.tol}")
        # _quantile_grid floors smaller counts, and its comparison grid
        # stops being half the main one
        if self.n_quantiles < 4000:
            raise ConfigError(f"n_quantiles must be at least 4000, got {self.n_quantiles}")
        kind = self.nu_spec.get("kind", "mu") if isinstance(self.nu_spec, dict) else None
        if kind not in _NU_FIELDS:
            raise ConfigError(f"unknown nu kind {kind!r}; choose from {list(_NU_FIELDS)}")
        missing = [k for k in _NU_FIELDS[kind] if k not in self.nu_spec]
        if missing:
            raise ConfigError(f"nu of kind {kind!r} needs {missing}")
        _check_mc(self.mc)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        unknown = set(doc) - _ALLOWED_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if doc.get("version") != CONFIG_VERSION:
            raise ConfigError(f"unrecognized config version {doc.get('version')!r}; "
                              f"expected {CONFIG_VERSION!r}")
        if "domain" not in doc:
            raise ConfigError("config needs a domain")
        mc = doc.get("mc", {}) or {}
        unknown_mc = set(mc) - _ALLOWED_MC_KEYS
        if unknown_mc:
            raise ConfigError(f"unknown mc keys: {sorted(unknown_mc)}")
        times = [float(t) for t in doc.get("times", [2.0, 4.0, 8.0, 16.0])]
        if not times or min(times) <= 0:
            raise ConfigError(f"times must be a nonempty list of positive times, got {times}")
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ConfigError("time grid must be strictly increasing")
        w2_method = str(doc.get("w2_method", "quantile1d"))
        if w2_method not in W2_METHODS:
            raise ConfigError(f"unknown w2_method {w2_method!r}; choose from {list(W2_METHODS)}")
        return cls(
            domain=Domain.from_dict(doc["domain"]),
            nu_spec=doc.get("nu", {"kind": "mu"}),
            times=times,
            modes=int(doc.get("modes", 128)),
            tol=float(doc.get("tol", 1e-8)),
            w2_method=w2_method,
            n_quantiles=int(doc.get("n_quantiles", 100_000)),
            grid_nodes=int(doc.get("grid_nodes", 8193)),
            mc=mc,
            seed=int(doc.get("seed", 20240915)),
            out=doc.get("out"),
        )

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        if not os.path.exists(path):
            raise ConfigError(f"config file {path} does not exist")
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def build_basis(self) -> SpectralBasis:
        if self.domain.potential is None:
            return build_analytic_basis(self.domain, self.modes)
        return solve_sturm_liouville(self.domain, self.modes, max(8 * self.modes, 2000))


def _check_mc(mc: dict):
    """Reject MC values that would fail only mid-run, or run and mislead."""
    def real(v):
        return isinstance(v, numbers.Real) and not isinstance(v, bool)

    for key in ("dt", "horizon"):
        if key in mc and not (real(mc[key]) and np.isfinite(mc[key]) and mc[key] > 0):
            raise ConfigError(f"mc.{key} must be finite and positive, got {mc[key]!r}")
    # with one island every bootstrap resample is the same island
    for key, least in (("n_paths", 1), ("n_bins", 1), ("islands", 2)):
        v = mc.get(key)
        if key in mc and not (real(v) and float(v).is_integer() and v >= least):
            raise ConfigError(f"mc.{key} must be an integer of at least {least}, got {v!r}")
    ts = mc.get("slope_times")
    if "slope_times" in mc and not (
            isinstance(ts, (list, tuple)) and ts and all(real(t) for t in ts)
            and ts[0] > 0 and all(t2 > t1 for t1, t2 in zip(ts, ts[1:]))):
        raise ConfigError("mc.slope_times must be a nonempty list of positive, "
                          f"increasing times, got {ts!r}")


def resolve_nu(spec: dict, basis: SpectralBasis) -> InitialDistribution:
    kind = spec.get("kind", "mu")
    if kind == "mu":
        return InitialDistribution.from_mu()
    if kind == "mu0":
        phi0sq = basis.ground_state**2
        return InitialDistribution(kind="density_mu", density=phi0sq.copy(),
                                   nodes=basis.grid.copy(), name="mu0")
    if kind == "point":
        return InitialDistribution.from_point(spec["x"])
    if kind == "density_mu":
        return InitialDistribution(kind="density_mu",
                                   density=np.asarray(spec["values"], dtype=float),
                                   nodes=np.asarray(spec["nodes"], dtype=float),
                                   name=spec.get("name", "density"))
    raise ConfigError(f"unknown nu kind {kind!r}")


# ---------------------------------------------------------------------------
# spectral measures on a fine grid
# ---------------------------------------------------------------------------

def interval_basis(config: ExperimentConfig, command: str) -> SpectralBasis:
    """The basis for commands whose measures live on a 1D fine grid.

    Commands that evaluate the conditional density h_t also need the killed
    case; both are checked before the basis is built.
    """
    dom = config.domain
    if dom.kind != "interval":
        raise ConfigError(f"{command} needs an interval domain: its measures live on "
                          "a 1D grid (rectangles support basis, project and limit)")
    if command in ("sandwich", "w2", "density") and dom.boundary != DIRICHLET:
        raise ConfigError(f"{command} needs boundary 'dirichlet', got {dom.boundary!r}: "
                          "it evaluates the conditional density of the killed case "
                          "(reflecting configs support converge, mc, limit, basis "
                          "and project)")
    return config.build_basis()


def _fine_measure(basis: SpectralBasis, n_nodes: int, weight, name: str) -> GridMeasure:
    """Grid measure with Lebesgue density weight(x) * (density of mu) on a
    uniform grid of n_nodes points."""
    a, b = basis.domain.bounds[:2]
    x = np.linspace(a, b, n_nodes)
    return GridMeasure.normalized(x, weight(x) * basis.mu_lebesgue_at(x), name=name)


def _phi0(basis: SpectralBasis, x: np.ndarray) -> np.ndarray:
    return basis.eval_modes(x, modes=[0])[0]


def mu0_measure(basis: SpectralBasis, n_nodes: int = 8193) -> GridMeasure:
    """The limit measure phi_0^2 mu as a grid measure (Lebesgue density)."""
    return _fine_measure(basis, n_nodes, lambda x: np.maximum(_phi0(basis, x), 0.0) ** 2,
                         "mu0")


def spectral_measure(cd: ConditionalDensity, basis: SpectralBasis,
                     n_nodes: int = 8193) -> GridMeasure:
    """h_t mu_0 as a grid measure on a uniform fine grid."""
    return _fine_measure(
        basis, n_nodes, lambda x: np.maximum(cd.evaluate(x), 0.0) * _phi0(basis, x) ** 2,
        f"mu_t(t={cd.t:g})")


def mean_occupation_measure(nu_c, basis: SpectralBasis, t: float,
                            n_nodes: int = 8193) -> GridMeasure:
    """Reflecting-case time-averaged occupation as a grid measure."""
    return _occupation_measures(nu_c, basis, [t], n_nodes)[0]


def _occupation_measures(nu_c, basis: SpectralBasis, times, n_nodes: int) -> list:
    """`mean_occupation_measure` at each time, all from one table of the
    modes on the fine grid; the table is freed before the list returns."""
    phi = basis.eval_modes(np.linspace(*basis.domain.bounds[:2], n_nodes))
    return [_fine_measure(
        basis, n_nodes,
        lambda _: np.maximum(mean_empirical_density(nu_c, basis, t, phi), 0.0),
        f"mean_occ(t={t:g})") for t in times]


def w2_by_method(method: str, m1: GridMeasure, m2: GridMeasure,
                 n_quantiles: int):
    """W2 between two grid measures by the named route.  The exact route
    declares its atomization error on top of its certificate's own."""
    if method == "quantile1d":
        return w2_quantile_1d(m1, m2, n_quantiles=n_quantiles)
    if method == "exact-discrete":
        x1, a1 = m1.atomize(EXACT_ATOMS)
        x2, a2 = m2.atomize(EXACT_ATOMS)
        res = w2_exact_discrete(x1, a1, x2, a2)
        width = max(m1.support[1] - m1.support[0], m2.support[1] - m2.support[0]) / EXACT_ATOMS
        res.error_estimate += atomization_error(res.w2_squared, width)
        return res
    if method == "entropic":
        return w2_entropic(m1, m2)
    raise ConfigError(f"unknown w2 method {method!r}")


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------

@dataclass
class ConvergenceReport:
    rows: list
    limit: LimitReport
    gap_exponent: float
    gap_coefficient: float
    gap_monotone_tail: bool
    seed: int
    boundary: str

    def to_dict(self) -> dict:
        return {
            "schema": "condemp.convergence/1",
            "rows": self.rows,
            "I": self.limit.I_value,
            "I_tail_bound": self.limit.tail_bound,
            "gap_exponent": self.gap_exponent,
            "gap_coefficient": self.gap_coefficient,
            "gap_monotone_tail": self.gap_monotone_tail,
            "seed": self.seed,
            "boundary": self.boundary,
        }

    def save(self, out_dir, stem: str = "convergence"):
        _dump(self.to_dict(), out_dir, stem + ".json")
        cols = ["t", "w2", "t2w2sq", "I", "rel_gap", "upper", "lower",
                "method", "w2_error", "tail_bound", "modes", "seed"]
        with open(os.path.join(out_dir, stem + ".csv"), "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=cols)
            writer.writeheader()
            for row in self.rows:
                writer.writerow({k: row.get(k, "") for k in cols})


def limit_report(config: ExperimentConfig, basis: SpectralBasis) -> LimitReport:
    """The limit constant I of a config with its tail bound.

    Killed case: the eigenseries with the nu L2 budget where nu has a density.
    Reflecting case: a point start on an interval without potential uses its
    closed-form coefficients up to max(modes, 2000); any other start uses the
    projection onto the basis.
    """
    nu = resolve_nu(config.nu_spec, basis)
    dom = config.domain
    if dom.boundary == DIRICHLET:
        return compute_I(project(nu, basis), mu_coefficients(basis), basis.eigenvalues,
                         tol=config.tol, d=dom.dim, nu_l2_bound=nu_l2_budget(nu, basis))
    tol = max(config.tol, 1e-9)
    if nu.kind == "point" and dom.potential is None and dom.kind == "interval":
        M_I = max(config.modes, 2000)
        a, b = dom.bounds
        u = (float(config.nu_spec["x"]) - a) / (b - a)
        nu_c = np.sqrt(2.0) * np.cos(np.arange(M_I) * np.pi * u)
        nu_c[0] = 1.0
        return compute_I_neumann(nu_c, analytic_eigenvalues(dom, M_I), tol=tol)
    return compute_I_neumann(project(nu, basis), basis.eigenvalues, tol=tol)


def run_convergence(config: ExperimentConfig) -> ConvergenceReport:
    """t^2 W2(mu_t, limit)^2 against the eigenseries constant, per time.
    Killed rows also carry their certified sandwich (`killed_row`)."""
    basis = interval_basis(config, "converge")
    boundary = basis.domain.boundary
    limit = limit_report(config, basis)
    if boundary == NEUMANN:
        occupations = _occupation_measures(project(resolve_nu(config.nu_spec, basis), basis),
                                           basis, config.times, config.grid_nodes)
    reference = mu0_measure(basis, config.grid_nodes)   # Neumann: phi_0 = 1, this is mu
    rows = []
    for k, t in enumerate(config.times):
        if boundary == NEUMANN:
            res = w2_by_method(config.w2_method, occupations[k], reference, config.n_quantiles)
            kr = {"w2": res.w2, "w2sq": res.w2_squared, "w2_error": res.error_estimate,
                  "tail_bound": limit.tail_bound}
        else:
            kr = killed_row(config, basis, t, reference)
        t2w2 = t * t * kr["w2sq"]
        rows.append({
            "t": t, "w2": kr["w2"], "t2w2sq": t2w2, "I": limit.I_value,
            "rel_gap": t2w2 / limit.I_value - 1.0 if limit.I_value else np.nan,
            "method": config.w2_method, "w2_error": kr["w2_error"],
            "tail_bound": kr["tail_bound"], "modes": basis.M, "seed": config.seed,
            **{key: kr[key] for key in ("lower", "upper", "ordered") if key in kr},  # killed
        })

    gaps = np.array([abs(r["rel_gap"]) for r in rows])
    ts = np.array([r["t"] for r in rows])
    ok = gaps > 0
    if ok.sum() >= 2:
        slope, logc = np.polyfit(np.log(ts[ok]), np.log(gaps[ok]), 1)
        exponent = -float(slope)
        coeff = float(np.exp(logc))
    else:
        exponent, coeff = np.nan, 0.0
    tail3 = gaps[-3:] if gaps.size >= 3 else gaps
    monotone = bool(np.all(np.diff(tail3) <= 1e-12))
    report = ConvergenceReport(rows=rows, limit=limit, gap_exponent=exponent,
                               gap_coefficient=coeff, gap_monotone_tail=monotone,
                               seed=config.seed, boundary=boundary)
    if config.out:
        report.save(config.out)
    return report


# ---------------------------------------------------------------------------
# the killed row: W2 at one t with its certified sandwich
# ---------------------------------------------------------------------------

def killed_row(config: ExperimentConfig, basis: SpectralBasis, t: float,
               reference: GridMeasure) -> dict:
    """W2(h_t mu_0, mu_0) by the config's route, with a certified lower bound
    (Kantorovich dual, potential from the leading 1/t fluctuation) and the
    weighted-H^-1 upper bound; `reference` is `mu0_measure` of the basis.
    `ordered` states lower <= W2^2 <= upper within the declared errors."""
    nu = resolve_nu(config.nu_spec, basis)
    cd = conditional_density(nu, basis, t)
    mt = spectral_measure(cd, basis, config.grid_nodes)
    res = w2_by_method(config.w2_method, mt, reference, config.n_quantiles)
    upper = h_minus1_upper_bound(cd.grid_values, basis)

    rt = rho_tilde(project(nu, basis), mu_coefficients(basis), basis, t)
    f_coeffs = np.zeros(basis.M)
    f_coeffs[1:] = rt.coeffs[1:] / basis.gaps[1:]
    xs = np.linspace(*basis.domain.bounds[:2], 4097)
    lower = kantorovich_dual_lower(mt, reference, f_coeffs @ basis.eval_ratio(xs), f_nodes=xs)

    tol = res.error_estimate + 1e-14 + abs(upper["coefficient_tail"])
    ordered = (lower["lower_bound"] <= res.w2_squared + tol
               and res.w2_squared <= upper["upper_bound"] + tol)
    return {"t": t, "lower": lower["lower_bound"], "w2sq": res.w2_squared,
            "upper": upper["upper_bound"], "w2": res.w2, "w2_error": res.error_estimate,
            "lower_slack": lower["conjugation_slack"], "upper_strip": upper["boundary_strip"],
            "excluded_nodes": upper["excluded_nodes"], "ordered": bool(ordered),
            "modes": basis.M, "tail_bound": cd.truncation.tail_estimate, "seed": config.seed}


def run_w2(config: ExperimentConfig, t: float) -> dict:
    """`killed_row` at one t against the config's own basis and mu_0."""
    basis = interval_basis(config, "w2")
    return killed_row(config, basis, t, mu0_measure(basis, config.grid_nodes))


def run_sandwich(config: ExperimentConfig, t: float) -> dict:
    """The quantile-route killed row at one t; raises unless it is ordered."""
    basis = interval_basis(config, "sandwich")
    row = killed_row(replace(config, w2_method="quantile1d"), basis, t,
                     mu0_measure(basis, config.grid_nodes))
    if not row["ordered"]:
        raise RuntimeError(f"sandwich ordering violated beyond tolerances: {row}")
    if config.out:
        _dump(row, config.out, f"sandwich_t{t:g}.json")
    return row


# ---------------------------------------------------------------------------
# MC cross-check
# ---------------------------------------------------------------------------

def run_mc_crosscheck(config: ExperimentConfig) -> dict:
    """Spectral-vs-MC comparison: survival decay, occupation, two limits."""
    basis = interval_basis(config, "mc")
    nu = resolve_nu(config.nu_spec, basis)
    mc_cfg = dict(config.mc)
    dt = float(mc_cfg.get("dt", 1e-3))
    n_paths = int(mc_cfg.get("n_paths", 100_000))
    n_bins = int(mc_cfg.get("n_bins", 256))
    islands = int(mc_cfg.get("islands", 24))
    horizon = float(mc_cfg.get("horizon", config.times[0]))
    out: dict = {"seed": config.seed, "dt": dt, "n_paths": n_paths,
                 "horizon": horizon}

    if basis.domain.boundary == NEUMANN:
        sim = simulate(SimulationConfig(
            domain=config.domain, dt=dt, horizon=horizon, n_paths=n_paths,
            seed=config.seed, initial=nu, boundary_rule="reflect",
            n_bins=n_bins))
        nu_c = project(nu, basis)
        ref = mean_occupation_measure(nu_c, basis, horizon, config.grid_nodes)
        occ = sim.occupation_measure()
        out["w1_occupation"] = w1_grid_1d(occ, ref)
        out["histogram_max_se"] = float(np.max(sim.stderr))
        if config.out:
            _dump(out, config.out, "mc_crosscheck.json")
        return out

    # killed case: survival slope on a feasible window
    slope_times = tuple(mc_cfg.get("slope_times", (0.2, 0.4, 0.6, 0.8)))
    slope_sim = simulate(SimulationConfig(
        domain=config.domain, dt=dt, horizon=max(slope_times),
        n_paths=n_paths, seed=config.seed, initial=nu,
        boundary_rule="kill", n_bins=n_bins, checkpoints=slope_times))
    counts = np.array([slope_sim.checkpoint_survival[t] * n_paths
                       for t in slope_times])
    ts = np.array(slope_times)
    good = counts > 0
    wls = np.polyfit(ts[good], np.log(counts[good]), 1, w=np.sqrt(counts[good]))
    out["survival_slope"] = float(wls[0])
    out["lambda0"] = float(basis.eigenvalues[0])
    out["slope_rel_err"] = abs(wls[0] + basis.eigenvalues[0]) / basis.eigenvalues[0]

    # occupation at the requested horizon; branch if direct killing is hopeless
    mu_c = mu_coefficients(basis)
    nu_c = project(nu, basis)
    expected = survival_probability(nu_c, mu_c, basis.eigenvalues, horizon)
    resample = bool(mc_cfg.get("resample", expected * n_paths < 1000))
    occ_sim = simulate(SimulationConfig(
        domain=config.domain, dt=dt, horizon=horizon, n_paths=n_paths,
        seed=config.seed + 1, initial=nu, boundary_rule="kill",
        resample=resample, n_bins=n_bins, islands=islands))
    out["resample"] = resample
    out["expected_survival"] = float(expected)

    cd = conditional_density(nu, basis, horizon)
    ref = spectral_measure(cd, basis, config.grid_nodes)
    occ = occ_sim.occupation_measure()
    out["w1_occupation"] = w1_grid_1d(occ, ref)
    res, se = conditional_empirical_w2(occ_sim, ref)
    out["w2_occupation"] = res.w2
    out["w2_bootstrap_se"] = se
    out["w2_occupation_raw"] = res.details["w2_raw"]
    out["w2_noise_floor"] = res.details["noise_floor"]

    # two distinct conditioned limits on the same ensemble
    quasi_ergodic = _fine_measure(basis, config.grid_nodes,
                                  lambda x: np.maximum(_phi0(basis, x), 0.0),
                                  "phi0*mu/mu(phi0)")
    final = occ_sim.final_measure()
    out["w1_final_vs_quasi_ergodic"] = w1_grid_1d(final, quasi_ergodic)
    out["w1_final_vs_mu0"] = w1_grid_1d(final, mu0_measure(basis, config.grid_nodes))
    out["w1_occupation_vs_quasi_ergodic"] = w1_grid_1d(occ, quasi_ergodic)
    if config.out:
        _dump(out, config.out, "mc_crosscheck.json")
    return out


def _dump(doc: dict, out_dir: str, name: str):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(doc, fh, indent=1)
