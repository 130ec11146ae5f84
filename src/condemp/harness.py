"""Experiment runner: convergence studies, sandwich reports, MC cross-checks.

Configurations are versioned JSON documents with a closed key set; every
emitted row carries its provenance (mode cutoff, tail bound, method tag,
seed).  Reports are deterministic given (config, seed).
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.interpolate import PchipInterpolator

from .domains import DIRICHLET, NEUMANN, Domain, DomainError, finite_real
from .limits import LimitReport, compute_I, compute_I_neumann
from .measures import GridMeasure, InitialDistribution
from .mc import SimulationConfig, conditional_empirical_w2, simulate
from .semigroup import (ConditionalDensity, conditional_density, mean_empirical_density,
                        mean_occupation_coefficients, survival_probability)
from .semigroup import rho_tilde  # noqa: F401  (perfbench/spans.py times this name)
from .spectral import (ProjectionError, SpectralBasis, build_analytic_basis, mu_coefficients,
                       mu_rule, nu_l2_budget, project, solve_sturm_liouville,
                       validate_density)
from .transport import (TransportError, atomization_error, h_minus1_upper_bound,
                        kantorovich_dual_lower, w1_grid_1d, w2_displacement_1d,
                        w2_entropic, w2_exact_discrete)
from .transport import w2_quantile_1d  # noqa: F401  (perfbench/spans.py times this name)

__all__ = ["ConfigError", "ExperimentConfig", "ConvergenceReport",
           "run_convergence", "killed_rows", "run_w2", "run_sandwich", "run_mc_crosscheck",
           "limit_report", "w2_by_method", "spectral_w2", "interval_basis",
           "spectral_measure", "mu0_measure", "resolve_nu"]

CONFIG_VERSION = "1"

_ALLOWED_KEYS = {
    "version", "domain", "nu", "times", "modes", "tol",
    "w2_method", "n_quantiles", "grid_nodes", "mc", "seed", "out",
}   # n_quantiles is accepted and ignored: no row inverts quantile levels
_ALLOWED_MC_KEYS = {"dt", "n_paths", "islands", "resample", "n_bins", "horizon", "slope_times"}
_DOMAIN_KEYS = {"kind", "bounds", "boundary", "potential"}
_NU_FIELDS = {"mu": (), "mu0": (), "point": ("x",), "density_mu": ("values", "nodes")}
W2_METHODS = ("quantile1d", "exact-discrete", "entropic")
EXACT_ATOMS = 384      # atoms per side of the exact monotone-coupling route
POTENTIAL_NODES = 4097  # nodes of the dual lower bound's potential in the killed rows


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
    grid_nodes: int = 8193
    mc: dict = field(default_factory=dict)
    seed: int = 20240915
    out: str | None = None

    def __post_init__(self):
        # also runs on dataclasses.replace, which the CLI overrides go through
        for key in ("modes", "grid_nodes", "seed"):
            v = getattr(self, key)
            if not _integer(v):
                raise ConfigError(f"{key} must be an integer, got {v!r}")
            setattr(self, key, int(v))
        # the MC streams key Philox with [seed, block] and seed + 1: numpy
        # reads a key list holding an int of 2^63 or more as float64
        if not 0 <= self.seed < 2**63:
            raise ConfigError(f"seed must be in [0, 2^63), got {self.seed}")
        if not (finite_real(self.tol) and self.tol > 0):
            raise ConfigError(f"tol must be a finite positive number, got {self.tol!r}")
        self.tol = float(self.tol)
        if self.w2_method not in W2_METHODS:
            raise ConfigError(f"unknown w2_method {self.w2_method!r}; "
                              f"choose from {list(W2_METHODS)}")
        if self.modes < 1:
            raise ConfigError(f"modes must be at least 1, got {self.modes}")
        if self.grid_nodes < 2:
            raise ConfigError(f"grid_nodes must be at least 2, got {self.grid_nodes}")
        if not _increasing_times(self.times):
            raise ConfigError("times must be a nonempty list of positive times (finite real "
                              f"numbers, strictly increasing), got {self.times!r}")
        self.times = [float(t) for t in self.times]
        _check_nu(self.nu_spec, self.domain, self.modes)
        _check_mc(self.mc)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        _closed(doc, _ALLOWED_KEYS, "config")
        if doc.get("version") != CONFIG_VERSION:
            raise ConfigError(f"unrecognized config version {doc.get('version')!r}; "
                              f"expected {CONFIG_VERSION!r}")
        if "domain" not in doc:
            raise ConfigError("config needs a domain")
        mc = doc.get("mc", {}) or {}
        _closed(mc, _ALLOWED_MC_KEYS, "mc")
        # a misspelt key would otherwise fall back to its default (V = 0 for the potential)
        _closed(doc["domain"], _DOMAIN_KEYS, "domain")
        if doc["domain"].get("potential") is not None:
            _closed(doc["domain"]["potential"], {"nodes", "values"}, "domain.potential")
        present = {key: doc[key] for key in
                   ("modes", "tol", "w2_method", "grid_nodes", "seed", "out")
                   if key in doc}
        try:
            domain = Domain.from_dict(doc["domain"])
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
        return cls(domain=domain, nu_spec=doc.get("nu", {"kind": "mu"}),
                   times=doc.get("times", [2.0, 4.0, 8.0, 16.0]), mc=mc, **present)

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


def _integer(v) -> bool:
    return finite_real(v) and float(v).is_integer()


def _finite_numbers(v) -> bool:
    return isinstance(v, (list, tuple)) and all(finite_real(x) for x in v)


def _increasing_times(v) -> bool:
    """A nonempty list of finite, positive, strictly increasing real numbers."""
    return (_finite_numbers(v) and len(v) > 0 and v[0] > 0
            and all(t2 > t1 for t1, t2 in zip(v, v[1:])))


def _closed(doc, allowed: set, what: str):
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be an object, got {doc!r}")
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")


def _check_nu(spec, domain: Domain, modes: int):
    """Reject starts that would fail only mid-run, or run on an extrapolated
    density: rectangles take mu, mu0 and point; a tabulated density is
    interpolated on nodes that cover the interval, and has mass 1 on the
    rule of the basis of `modes` modes."""
    kind = spec.get("kind", "mu") if isinstance(spec, dict) else None
    if kind not in _NU_FIELDS:
        raise ConfigError(f"unknown nu kind {kind!r}; choose from {list(_NU_FIELDS)}")
    _closed(spec, {"kind", "name", *_NU_FIELDS[kind]}, "nu")
    missing = [k for k in _NU_FIELDS[kind] if k not in spec]
    if missing:
        raise ConfigError(f"nu of kind {kind!r} needs {missing}")
    if kind == "point":
        x = spec["x"] if isinstance(spec["x"], (list, tuple)) else [spec["x"]]
        if not (_finite_numbers(x) and len(x) == domain.dim):
            raise ConfigError(f"nu.x must hold {domain.dim} finite number(s), one per "
                              f"axis of the {domain.kind}, got {spec['x']!r}")
        # a killed start on the boundary is dead at once; a reflecting one may sit on a face
        if domain.boundary == DIRICHLET and not domain.contains_interior(x):
            raise ConfigError(f"nu.x must lie strictly inside the killed domain, "
                              f"axes {domain.axes}, got {spec['x']!r}")
        if not all(lo <= v <= hi for v, (lo, hi) in zip(x, domain.axes)):
            raise ConfigError(f"nu.x must lie in the reflecting domain, axes "
                              f"{domain.axes}, got {spec['x']!r}")
    if kind != "density_mu":
        return
    if domain.kind != "interval":
        raise ConfigError("nu.kind 'density_mu' needs an interval domain (its table "
                          "is interpolated in 1D); rectangles take mu, mu0 and point")
    nodes, values = spec["nodes"], spec["values"]
    if not (_finite_numbers(nodes) and _finite_numbers(values)
            and len(nodes) == len(values) >= 2):
        raise ConfigError("nu.nodes and nu.values must be lists of finite numbers "
                          "of one length, at least 2")
    # validate_density's threshold; PCHIP does not undershoot its data
    if min(values) < -1e-12:
        raise ConfigError(f"nu.values must be nonnegative (a density against mu), "
                          f"got {min(values)!r}")
    a, b = domain.bounds
    if any(n2 <= n1 for n1, n2 in zip(nodes, nodes[1:])) or nodes[0] > a or nodes[-1] < b:
        raise ConfigError(f"nu.nodes must be strictly increasing and cover [{a:g}, {b:g}]")
    # PCHIP starts from the secant slopes: an infinite one stops it
    with np.errstate(over="ignore"):
        slopes = np.diff(values) / np.diff(nodes)
    if not np.all(np.isfinite(slopes)):
        i = int(np.argmin(np.isfinite(slopes)))
        raise ConfigError(f"nu.nodes {nodes[i]!r} and {nodes[i + 1]!r} are too close for "
                          f"their values {values[i]!r} and {values[i + 1]!r}: the secant "
                          "slope between them overflows")
    # the test `project` applies, on the rule the basis will use
    x, w, _ = mu_rule(domain, modes)
    h = PchipInterpolator(nodes, values)(x)
    try:
        validate_density(h, w)
    except ProjectionError as exc:
        raise ConfigError(f"nu.values must have mass 1 against mu (within 1e-8), got "
                          f"{float(np.dot(h, w)):.12g} on the {x.size}-node Gauss rule "
                          f"of the basis for modes {modes}") from exc


def _check_mc(mc: dict):
    """Reject MC values that would fail only mid-run, or run and mislead."""
    for key in ("dt", "horizon"):
        if key in mc and not (finite_real(mc[key]) and mc[key] > 0):
            raise ConfigError(f"mc.{key} must be finite and positive, got {mc[key]!r}")
    # with one island every bootstrap resample is the same island
    for key, least in (("n_paths", 1), ("n_bins", 1), ("islands", 2)):
        v = mc.get(key)
        if key in mc and not (_integer(v) and v >= least):
            raise ConfigError(f"mc.{key} must be an integer of at least {least}, got {v!r}")
    if "resample" in mc and not isinstance(mc["resample"], bool):
        raise ConfigError(f"mc.resample must be true or false, got {mc['resample']!r}")
    if "slope_times" in mc and not _increasing_times(mc["slope_times"]):
        raise ConfigError("mc.slope_times must be a nonempty list of positive, finite, "
                          f"increasing times, got {mc['slope_times']!r}")


def resolve_nu(spec: dict, basis: SpectralBasis) -> InitialDistribution:
    kind = spec.get("kind", "mu")
    if kind == "mu":
        return InitialDistribution.from_mu()
    if kind == "mu0":
        return InitialDistribution.from_density_mu(
            lambda x: _phi0(basis, x) ** 2, name="mu0")
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
    """h_t mu_0 as a grid measure on a uniform fine grid.  Its density
    against mu is h_t phi_0^2 = sum_mn C_mn phi_m phi_n / (t Z), with C the
    bilinear block of h_t and Z its normalization, clipped at 0."""
    S = basis.grid_series(cd.bilinear, n_nodes)
    return _fine_measure(basis, n_nodes,
                         lambda _: np.maximum(S / (cd.t * cd.normalization), 0.0),
                         f"mu_t(t={cd.t:g})")


def mean_occupation_measure(nu_c, basis: SpectralBasis, t: float,
                            n_nodes: int = 8193) -> GridMeasure:
    """Reflecting-case time-averaged occupation as a grid measure."""
    density = mean_empirical_density(nu_c, basis, t, n_nodes=n_nodes)
    return _fine_measure(basis, n_nodes, lambda _: np.maximum(density, 0.0), f"mean_occ(t={t:g})")


def w2_by_method(method: str, m1: GridMeasure, m2: GridMeasure):
    """W2 between two grid measures by the named grid route, exact-discrete
    or entropic (`quantile1d` rows take `spectral_w2`).  The exact route
    declares its atomization error on top of its certificate's own."""
    if method == "exact-discrete":
        x1, a1 = m1.atomize(EXACT_ATOMS)
        x2, a2 = m2.atomize(EXACT_ATOMS)
        res = w2_exact_discrete(x1, a1, x2, a2)
        width = max(m1.support[1] - m1.support[0], m2.support[1] - m2.support[0]) / EXACT_ATOMS
        res.error_estimate += atomization_error(res.w2_squared, width)
        return res
    if method == "entropic":
        return w2_entropic(m1, m2)
    raise ConfigError(f"no grid route named {method!r}")


def spectral_w2(basis: SpectralBasis, fluctuation: np.ndarray):
    """W2(mu_0 + f mu, mu_0) for the fluctuation f = sum_mn B_mn phi_m phi_n
    of a block B, or sum_m c_m phi_m of a vector c (not on closed-form
    Dirichlet modes), by the monotone coupling in displacement form
    (`SpectralBasis.transport_equation`): no grid measure and no quantile
    levels.  Closed-form modes carry cosine phases up to 2 M (a block) or M
    (a vector); numeric modes are splines, and the rule takes one phase per
    knot of the basis grid."""
    phases = fluctuation.ndim * basis.M if basis.analytic else basis.grid.size
    return w2_displacement_1d(basis.transport_equation(fluctuation), basis.domain.bounds,
                              phases)


def _fluctuation_block(cd: ConditionalDensity) -> np.ndarray:
    """h_t phi_0^2 - phi_0^2 against mu as a block: the bilinear block over
    t Z, its (0, 0) entry set so the trace, the fluctuation's mass, is 0.
    That entry is C_00/(tZ) - 1 = -sum_{m>=1} C_mm/(tZ), here without the
    O(1) cancellation."""
    B = cd.bilinear / (cd.t * cd.normalization)
    B[0, 0] = -np.trace(B[1:, 1:])
    return B


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

    def save(self, out_dir):
        _dump(self.to_dict(), out_dir, "convergence.json")
        cols = ["t", "w2", "t2w2sq", "I", "rel_gap", "upper", "lower",
                "method", "w2_error", "tail_bound", "modes", "seed"]
        with open(os.path.join(out_dir, "convergence.csv"), "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=cols)
            writer.writeheader()
            for row in self.rows:
                writer.writerow({k: row.get(k, "") for k in cols})


def limit_report(config: ExperimentConfig, basis: SpectralBasis) -> LimitReport:
    """The limit constant I of a config with its tail bound.

    Both cases sum over the basis' modes against the config's tol; the
    killed case bounds its tail with the nu L2 budget where nu has a density.
    """
    nu = resolve_nu(config.nu_spec, basis)
    dom = config.domain
    if dom.boundary == DIRICHLET:
        return compute_I(project(nu, basis), mu_coefficients(basis), basis.eigenvalues,
                         tol=config.tol, d=dom.dim, nu_l2_bound=nu_l2_budget(nu, basis))
    return compute_I_neumann(project(nu, basis), basis.eigenvalues, tol=config.tol)


def run_convergence(config: ExperimentConfig) -> ConvergenceReport:
    """t^2 W2(mu_t, limit)^2 against the eigenseries constant, per time.
    Killed rows also carry their certified sandwich (`killed_rows`)."""
    basis = interval_basis(config, "converge")
    boundary = basis.domain.boundary
    limit = limit_report(config, basis)
    if boundary == NEUMANN:
        krs = _reflecting_rows(config, basis, limit.tail_bound)
    else:
        krs = killed_rows(config, basis, config.times)
    rows = []
    for t, kr in zip(config.times, krs):
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


def _reflecting_rows(config: ExperimentConfig, basis: SpectralBasis, tail_bound: float) -> list:
    """W2(mean occupation, mu) at each t by the config's route.  The quantile
    route solves the coupling from the occupation coefficients
    (`spectral_w2`); the others transport grid measures."""
    nu_c = project(resolve_nu(config.nu_spec, basis), basis)
    if config.w2_method == "quantile1d":
        results = [spectral_w2(basis, mean_occupation_coefficients(nu_c, basis, t))
                   for t in config.times]
    else:
        reference = mu0_measure(basis, config.grid_nodes)   # phi_0 = 1: this is mu
        results = [w2_by_method(config.w2_method, mean_occupation_measure(
            nu_c, basis, t, config.grid_nodes), reference) for t in config.times]
    return [{"w2": r.w2, "w2sq": r.w2_squared, "w2_error": r.error_estimate,
             "tail_bound": tail_bound} for r in results]


# ---------------------------------------------------------------------------
# killed rows: W2 at each t with its certified sandwich
# ---------------------------------------------------------------------------

def killed_rows(config: ExperimentConfig, basis: SpectralBasis, times) -> list:
    """W2(h_t mu_0, mu_0) at each t by the config's route, with the
    weighted-H^-1 upper bound and a certified lower bound (Kantorovich dual,
    potential the upper bound's H^-1(mu_0) potential of h_t - 1).  The
    quantile route solves the coupling from the fluctuation block
    (`spectral_w2`); the other routes, and the lower bound, transport grid
    measures of `grid_nodes` nodes; the potential enters it by its values
    on POTENTIAL_NODES uniform nodes (`SpectralBasis.ratio_series`).  mu_0's
    grid measure is built once for every t.  `ordered` states
    lower <= W2^2 <= upper within the declared errors."""
    reference = mu0_measure(basis, config.grid_nodes)
    nu = resolve_nu(config.nu_spec, basis)
    xs = np.linspace(*basis.domain.bounds[:2], POTENTIAL_NODES)
    rows = []
    for t in times:
        cd = conditional_density(nu, basis, t)
        mt = spectral_measure(cd, basis, config.grid_nodes)
        res = (spectral_w2(basis, _fluctuation_block(cd)) if config.w2_method == "quantile1d"
               else w2_by_method(config.w2_method, mt, reference))
        upper = h_minus1_upper_bound(cd.grid_values, basis)
        f = basis.ratio_series(upper["potential"], xs.size)
        lower = kantorovich_dual_lower(mt, reference, f, f_nodes=xs)

        tol = res.error_estimate + 1e-14 + abs(upper["coefficient_tail"])
        ordered = (lower["lower_bound"] <= res.w2_squared + tol
                   and res.w2_squared <= upper["upper_bound"] + tol)
        rows.append({
            "t": t, "lower": lower["lower_bound"], "w2sq": res.w2_squared,
            "upper": upper["upper_bound"], "w2": res.w2, "w2_error": res.error_estimate,
            "lower_slack": lower["conjugation_slack"], "upper_strip": upper["boundary_strip"],
            "excluded_nodes": upper["excluded_nodes"], "ordered": bool(ordered),
            "modes": basis.M, "tail_bound": cd.tail_bound, "seed": config.seed})
    return rows


def run_w2(config: ExperimentConfig, t: float) -> dict:
    """The killed row at one t against the config's own basis and mu_0."""
    basis = interval_basis(config, "w2")
    return killed_rows(config, basis, [t])[0]


def run_sandwich(config: ExperimentConfig, t: float) -> dict:
    """The quantile-route killed row at one t; raises unless it is ordered."""
    basis = interval_basis(config, "sandwich")
    row = killed_rows(replace(config, w2_method="quantile1d"), basis, [t])[0]
    if not row["ordered"]:
        raise TransportError(f"sandwich ordering violated beyond tolerances: {row}")
    if config.out:
        _dump(row, config.out, f"sandwich_t{t:g}.json")
    return row


# ---------------------------------------------------------------------------
# MC cross-check
# ---------------------------------------------------------------------------

def _check_mc_window(dt: float, horizon: float, slope_times: tuple):
    """Reject, before the basis is built, a step `simulate` refuses, one slope
    time (a killed run fits a line through them; an unkilled run has none),
    or slope times off their own step of the run (checkpoints are keyed by
    step)."""
    if dt > horizon / 100.0:
        raise ConfigError(f"mc.dt must not exceed the MC horizon/100, got {dt!r} "
                          f"at horizon {horizon!r}")
    if len(slope_times) == 1:
        raise ConfigError("mc.slope_times needs at least two times to fit the survival "
                          f"slope on a killed domain, got {list(slope_times)}")
    steps = [int(round(t / dt)) for t in slope_times]
    if slope_times and (slope_times[-1] > horizon or 0 in steps or len(set(steps)) < len(steps)):
        raise ConfigError(f"mc.slope_times must lie on distinct steps of dt {dt!r}, after "
                          f"step 0 and by the MC horizon {horizon!r}; got "
                          f"{list(slope_times)} on steps {steps}")


def run_mc_crosscheck(config: ExperimentConfig) -> dict:
    """Spectral-vs-MC comparison: survival decay, occupation, two limits.
    The killed case fits the decay to its one ensemble's checkpoints."""
    mc_cfg = config.mc
    dt, horizon = float(mc_cfg.get("dt", 1e-3)), float(mc_cfg.get("horizon", config.times[0]))
    killed = config.domain.boundary == DIRICHLET
    slope_times = tuple(mc_cfg.get("slope_times", (0.2, 0.4, 0.6, 0.8))) if killed else ()
    _check_mc_window(dt, horizon, slope_times)
    basis = interval_basis(config, "mc")
    nu = resolve_nu(config.nu_spec, basis)
    nu_c = project(nu, basis)
    base = SimulationConfig(
        domain=config.domain, dt=dt, horizon=horizon,
        n_paths=int(mc_cfg.get("n_paths", 100_000)), seed=config.seed, initial=nu,
        **{key: int(mc_cfg[key]) for key in ("n_bins", "islands") if key in mc_cfg})
    n_paths = base.n_paths
    out: dict = {"seed": config.seed, "dt": dt, "n_paths": n_paths, "horizon": horizon}

    if not killed:
        sim = simulate(replace(base, boundary_rule="reflect"))
        ref = mean_occupation_measure(nu_c, basis, horizon, config.grid_nodes)
        out["w1_occupation"] = w1_grid_1d(sim.occupation_measure(), ref)
        out["histogram_max_se"] = float(np.max(sim.stderr))
        if config.out:
            _dump(out, config.out, "mc_crosscheck.json")
        return out

    # one ensemble to the horizon; branch if direct killing is hopeless
    expected = survival_probability(nu_c, mu_coefficients(basis), basis.eigenvalues, horizon)
    resample = mc_cfg.get("resample", bool(expected * n_paths < 1000))
    occ_sim = simulate(replace(base, seed=config.seed + 1, resample=resample,
                               checkpoints=slope_times))
    counts = np.array([occ_sim.checkpoint_survival[t] * n_paths for t in slope_times])
    ts = np.array(slope_times)
    good = counts > 0
    wls = np.polyfit(ts[good], np.log(counts[good]), 1, w=np.sqrt(counts[good]))
    out["survival_slope"] = float(wls[0])
    out["lambda0"] = float(basis.eigenvalues[0])
    out["slope_rel_err"] = abs(wls[0] + basis.eigenvalues[0]) / basis.eigenvalues[0]
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
