"""Desk-scale laboratory for conditional empirical measures of killed
diffusions: eigenbases, semigroup series, transport distances, limits,
and Monte Carlo cross-checks on intervals and rectangles."""

from .domains import DIRICHLET, NEUMANN, Domain, DomainError, Potential, rectangle, unit_interval
from .limits import LimitReport, compute_I, compute_I_neumann, finiteness_predicate
from .measures import GridMeasure, InitialDistribution, MeasureError
from .mc import PathEnsembleSummary, SimulationConfig, conditional_empirical_w2, simulate
from .semigroup import (ConditionalDensity, conditional_density, exp_time_integral,
                        mean_empirical_density, rho_tilde, survival_probability)
from .spectral import (SpectralBasis, build_analytic_basis, mu_coefficients, project,
                       solve_sturm_liouville)
from .transport import (TransportResult, h_minus1_upper_bound, kantorovich_dual_lower,
                        logarithmic_mean, w1_grid_1d, w2_entropic,
                        w2_exact_discrete, w2_quantile_1d)
from .harness import (ConvergenceReport, ExperimentConfig, mu0_measure,
                      run_convergence, run_mc_crosscheck, run_sandwich,
                      spectral_measure)

__version__ = "0.1.0"
