"""Superquadratic Markovian backward SDEs via the viscous Hamilton-Jacobi
PDE: convex generators and conjugates, terminal regularizations, forward
simulation, a monotone finite-difference solver, dual Monte Carlo bounds,
path-level bound checks, and the three ill-posedness constructions.
"""

from .generators import (Conjugate, PowerGenerator, QuadraticGenerator,
                         SampledGenerator, TruncatedGenerator, check_growth_duality,
                         conjugate_of, superquadratic_probe, truncate, young_gap)
from .terminal_data import (TerminalCondition, inf_convolution, sup_convolution,
                            uniform_gap_bound)
from .forward_model import (ForwardModel, LinearDrift, PathBundle, TanhDrift,
                            ZeroDrift, check_compat_417, gaussian_terminal_law,
                            simulate_paths)
from .hj_solver import (GridSpec, PdeSolution, cole_hopf_reference, solve,
                        solve_regularized_family)
from .dual_mc import (ConstantControl, DualEstimate, FeedbackControl,
                      PiecewiseConstantControl, ZeroControl, duality_gap,
                      evaluate_control, feedback_control)
from .path_checks import (apriori_z_bound, bmo_energy_check, bsde_residual,
                          exponent_fit, penalty_bound_check)
from .counterexamples import (build_thm31, build_thm33, build_thm34,
                              limit_not_solution_witness,
                              simulate_thm33_excursion, thm31_series_report,
                              thm34_checks)

__version__ = "0.1.0"
