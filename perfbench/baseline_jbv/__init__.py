"""Numerical spectral theory of Jacobi matrices with step-q bounded-variation
coefficients: periodic band structures, transfer-matrix growth diagnostics,
explicit a.c. densities of eventually-periodic approximants, and the two
counterexample coefficient constructions."""

from .coeffs import (CoefficientSpec, coefficient_arrays, constant_spec,
                     eval_coefficients, eventually_periodic_spec,
                     explicit_spec, free_spec, periodic_spec)
from .constructions import (Schedule, build_schedule, bv_energy,
                            slow_cosine_spec, staircase_bv_breakdown,
                            staircase_comb_spec, staircase_level_value)
from .density import (ApproximantSpec, WeylSolution, ac_density,
                      approximant_coefficients, m_function, weyl_solution,
                      wronskian_defect)
from .diagnostics import (AcIntervalEstimate, GapWindowReport, GrowthStatistic,
                          ac_interval_estimate, gap_growth_lower_bound,
                          growth_statistic, sturm_count,
                          verify_gap_window_growth)
from .errors import (DegenerateBlockError, HorizonError,
                     NonDiagonalizableFrameError, OutsideBandError,
                     PoleOfMError, PreconditionError, RootIsolationError)
from .intervals import Interval, IntervalUnion, interval_union_intersect
from .matrix2 import Matrix2, ScaledMatrix2, one_step_matrix
from .periodic import (BandStructure, Gap, GapReport, PeriodicJacobi,
                       band_structure, chebyshev_second_kind, comb_potential,
                       discriminant_polynomial, discriminant_value,
                       free_critical_points, gap_report,
                       intersection_over_family, same_discriminant,
                       spectral_bracket)
from .polynomial import PolynomialReal
from .transfer import (CouplingSeries, Diagonalization, GrowthScanner,
                       QStepBlock, branch_sign_for_interval, coupling_series,
                       eigen_branch, q_step_block, strip_margins,
                       transfer_product, weyl_branch_sign)

__version__ = "0.1.0"
