"""Consistent exchangeable Markov survival processes.

Simulation with right censoring, exact trajectory likelihoods, predictive
survival distributions, parameter estimation, and the equivalent
random-measure construction used as an independent cross-check.
"""

from .index import (BetaSplitIndex, CharacteristicIndex, DislocationMeasure,
                    GammaIndex, GeometricIndex, HarmonicIndex, LevyMeasure,
                    LinearIndex, LinearShiftIndex, MeasureIndex, NumericError,
                    ParameterError, PowerIndex, SplittingTable, build_table,
                    consistency_defect, dislocation_from_levy,
                    index_from_spec, levy_from_dislocation,
                    normalization_defect, weak_continuity_defect)
from .ranking import (OrderedPartition, bell, block_growth_probe,
                      enumerate_ordered_partitions, expected_blocks,
                      first_block_distribution, ordered_bell, ranking_prob,
                      sample_block_sizes, sample_ranking, sample_rankings,
                      stirling2)
from .process import (CensoringPlan, Event, RiskSetTrajectory, TimeTransform,
                      TrajectoryBatch, log_density, log_density_semimarkov,
                      predictive_survival, residual_trajectory, sample_next,
                      simulate, simulate_batch, simulate_seeded,
                      trajectory_from_csv, trajectory_to_csv, transform_times)
from .random_measure import (ConstructionReport, MeasureRealization,
                             ResourceError, compare_constructions,
                             gamma_interval_totals, joint_survival,
                             sample_gamma_measure, sample_survival_times)
from .inference import (Dataset, EmpiricalBayesCurve, ExponentialFit,
                        FitResult, KaplanMeier, SufficientStats,
                        empirical_bayes_curve, fit_exponential, fit_mle,
                        fit_moment, kaplan_meier, loglik, mle_nu_given_rho,
                        profile_interval, profile_loglik, risk_trajectory,
                        sufficient_stats)
from .datasets import GEHAN_6MP, DataError, load_dataset, parse_dataset_text

__version__ = "0.1.0"
