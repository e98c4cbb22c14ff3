"""Estimation and sampling-design planning for two-level (subjects x
observations) function data under hierarchical Gaussian process models."""

__version__ = "0.1.0"

from .basis import FunctionSeries, Spectrum, series_eval
from .simulate import (CoefficientPanel, ModelConfig, SubjectStats,
                       sample_population, sample_stats, simulate_regression,
                       substream)
from .estimators import (double_threshold_estimate_f,
                         empirical_coefficients, leave_one_out_means,
                         lepskii_threshold_g, lepskii_thresholds_f,
                         oracle_thresholds,
                         posterior_mean_f, posterior_mean_g,
                         single_subject_estimate, threshold_estimate_g)
from .risk import (RateQuery, RiskReport, rate_f, rate_g, rate_gradient,
                   run_monte_carlo, slope_recovery)
from .design import (DesignGrid, DesignPoint, emit_gradient_map, emit_heatmap,
                     enumerate_designs)
from .dataio import (DataWarning, MultiSubjectTable, SplitSpec,
                     compare_estimators, load_table, parse_table, split)
