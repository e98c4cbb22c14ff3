"""Monte Carlo risk harness and theoretical rate calculator.

The harness draws the sufficient statistics of every replicate of a config
as one stack, fits each estimator of a plan once on that stack, and scores
each replicate's fit by its exact L2 risk (Parseval).  The rate
functions implement the closed-form risk rates at a :class:`RateQuery`
point (all constants fixed to 1, so only slopes and orderings are
meaningful); :func:`rate_gradient` weights their analytic gradients by the
unit costs it is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .simulate import ModelConfig, SubjectStats, replicate_normals, sample_stats
from . import estimators as est

__all__ = [
    "RiskReport",
    "RateQuery",
    "RateGradient",
    "EstimatorSpec",
    "run_monte_carlo",
    "rate_g",
    "rate_f",
    "rate_gradient",
    "slope_recovery",
    "adaptive_g",
    "fixed_g",
    "fixed_g_threshold",
    "adaptive_f",
    "fixed_f",
    "single_subject_f",
    "posterior_g",
    "posterior_f",
]


# ---------------------------------------------------------------------------
# Estimator plans


@dataclass(frozen=True)
class EstimatorSpec:
    """One entry of a plan: a label, the target ("g", or "f" for each row's
    own subject) and a fit, mapping a (rows, width) stack of statistics to
    ``(fitted, support)``: the fitted coefficients, zero from each row's
    support (an int, or one per row) on.  ``dataio.compare_estimators``
    reads the support to predict from a row's first terms alone, since a
    full-width matvec rounds differently; :func:`run_monte_carlo` does not.
    """

    label: str
    target: str
    fit: Callable[[SubjectStats], tuple[np.ndarray, np.ndarray | int]]


def adaptive_g(tau: float = est.TAU_G) -> EstimatorSpec:
    def fit(stats):
        K = est.lepskii_threshold_g(stats, tau=tau)
        return est.threshold_estimate_g(stats, K), K
    return EstimatorSpec(f"adaptive_g_tau{tau:g}", "g", fit)


def fixed_g_threshold(n: int, m: int, beta: float) -> int:
    """The nonadaptive threshold ceil((n*m)^(1/(1+2*beta))) of :func:`fixed_g`."""
    return math.ceil((n * m) ** (1.0 / (1.0 + 2.0 * beta)))


def fixed_g(beta: float) -> EstimatorSpec:
    """Pooled estimator with the nonadaptive threshold (n*m)^(1/(1+2*beta))."""
    def fit(stats):
        K = fixed_g_threshold(stats.n, stats.m, beta)
        return est.threshold_estimate_g(stats, K), K
    return EstimatorSpec(f"fixed_g_beta{beta:g}", "g", fit)


def adaptive_f(tau1: float = est.TAU1, tau2: float = est.TAU2) -> EstimatorSpec:
    def fit(stats):
        k1, k2 = est.lepskii_thresholds_f(stats, tau1=tau1, tau2=tau2)
        return est.double_threshold_estimate_f(stats, k1, k2), k2
    return EstimatorSpec(f"adaptive_f_tau{tau1:g}_{tau2:g}", "f", fit)


def fixed_f(alpha: float, alpha_tilde: float) -> EstimatorSpec:
    """Double-thresholding estimator with the nonadaptive threshold pair."""
    def fit(stats):
        k1 = math.ceil(stats.n ** (1.0 / (1.0 + 2.0 * alpha_tilde)))
        k2 = max(k1, math.ceil((stats.n * stats.m) ** (1.0 / (1.0 + 2.0 * alpha))))
        return est.double_threshold_estimate_f(stats, k1, k2), k2
    return EstimatorSpec(f"fixed_f_a{alpha:g}_at{alpha_tilde:g}", "f", fit)


def single_subject_f(tau: float = est.TAU_SINGLE) -> EstimatorSpec:
    def fit(stats):
        k = est.single_subject_threshold(stats, tau=tau)
        return est.single_subject_estimate(stats, k), k
    return EstimatorSpec(f"single_f_tau{tau:g}", "f", fit)


def posterior_g(prior, deviation) -> EstimatorSpec:
    """Posterior mean for g under the assumed prior and deviation Spectrums."""
    label = f"posterior_g_b{prior.decay:g}_bt{deviation.decay:g}"
    return EstimatorSpec(label, "g", lambda stats: (est.posterior_mean_g(stats, prior, deviation),
                                                    stats.width))


def posterior_f(prior, deviation) -> EstimatorSpec:
    """Posterior mean for f under the assumed prior and deviation Spectrums."""
    label = f"posterior_f_b{prior.decay:g}_bt{deviation.decay:g}"
    return EstimatorSpec(label, "f", lambda stats: (est.posterior_mean_f(stats, prior, deviation),
                                                    stats.width))


# ---------------------------------------------------------------------------
# Monte Carlo harness


@dataclass
class RiskReport:
    """Per-replicate MISE values for one estimator.

    ``failures`` counts the replicates whose fitted row is not finite, and
    ``first_failure`` says why they failed, or is None.
    """

    label: str
    target: str
    mises: np.ndarray
    failures: int
    first_failure: str | None = None

    @property
    def replicates(self) -> int:
        return self.mises.size

    def _clean(self) -> np.ndarray:
        vals = self.mises[np.isfinite(self.mises)]
        if vals.size == 0:
            raise ValueError(f"no successful replicates for {self.label}; "
                             f"first failure: {self.first_failure}")
        return vals

    @property
    def median(self) -> float:
        return float(np.median(self._clean()))

    @property
    def mean(self) -> float:
        return float(np.mean(self._clean()))

    @property
    def quartiles(self) -> tuple[float, float]:
        q1, q3 = np.percentile(self._clean(), [25.0, 75.0])
        return float(q1), float(q3)

    @property
    def mean_log(self) -> float:
        return float(np.mean(np.log(self._clean())))

    def to_csv(self) -> str:
        lines = ["replicate,estimator,mise"]
        for r, v in enumerate(self.mises, start=1):
            lines.append(f"{r},{self.label},{float(v)!r}")
        return "\n".join(lines) + "\n"

    def summary_row(self) -> str:
        q1, q3 = self.quartiles
        return (f"{self.label},{self.target},{self.replicates},{self.failures},"
                f"{self.median!r},{self.mean!r},{q1!r},{q3!r},{self.mean_log!r}")


def _fit_and_score(spec: EstimatorSpec, stats: SubjectStats, truth: np.ndarray):
    """(per-replicate MISE, failure count, first failure) of one estimator
    fitted on the stack and scored against ``truth`` in one stacked dot.

    The MISE is the exact L2 risk by Parseval, the sum of squared coefficient
    errors.  The stacked matmul of each (1, K) error row by its (K, 1)
    transpose sums as ``d @ d`` does on the row alone, so every MISE is bit
    for bit the per-row value (``np.einsum("ij,ij->i")`` sums in another
    order).  A row with a non-finite coefficient is left NaN and counted as
    a failure; an exception raised by the fit propagates.
    """
    mises = np.full(truth.shape[0], np.nan)
    fitted, _ = spec.fit(stats)
    finite = np.isfinite(fitted).all(axis=1)
    failures = truth.shape[0] - int(np.count_nonzero(finite))  # np.int64 otherwise
    d = fitted[finite] - truth[finite] if failures else fitted - truth
    mises[finite] = (d[:, None, :] @ d[:, :, None]).ravel()
    return mises, failures, "ValueError: coeffs must be finite" if failures else None


def run_monte_carlo(cfg: ModelConfig, plan, replicates: int, seed: int,
                    normals: np.ndarray | None = None) -> dict[str, RiskReport]:
    """Simulate ``replicates`` sequence-mode datasets and score every
    estimator in the plan by its L2 risk against its target.

    Replicate r reads g and subject 0's statistics from the first
    ``cfg.stats_width`` normals of the substream keyed by (seed, r)
    (:func:`sample_stats`), so results are deterministic given (cfg, plan,
    replicates, seed).  A command that runs several configs draws those
    streams once, as ``normals = replicate_normals(seed, replicates, width)``
    with the width its widest config needs, and passes the block to each
    config, which reads a prefix of every row: the configs share their random
    numbers.  Without ``normals`` the block is drawn here.  Each estimator is
    fitted once, on the stack of all replicates.  A replicate whose fit is
    not finite fails alone; an exception raised by a fit propagates.  The
    config needs m >= 2, checked before anything is drawn.
    """
    if cfg.m < 2:
        raise ValueError(f"need at least 2 subjects, got m={cfg.m}")
    if normals is None:
        normals = replicate_normals(seed, replicates, cfg.stats_width)
    elif len(normals) != replicates:
        raise ValueError(f"need {replicates} rows of normals, got {len(normals)}")
    g, f0, stats = sample_stats(cfg, normals)
    del normals  # a block drawn here is not held while the plan is fitted
    truths = {"g": g, "f": f0}
    return {spec.label: RiskReport(spec.label, spec.target,
                                   *_fit_and_score(spec, stats, truths[spec.target]))
            for spec in plan}


# ---------------------------------------------------------------------------
# Theoretical rates


@dataclass(frozen=True)
class RateQuery:
    """Continuous (n, m) point with smoothness exponents."""

    n: float
    m: float
    alpha: float
    alpha_tilde: float

    def __post_init__(self):
        for name in ("n", "m", "alpha", "alpha_tilde"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


def rate_g(q: RateQuery) -> float:
    """Population-risk rate m^-1 + (n m)^(-2a/(1+2a)), constants set to 1."""
    p = 2.0 * q.alpha / (1.0 + 2.0 * q.alpha)
    return 1.0 / q.m + (q.n * q.m) ** (-p)


def rate_f(q: RateQuery) -> float:
    """Subject-risk rate n^(-2a~/(1+2a~)) + (n m)^(-2a/(1+2a))."""
    p = 2.0 * q.alpha / (1.0 + 2.0 * q.alpha)
    pt = 2.0 * q.alpha_tilde / (1.0 + 2.0 * q.alpha_tilde)
    return q.n ** (-pt) + (q.n * q.m) ** (-p)


class RateGradient(NamedTuple):
    dn: float
    dm: float
    steeper_axis: str


def rate_gradient(q: RateQuery, target: str, cost_n: float = 1.0,
                  cost_m: float = 1.0) -> RateGradient:
    """Analytic partial derivatives of the chosen rate, each divided by the
    unit cost of its axis.

    ``steeper_axis`` is "n" when a unit of cost spent on n decreases the rate
    more than a unit spent on m (arrow slope below 45 degrees).
    """
    p = 2.0 * q.alpha / (1.0 + 2.0 * q.alpha)
    shared = (q.n * q.m) ** (-p)
    if target == "g":
        dn = -p * shared / q.n
        dm = -1.0 / q.m**2 - p * shared / q.m
    elif target == "f":
        pt = 2.0 * q.alpha_tilde / (1.0 + 2.0 * q.alpha_tilde)
        dn = -pt * q.n ** (-pt - 1.0) - p * shared / q.n
        dm = -p * shared / q.m
    else:
        raise ValueError(f"unknown target {target!r}")
    dn /= cost_n
    dm /= cost_m
    return RateGradient(dn, dm, "n" if abs(dn) > abs(dm) else "m")


def slope_recovery(axis_values, summaries) -> float:
    """Least-squares slope of log(summary) against log(axis value)."""
    x = np.log(np.asarray(axis_values, dtype=float))
    y = np.log(np.asarray(summaries, dtype=float))
    if x.size < 3:
        raise ValueError("need at least 3 sweep points")
    if np.ptp(x) == 0:
        raise ValueError("sweep axis is constant")
    return float(np.polyfit(x, y, 1)[0])
