"""Monte Carlo risk harness and theoretical rate calculator.

The harness draws each replicate's sufficient statistics, fits a plan of
estimators, and scores each fit by its exact L2 risk (Parseval).  The rate
functions implement the closed-form risk rates (all constants fixed to 1, so
only slopes and orderings are meaningful) together with their analytic
cost-weighted gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .basis import FunctionSeries, series_eval
from .simulate import (ModelConfig, SubjectStats, sample_population, sample_stats,
                       substream)
from . import estimators as est

__all__ = [
    "RiskReport",
    "RateQuery",
    "RateGradient",
    "EstimatorSpec",
    "parseval_mise",
    "rmspe",
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


def parseval_mise(estimate: FunctionSeries, truth) -> float:
    """Squared L2 distance between the series and a truth given by its
    coefficients: the sum of squared coefficient differences (Parseval)."""
    truth = np.asarray(truth, dtype=float)
    diff = estimate.padded(max(len(estimate), truth.size))
    diff[: truth.size] -= truth
    return float(diff @ diff)


def rmspe(estimate: FunctionSeries, test_t, test_y) -> float:
    """Root mean squared prediction error on held-out points."""
    test_t = np.asarray(test_t, dtype=float)
    if test_t.size == 0:
        raise ValueError("test set must be nonempty")
    diff = series_eval(estimate, test_t) - np.asarray(test_y, dtype=float)
    return float(np.sqrt(np.mean(diff**2)))


# ---------------------------------------------------------------------------
# Estimator plans


@dataclass(frozen=True)
class EstimatorSpec:
    """One entry of a Monte Carlo plan: a label, the target function
    ("g" or "f", where "f" means subject 0), and a fit on subject 0's
    statistics."""

    label: str
    target: str
    fit: Callable[[SubjectStats], FunctionSeries]


def adaptive_g(tau: float = 6.5) -> EstimatorSpec:
    def fit(stats):
        return est.threshold_estimate_g(stats, est.lepskii_threshold_g(stats, tau=tau))
    return EstimatorSpec(f"adaptive_g_tau{tau:g}", "g", fit)


def fixed_g_threshold(n: int, m: int, beta: float) -> int:
    """The nonadaptive threshold ceil((n*m)^(1/(1+2*beta))) of :func:`fixed_g`."""
    return math.ceil((n * m) ** (1.0 / (1.0 + 2.0 * beta)))


def fixed_g(beta: float) -> EstimatorSpec:
    """Pooled estimator with the nonadaptive threshold (n*m)^(1/(1+2*beta))."""
    def fit(stats):
        return est.threshold_estimate_g(stats, fixed_g_threshold(stats.n, stats.m, beta))
    return EstimatorSpec(f"fixed_g_beta{beta:g}", "g", fit)


def adaptive_f(tau1: float = 4.5, tau2: float = 6.5) -> EstimatorSpec:
    def fit(stats):
        k1, k2 = est.lepskii_thresholds_f(stats, tau1=tau1, tau2=tau2)
        return est.double_threshold_estimate_f(stats, k1, k2)
    return EstimatorSpec(f"adaptive_f_tau{tau1:g}_{tau2:g}", "f", fit)


def fixed_f(alpha: float, alpha_tilde: float) -> EstimatorSpec:
    """Double-thresholding estimator with the nonadaptive threshold pair."""
    def fit(stats):
        k1 = math.ceil(stats.n ** (1.0 / (1.0 + 2.0 * alpha_tilde)))
        k2 = max(k1, math.ceil((stats.n * stats.m) ** (1.0 / (1.0 + 2.0 * alpha))))
        return est.double_threshold_estimate_f(stats, k1, k2)
    return EstimatorSpec(f"fixed_f_a{alpha:g}_at{alpha_tilde:g}", "f", fit)


def single_subject_f(tau: float = 2.0) -> EstimatorSpec:
    def fit(stats):
        return est.single_subject_estimate(stats, tau=tau)
    return EstimatorSpec(f"single_f_tau{tau:g}", "f", fit)


def posterior_g(spec: est.PosteriorSpec) -> EstimatorSpec:
    label = f"posterior_g_b{spec.prior_spectrum.decay:g}_bt{spec.deviation_spectrum.decay:g}"
    return EstimatorSpec(label, "g", lambda stats: est.posterior_mean_g(stats, spec))


def posterior_f(spec: est.PosteriorSpec) -> EstimatorSpec:
    label = f"posterior_f_b{spec.prior_spectrum.decay:g}_bt{spec.deviation_spectrum.decay:g}"
    return EstimatorSpec(label, "f", lambda stats: est.posterior_mean_f(stats, spec))


# ---------------------------------------------------------------------------
# Monte Carlo harness


@dataclass
class RiskReport:
    """Per-replicate MISE values for one estimator, with a config echo.

    ``first_failure`` is ``"<Type>: <message>"`` of the first replicate
    whose fit failed, or None.
    """

    label: str
    target: str
    mises: np.ndarray
    failures: int
    config: dict
    seed: int
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


def run_monte_carlo(cfg: ModelConfig, plan, replicates: int,
                    seed: int) -> dict[str, RiskReport]:
    """Simulate ``replicates`` sequence-mode datasets and score every
    estimator in the plan by its L2 risk against its target.

    Each replicate draws g and subject 0's statistics (:func:`sample_stats`)
    from the substream keyed by (seed, r), so results are deterministic
    given (cfg, plan, replicates, seed).  A fit that raises ``ValueError``
    or ``LinAlgError`` counts as a failed replicate; any other exception
    propagates.
    """
    if replicates < 1:
        raise ValueError("need at least one replicate")
    if cfg.m < 1:
        raise ValueError(f"need at least 1 subject, got m={cfg.m}")
    plan = list(plan)
    mises = {spec.label: np.full(replicates, np.nan) for spec in plan}
    failures = {spec.label: 0 for spec in plan}
    first_failure = {}
    for r in range(replicates):
        rng = substream(seed, r)
        g = sample_population(cfg, rng)
        deviation0, stats = sample_stats(g, cfg, rng)
        g_coeffs = g.padded(cfg.k_max)
        truths = {"g": g_coeffs, "f": g_coeffs + deviation0}
        for spec in plan:
            try:
                fitted = spec.fit(stats)
            except (ValueError, np.linalg.LinAlgError) as err:
                failures[spec.label] += 1
                first_failure.setdefault(spec.label, f"{type(err).__name__}: {err}")
                continue
            mises[spec.label][r] = parseval_mise(fitted, truths[spec.target])

    config_echo = {
        "n": cfg.n, "m": cfg.m, "k_max": cfg.k_max,
        "alpha": cfg.prior_spectrum.decay, "alpha_scale": cfg.prior_spectrum.scale,
        "alpha_tilde": cfg.deviation_spectrum.decay,
        "alpha_tilde_scale": cfg.deviation_spectrum.scale,
        "replicates": replicates, "seed": seed,
    }
    return {spec.label: RiskReport(spec.label, spec.target, mises[spec.label],
                                   failures[spec.label], dict(config_echo), seed,
                                   first_failure.get(spec.label))
            for spec in plan}


# ---------------------------------------------------------------------------
# Theoretical rates


@dataclass(frozen=True)
class RateQuery:
    """Continuous (n, m) point with smoothness exponents and unit costs."""

    n: float
    m: float
    alpha: float
    alpha_tilde: float
    cost_n: float = 1.0
    cost_m: float = 1.0

    def __post_init__(self):
        for name in ("n", "m", "alpha", "alpha_tilde", "cost_n", "cost_m"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")

    @property
    def delta(self) -> float:
        if self.n <= 1:
            raise ValueError("delta = log(m)/log(n) needs n > 1")
        return math.log(self.m) / math.log(self.n)


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


def rate_gradient(q: RateQuery, target: str) -> RateGradient:
    """Cost-weighted analytic partial derivatives of the chosen rate.

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
    dn /= q.cost_n
    dm /= q.cost_m
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
