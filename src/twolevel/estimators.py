"""Estimators of the population-level and subject-specific functions.

Includes empirical basis coefficients, pooled/thresholded series estimators,
data-driven (Lepskii-style) threshold selection, the double-thresholding
subject estimator, a single-subject baseline, conjugate posterior means, and
truth-dependent oracle thresholds for diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import FunctionSeries, Spectrum, fourier_matrix
from .simulate import CoefficientPanel, MultiSubjectTable, SubjectStats

__all__ = [
    "PosteriorSpec",
    "empirical_coefficients",
    "pooled_coefficients",
    "subject_stats",
    "leave_one_out_means",
    "threshold_estimate_g",
    "lepskii_min_k",
    "lepskii_threshold_g",
    "double_threshold_estimate_f",
    "lepskii_thresholds_f",
    "single_subject_threshold",
    "single_subject_estimate",
    "posterior_mean_g",
    "posterior_mean_f",
    "oracle_thresholds",
]


@dataclass(frozen=True)
class PosteriorSpec:
    """Eigenvalue laws assumed by the conjugate posterior-mean estimators.

    Either spectrum may deliberately differ from the data-generating truth to
    study misspecified hyperparameters.
    """

    prior_spectrum: Spectrum
    deviation_spectrum: Spectrum


def empirical_coefficients(table: MultiSubjectTable, width: int) -> CoefficientPanel:
    """Per-subject empirical basis coefficients of a curve table.

    Entry (j, k) is ``(1/n) * sum_i Y_i^(j) psi_k(t_i^(j))``.

    The panel is flagged as aliased when ``width`` exceeds half the grid size.
    The design matrix is rebuilt only where a subject's grid differs from the
    previous subject's.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    lengths = {t.size for t in table.times}
    if len(lengths) != 1:
        raise ValueError("subjects must share a common grid size")
    n_obs = lengths.pop()
    rows = np.empty((table.m, width))
    grid_of_psi = None
    for j, (grid, y) in enumerate(zip(table.times, table.values)):
        if grid_of_psi is None or not np.array_equal(grid, grid_of_psi):
            psi, grid_of_psi = fourier_matrix(grid, width), grid
        rows[j] = psi.T @ y / n_obs
    return CoefficientPanel(n=n_obs, m=table.m, coeffs=rows, aliased=width > n_obs / 2)


def pooled_coefficients(panel: CoefficientPanel, exclude_subject: int | None = None) -> np.ndarray:
    """Column means of the panel, optionally leaving one subject out.

    ``exclude_subject`` is a 0-based row index.
    """
    if exclude_subject is None:
        return panel.coeffs.mean(axis=0)
    if panel.m < 2:
        raise ValueError("leave-one-out pooling needs at least 2 subjects")
    if not 0 <= exclude_subject < panel.m:
        raise IndexError(f"subject index out of range: {exclude_subject}")
    mask = np.ones(panel.m, dtype=bool)
    mask[exclude_subject] = False
    return panel.coeffs[mask].mean(axis=0)


def subject_stats(panel: CoefficientPanel, subject: int) -> SubjectStats:
    """The statistics the estimators read of one subject (0-based row) of a
    panel: its row and the leave-one-out mean of the others."""
    if not 0 <= subject < panel.m:
        raise IndexError(f"subject index out of range: {subject}")
    donor_mean = (pooled_coefficients(panel, exclude_subject=subject)
                  if panel.m > 1 else None)
    return SubjectStats(panel.n, panel.m, panel.coeffs[subject], donor_mean)


def leave_one_out_means(panel: CoefficientPanel) -> np.ndarray:
    """Row j is the mean of every panel row but row j, for all j at once.

    Bit for bit equal to ``pooled_coefficients(panel, exclude_subject=j)``:
    each row adds the other rows in index order, as numpy's axis-0 sum does,
    which ``(colsum - row) / (m - 1)`` would not.  Costs m^2 K / 2 adds.
    """
    if panel.m < 2:
        raise ValueError("leave-one-out pooling needs at least 2 subjects")
    c = panel.coeffs
    out = np.empty_like(c)
    out[0] = c[1]
    np.cumsum(c[:-1], axis=0, out=out[1:])
    for i in range(2, panel.m):
        out[:i] += c[i]
    out /= panel.m - 1
    return out


def threshold_estimate_g(stats: SubjectStats, K: int) -> FunctionSeries:
    """Pooled series estimator keeping the first K coefficients."""
    if K < 0 or K > stats.width:
        raise ValueError(f"K must be in 0..{stats.width}, got {K}")
    if K == 0:
        return FunctionSeries.zero()
    return FunctionSeries(stats.pooled[:K])


def lepskii_min_k(sq_terms: np.ndarray, tau: float, denom: float, bound: int):
    """Smallest k in 1..bound with sum_{i=k+1..l} sq_terms[..., i] <= tau*l/denom
    for every l in (k, bound], along the last axis.

    ``sq_terms[..., i-1]`` holds the i-th squared coefficient term.  k = bound
    always qualifies (the condition set is empty there).  A 1-D input gives an
    int; a (rows, K) input gives one k per row.
    """
    if bound < 1:
        raise ValueError("search bound must be >= 1")
    if bound == 1:
        return 1 if sq_terms.ndim == 1 else np.ones(sq_terms.shape[0], dtype=int)
    partial = np.cumsum(sq_terms[..., :bound], axis=-1)
    slack = partial - tau * np.arange(1, bound + 1) / denom
    # ok[..., k-1] for k < bound: max over l in (k, bound] of slack[..., l-1]
    # is at most partial[..., k-1], the sum of the first k terms.
    ok = np.maximum.accumulate(slack[..., :0:-1], axis=-1)[..., ::-1] <= partial[..., :-1]
    first = ok.argmax(axis=-1)
    if ok.ndim == 1:
        return int(first) + 1 if ok[first] else bound
    return np.where(ok.any(axis=-1), first + 1, bound)


def lepskii_threshold_g(stats: SubjectStats, tau: float = 6.5):
    """Data-driven truncation level k for the pooled estimator of g: an int
    for one row, one k per row for a stack.

    Searches k in 1..floor(sqrt(n*m)) for the smallest level whose estimator is
    within ``tau * l / (n*m)`` (squared L2, via Parseval) of every finer one.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    bound = math.isqrt(stats.n * stats.m)
    if bound > stats.width:
        raise ValueError(f"panel too narrow for search bound {bound}")
    return lepskii_min_k(stats.pooled**2, tau, stats.n * stats.m, bound)


def double_threshold_estimate_f(stats: SubjectStats, k1: int, k2: int) -> FunctionSeries:
    """Subject estimator using own coefficients up to k1, leave-one-out pooled
    coefficients on (k1, k2], zero beyond."""
    if k1 > k2:
        raise ValueError(f"need k1 <= k2, got ({k1}, {k2})")
    if k2 > stats.width:
        raise ValueError("k2 exceeds panel width")
    if k2 == 0:
        return FunctionSeries.zero()
    coeffs = np.zeros(k2)
    coeffs[:k1] = stats.own[:k1]
    if k2 > k1:
        if stats.donor_mean is None:
            raise ValueError("leave-one-out pooling needs at least 2 subjects")
        coeffs[k1:k2] = stats.donor_mean[k1:k2]
    return FunctionSeries(coeffs)


def lepskii_thresholds_f(stats: SubjectStats, tau1: float = 4.5, tau2: float = 6.5):
    """Data-driven thresholds (k1, k1 v k2) for the double-thresholding
    subject estimator: ints for one row, one pair of arrays for a stack.

    k2 runs the pooled rule (leave-one-out, bound ``tau2 * l / (n*m)`` over
    l <= sqrt(n*m)); k1 runs the own-vs-pooled rule (bound ``tau1 * l / n``
    over l <= sqrt(n)), whose norm differences reduce to sums of squared
    (own - pooled) coefficient gaps.
    """
    if stats.m < 2:
        raise ValueError("need at least 2 subjects; use single_subject_estimate for m = 1")
    if tau1 <= 0 or tau2 <= 0:
        raise ValueError("tau values must be positive")
    n, m = stats.n, stats.m
    bound2 = math.isqrt(n * m)
    if bound2 > stats.width:
        raise ValueError(f"panel too narrow for search bound {bound2}")
    k2 = lepskii_min_k(stats.donor_mean**2, tau2, n * m, bound2)
    k1 = lepskii_min_k((stats.own - stats.donor_mean) ** 2, tau1, n, math.isqrt(n))
    return k1, (max(k1, k2) if stats.own.ndim == 1 else np.maximum(k1, k2))


def single_subject_threshold(stats: SubjectStats, tau: float = 2.0):
    """Threshold k of the single-subject baseline, from its own coefficients
    alone: k in 1..floor(sqrt(n)) with the comparison bound ``tau * l / (n*m)``.
    An int for one row, one k per row for a stack."""
    bound = math.isqrt(stats.n)
    if bound > stats.width:
        raise ValueError(f"row too short for search bound {bound}")
    return lepskii_min_k(stats.own**2, tau, stats.n * stats.m, bound)


def single_subject_estimate(stats: SubjectStats, tau: float = 2.0) -> FunctionSeries:
    """Project one subject's own coefficient row to its data-driven threshold."""
    return FunctionSeries(stats.own[: single_subject_threshold(stats, tau)])


def posterior_mean_g(stats: SubjectStats, spec: PosteriorSpec) -> FunctionSeries:
    """Conjugate posterior mean for g: shrink the all-subject pooled mean by
    ``1 / (zeta_k^{-1} m^{-1} (zeta~_k + 1/n) + 1)``."""
    lam = spec.prior_spectrum.eigenvalues(stats.width)
    lamt = spec.deviation_spectrum.eigenvalues(stats.width)
    shrink = 1.0 / ((lamt + 1.0 / stats.n) / (stats.m * lam) + 1.0)
    return FunctionSeries(shrink * stats.pooled)


def posterior_mean_f(stats: SubjectStats, spec: PosteriorSpec) -> FunctionSeries:
    """Conjugate posterior mean for one subject's function.

    Combines the subject's own coefficients with the leave-one-out pooled
    mean of the m - 1 donor subjects; with m = 1 it degrades to conjugate
    shrinkage against the subject's marginal prior variance.
    """
    n = stats.n
    width = stats.width
    lam = spec.prior_spectrum.eigenvalues(width)
    lamt = spec.deviation_spectrum.eigenvalues(width)
    donors = stats.m - 1
    own = stats.own
    ybar = stats.donor_mean if donors > 0 else np.zeros(width)
    c = 1.0 / lam + 1.0 / lamt + donors / (lamt + 1.0 / n)
    a = (1.0 / lamt) * donors / (lamt + 1.0 / n) / c
    b = (1.0 / lam + donors / (lamt + 1.0 / n)) / c
    return FunctionSeries((own * n + ybar * a) / (n + b / lamt))


def oracle_thresholds(g_truth: FunctionSeries, deviation_spectrum: Spectrum,
                      n: int, m: int, search_max: int | None = None) -> tuple[int, int]:
    """Truth-dependent oracle thresholds (k1*, k2*) for the double-thresholding
    estimator.

    k2* is the smallest k with ``sum_{l>k} (g_l^2 + lambda~_l) <= k/(n m)``;
    k1* is the smallest k <= k2* with that bias plus the variance proxy
    ``k/n + sum_{k+1..k2*} (lambda~_l (1 + 1/m) + 1/(n m))`` at most ``2 k / n``.
    Tail sums past the working range use the analytic integral bound.
    """
    if search_max is None:
        search_max = max(len(g_truth), n * m, 16)
    lamt = deviation_spectrum.eigenvalues(search_max)
    g_sq = g_truth.padded(search_max) ** 2
    tail_beyond = deviation_spectrum.tail_sum(search_max)
    # bias[k] = sum_{l > k} (g_l^2 + lambda~_l), k = 0..search_max
    combined = g_sq + lamt
    bias = np.concatenate([np.cumsum(combined[::-1])[::-1], [0.0]]) + tail_beyond
    k_grid = np.arange(search_max + 1)
    feasible2 = np.nonzero(bias[1:] <= k_grid[1:] / (n * m))[0]
    if feasible2.size == 0:
        raise ValueError("oracle search range too small; raise search_max")
    k2 = int(feasible2[0]) + 1

    var_terms = lamt[:k2] * (1.0 + 1.0 / m) + 1.0 / (n * m)
    # variance[k] = k/n + sum_{l=k+1..k2} var_terms[l]
    var_tail = np.concatenate([np.cumsum(var_terms[::-1])[::-1], [0.0]])
    ks = np.arange(1, k2 + 1)
    total = bias[k2] + ks / n + var_tail[1:]
    feasible1 = np.nonzero(total <= 2.0 * ks / n)[0]
    k1 = int(feasible1[0]) + 1 if feasible1.size else k2
    return k1, k2
