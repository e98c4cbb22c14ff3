"""Estimators of the population-level and subject-specific functions.

Includes empirical basis coefficients, pooled/thresholded series estimators,
data-driven (Lepskii-style) threshold selection, the double-thresholding
subject estimator, a single-subject baseline, conjugate posterior means, and
truth-dependent oracle thresholds for diagnostics.
"""

from __future__ import annotations

import math

import numpy as np

from .basis import FunctionSeries, Spectrum, fourier_matrices
from .simulate import CoefficientPanel, MultiSubjectTable, SubjectStats

__all__ = [
    "empirical_coefficients",
    "leave_one_out_means",
    "threshold_estimate_g",
    "lepskii_threshold_g",
    "double_threshold_estimate_f",
    "lepskii_thresholds_f",
    "single_subject_threshold",
    "single_subject_estimate",
    "posterior_mean_g",
    "posterior_mean_f",
    "oracle_thresholds",
]

# the Lepskii rules' default comparison constants, each spelled only here: the
# pooled g rule's tau, the f rule's tau1 and tau2 and the single-subject rule's tau
TAU_G = 6.5
TAU1 = 4.5
TAU2 = 6.5
TAU_SINGLE = 2.0


def empirical_coefficients(table: MultiSubjectTable, width: int) -> CoefficientPanel:
    """Per-subject empirical basis coefficients of a curve table.

    Entry (j, k) is ``(1/n) * sum_i Y_i^(j) psi_k(t_i^(j))``.

    The panel is flagged as aliased when ``width`` exceeds half the grid size.
    The design matrix is rebuilt only where the grid changes from one subject to the next.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    n_obs = table.n
    rows = np.empty((table.m, width))
    # one matvec per row: a single Y @ psi sums in another order
    for j, (psi, y) in enumerate(zip(fourier_matrices(table.times, width), table.values)):
        rows[j] = psi.T @ y / n_obs
    return CoefficientPanel(n=n_obs, m=table.m, coeffs=rows, aliased=width > n_obs / 2)


def leave_one_out_means(panel: CoefficientPanel) -> np.ndarray:
    """Row j is the mean of every panel row but row j, for all j at once, as a
    read-only array.

    Bit for bit equal to the axis-0 mean of the panel without row j, which
    ``(colsum - row) / (m - 1)`` would not be.  numpy's axis-0 sum adds whole
    rows one after another, so row j folds c_{j+1}, ..., c_{m-1} into the
    prefix sum c_0 + ... + c_{j-1} in one reduction; costs m^2 K / 2 adds.  A
    single column is summed pairwise instead, so there each row reduces the
    m - 1 others themselves, swapping in one per row (m^2 adds).
    """
    if panel.m < 2:
        raise ValueError("leave-one-out pooling needs at least 2 subjects")
    c, m = panel.coeffs, panel.m
    out = np.empty_like(c)
    if panel.width == 1:
        others = c[1:].copy()
        for j in range(m):
            np.add.reduce(others, axis=0, out=out[j])
            if j < m - 1:
                others[j] = c[j]
    else:
        np.add.reduce(c[1:], axis=0, out=out[0])
        np.cumsum(c[:-1], axis=0, out=out[1:])
        work = c.copy()
        for j in range(1, m):
            work[j] = out[j]
            np.add.reduce(work[j:], axis=0, out=out[j])
    out /= m - 1
    out.setflags(write=False)
    return out


def _before(k, width: int) -> np.ndarray:
    """Mask of the columns before k (one int, or one per row) in rows of ``width``."""
    return np.arange(width) < np.asarray(k)[..., None]


def _estimate(coeffs: np.ndarray, k) -> np.ndarray:
    """The (rows, width) stack ``coeffs``, zero past each row's threshold k."""
    if np.less(k, 0).any() or np.greater(k, coeffs.shape[-1]).any():
        raise ValueError(f"threshold must be in 0..{coeffs.shape[-1]}, got {k}")
    return np.where(_before(k, coeffs.shape[-1]), coeffs, 0.0)


def threshold_estimate_g(stats: SubjectStats, K) -> np.ndarray:
    """Pooled series estimator keeping the first K coefficients of each row,
    as a (rows, width) array."""
    return _estimate(stats.pooled, K)


def lepskii_min_k(sq_terms: np.ndarray, tau: float, denom: float, bound: int) -> np.ndarray:
    """Smallest k in 1..bound with sum_{i=k+1..l} sq_terms[r, i] <= tau*l/denom
    for every l in (k, bound], one k per row r of a (rows, K) stack.

    ``sq_terms[r, i-1]`` holds the i-th squared coefficient term.  k = bound
    always qualifies (the condition set is empty there)."""
    if np.ndim(sq_terms) != 2:
        raise ValueError(f"sq_terms must be a (rows, K) stack, got shape {np.shape(sq_terms)}")
    if not tau > 0:
        raise ValueError("tau must be positive")
    if bound < 1:
        raise ValueError("search bound must be >= 1")
    if bound == 1:  # no l > k to compare with, and argmax cannot reduce an empty axis
        return np.ones(sq_terms.shape[0], dtype=int)
    partial = np.cumsum(sq_terms[:, :bound], axis=-1)
    slack = partial - tau * np.arange(1, bound + 1) / denom
    # ok[:, k-1] for k < bound: max over l in (k, bound] of slack[:, l-1] (a running
    # max from the right, in place) is at most partial[:, k-1], the first k terms' sum.
    np.maximum.accumulate(slack[:, :0:-1], axis=-1, out=slack[:, :0:-1])
    ok = slack[:, 1:] <= partial[:, :-1]
    return np.where(ok.any(axis=-1), ok.argmax(axis=-1) + 1, bound)


def lepskii_threshold_g(stats: SubjectStats, tau: float = TAU_G) -> np.ndarray:
    """Data-driven truncation level k for the pooled estimator of g, one k
    per row.

    Searches k in 1..floor(sqrt(n*m)) for the smallest level whose estimator is
    within ``tau * l / (n*m)`` (squared L2, via Parseval) of every finer one.
    """
    bound = math.isqrt(stats.n * stats.m)
    if bound > stats.width:
        raise ValueError(f"panel too narrow for search bound {bound}")
    return lepskii_min_k(stats.pooled[:, :bound] ** 2, tau, stats.n * stats.m, bound)


def double_threshold_estimate_f(stats: SubjectStats, k1, k2) -> np.ndarray:
    """Subject estimator using own coefficients up to k1, leave-one-out pooled
    coefficients on (k1, k2], zero beyond, as a (rows, width) array."""
    if np.greater(k1, k2).any():
        raise ValueError(f"need k1 <= k2, got ({k1}, {k2})")
    if np.greater(k2, stats.width).any():
        raise ValueError("k2 exceeds panel width")
    past_k1 = np.where(_before(k2, stats.width), stats.donor_mean, 0.0)
    return np.where(_before(k1, stats.width), stats.own, past_k1)


def lepskii_thresholds_f(stats: SubjectStats, tau1: float = TAU1, tau2: float = TAU2):
    """Data-driven thresholds (k1, k1 v k2) for the double-thresholding
    subject estimator, one pair per row.

    k2 runs the pooled rule (leave-one-out, bound ``tau2 * l / (n*m)`` over
    l <= sqrt(n*m)); k1 runs the own-vs-pooled rule (bound ``tau1 * l / n``
    over l <= sqrt(n)), whose norm differences reduce to sums of squared
    (own - pooled) coefficient gaps.
    """
    n, m = stats.n, stats.m
    bound2 = math.isqrt(n * m)
    if bound2 > stats.width:
        raise ValueError(f"panel too narrow for search bound {bound2}")
    bound1 = math.isqrt(n)
    k2 = lepskii_min_k(stats.donor_mean[:, :bound2] ** 2, tau2, n * m, bound2)
    k1 = lepskii_min_k((stats.own[:, :bound1] - stats.donor_mean[:, :bound1]) ** 2,
                       tau1, n, bound1)
    return k1, np.maximum(k1, k2)


def single_subject_threshold(stats: SubjectStats, tau: float = TAU_SINGLE) -> np.ndarray:
    """Threshold k of the single-subject baseline, from its own coefficients
    alone: k in 1..floor(sqrt(n)) with the comparison bound ``tau * l / (n*m)``,
    one k per row."""
    bound = math.isqrt(stats.n)
    if bound > stats.width:
        raise ValueError(f"row too short for search bound {bound}")
    return lepskii_min_k(stats.own[:, :bound] ** 2, tau, stats.n * stats.m, bound)


def single_subject_estimate(stats: SubjectStats, k) -> np.ndarray:
    """Single-subject baseline keeping the first k of each row's own
    coefficients, as a (rows, width) array."""
    return _estimate(stats.own, k)


def posterior_mean_g(stats: SubjectStats, prior: Spectrum, deviation: Spectrum) -> np.ndarray:
    """Conjugate posterior mean for g: shrink the all-subject pooled mean by
    ``1 / (zeta_k^{-1} m^{-1} (zeta~_k + 1/n) + 1)``, as a (rows, width)
    array.  ``prior`` and ``deviation`` are the assumed spectra of g and of
    the deviations, which may differ from the truth; the noise variance is 1."""
    lam = prior.eigenvalues(stats.width)
    lamt = deviation.eigenvalues(stats.width)
    shrink = 1.0 / ((lamt + 1.0 / stats.n) / (stats.m * lam) + 1.0)
    return shrink * stats.pooled


def posterior_mean_f(stats: SubjectStats, prior: Spectrum, deviation: Spectrum) -> np.ndarray:
    """Conjugate posterior mean for one subject's function.

    Combines the subject's own coefficients with the leave-one-out pooled
    mean of the m - 1 donor subjects.  A (rows, width) array; the assumed
    spectra are as in :func:`posterior_mean_g`.
    """
    n = stats.n
    lam = prior.eigenvalues(stats.width)
    lamt = deviation.eigenvalues(stats.width)
    donors = stats.m - 1
    c = 1.0 / lam + 1.0 / lamt + donors / (lamt + 1.0 / n)
    a = (1.0 / lamt) * donors / (lamt + 1.0 / n) / c
    b = (1.0 / lam + donors / (lamt + 1.0 / n)) / c
    return (stats.own * n + stats.donor_mean * a) / (n + b / lamt)


# terms summed per chunk of oracle_thresholds' top-down scan
ORACLE_CHUNK = 2**15


def oracle_thresholds(g_truth: FunctionSeries, deviation_spectrum: Spectrum,
                      n: int, m: int, search_max: int | None = None) -> tuple[int, int]:
    """Truth-dependent oracle thresholds (k1*, k2*) for the double-thresholding
    estimator.

    k2* is the smallest k with ``sum_{l>k} (g_l^2 + lambda~_l) <= k/(n m)``;
    k1* is the smallest k <= k2* with that bias plus the variance proxy
    ``k/n + sum_{k+1..k2*} (lambda~_l (1 + 1/m) + 1/(n m))`` at most ``2 k / n``.
    Tail sums past the working range use the analytic integral bound.

    The bias falls and k/(n m) grows with k, so the k that meet the first
    bound form a suffix: k2* is one above the largest k that fails it.  The
    bias is summed down from ``search_max`` in chunks of ``ORACLE_CHUNK``
    terms, each cumsum carrying the sum above it: the terms are added in the
    order of one full-length cumsum, and of the arrays only the k2* variance
    terms grow with n m.
    """
    if search_max is None:
        search_max = max(len(g_truth), n * m, 16)
    tail_beyond = deviation_spectrum.tail_sum(search_max)
    # bias_above: the bias at the k just above the chunk, k = search_max first
    bias_above, carry, k2 = tail_beyond, 0.0, 1
    if not bias_above <= search_max / (n * m):
        raise ValueError("oracle search range too small; raise search_max")
    for hi in range(search_max, 1, -ORACLE_CHUNK):
        lo = max(hi - ORACLE_CHUNK, 1)
        # terms l = lo+1..hi, reversed: the bias of k = hi-1 down to lo
        terms = deviation_spectrum.eigenvalues(hi, lo)[::-1]
        g_part = g_truth.coeffs[lo:hi][::-1]
        terms[terms.size - g_part.size:] += g_part ** 2
        terms[0] += carry
        sums = np.cumsum(terms)
        carry = sums[-1]
        bias = sums + tail_beyond
        failed = np.nonzero(~(bias <= np.arange(hi - 1, lo - 1, -1) / (n * m)))[0]
        if failed.size:
            k2 = hi - int(failed[0])
            bias_above = bias[failed[0] - 1] if failed[0] else bias_above
            break
        bias_above = bias[-1]

    var_terms = deviation_spectrum.eigenvalues(k2) * (1.0 + 1.0 / m) + 1.0 / (n * m)
    # variance[k] = k/n + sum_{l=k+1..k2} var_terms[l]
    var_tail = np.concatenate([np.cumsum(var_terms[::-1])[::-1], [0.0]])
    ks = np.arange(1, k2 + 1)
    total = bias_above + ks / n + var_tail[1:]
    feasible1 = np.nonzero(total <= 2.0 * ks / n)[0]
    k1 = int(feasible1[0]) + 1 if feasible1.size else k2
    return k1, k2
