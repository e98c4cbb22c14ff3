"""Reference routes the tests compare the library's fast paths against:
pointwise basis evaluation, grid quadrature and Parseval sums of the L2
risk, RMSPE of one series on held-out points, the full m-subject panel
sampler with its pooled and leave-one-out means, the finite Mercer
covariance, the Monte Carlo engine one replicate at a time, and the
double-threshold fit as one ``np.select``."""

import math

import numpy as np

from twolevel.basis import FunctionSeries, Spectrum, fourier_matrix, series_eval
from twolevel.risk import RiskReport
from twolevel.simulate import (CoefficientPanel, ModelConfig, SubjectStats,
                               sample_population, substream)


def fourier_eval(k: int, t):
    """Evaluate the k-th Fourier basis function at points ``t`` in [0, 1]."""
    if k < 1:
        raise ValueError(f"basis index must be >= 1, got {k}")
    t = np.asarray(t, dtype=float)
    if k == 1:
        out = np.ones_like(t)
    elif k % 2 == 0:
        out = np.sqrt(2.0) * np.cos(2.0 * np.pi * (k // 2) * t)
    else:
        out = np.sqrt(2.0) * np.sin(2.0 * np.pi * (k // 2) * t)
    return out if out.ndim else float(out)


def default_eval_grid_g(points: int = 10000) -> np.ndarray:
    """Midpoint grid t_i = (i - 0.5)/points, i = 1..points."""
    return (np.arange(1, points + 1) - 0.5) / points


def default_eval_grid_f(N: int = 20000, points: int = 1000) -> np.ndarray:
    """Held-out grid {(20 i + 1)/N : i = 0..points-1}."""
    return (20.0 * np.arange(points) + 1.0) / N


def empirical_mise(estimate: FunctionSeries, truth_values, grid) -> float:
    """Mean squared difference between the series and truth values on a grid."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("evaluation grid must be nonempty")
    diff = series_eval(estimate, grid) - np.asarray(truth_values, dtype=float)
    return float(np.mean(diff**2))


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


def sample_panel(g: FunctionSeries, cfg: ModelConfig, rng: np.random.Generator):
    """Draw m subjects f^(j) = g + e^(j), e_k^(j) ~ N(0, lambda~_k), and
    observe each in sequence mode: f_k^(j) + n^{-1/2} Z_k^(j).

    All m x k_max deviations are drawn before the m x k_max noise, which
    consumes ``rng`` exactly as drawing subject by subject would.  Returns
    the (m, k_max) deviation array and the observed panel.
    """
    if len(g) > cfg.k_max:
        raise ValueError("population series longer than k_max")
    sd = np.sqrt(cfg.deviation_spectrum.eigenvalues(cfg.k_max))
    deviations = sd * rng.standard_normal((cfg.m, cfg.k_max))
    coeffs = rng.standard_normal((cfg.m, cfg.k_max))
    coeffs /= math.sqrt(cfg.n)
    # noise + (g + e), summed into the noise array: bit for bit the same as
    # (g + e) + noise, with one m x k_max temporary fewer alive
    coeffs += g.padded(cfg.k_max) + deviations
    return deviations, CoefficientPanel(n=cfg.n, m=cfg.m, coeffs=coeffs)


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
    panel, as a one-row stack: its row and the leave-one-out mean of the
    others."""
    if not 0 <= subject < panel.m:
        raise IndexError(f"subject index out of range: {subject}")
    donor_mean = pooled_coefficients(panel, exclude_subject=subject)
    return SubjectStats(panel.n, panel.m, panel.coeffs[subject][None], donor_mean[None])


def build_covariance(spec: Spectrum, points, terms: int) -> np.ndarray:
    """Finite Mercer sum ``sum_{k<=terms} lambda_k psi_k(s) psi_k(t)``.

    The result is symmetrized; positive semi-definiteness may require a small
    diagonal jitter.
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    points = np.asarray(points, dtype=float)
    if points.size == 0:
        return np.zeros((0, 0))
    psi = fourier_matrix(points, terms)
    cov = (psi * spec.eigenvalues(terms)) @ psi.T
    return 0.5 * (cov + cov.T)


def sample_stats_row(g: FunctionSeries, cfg, rng):
    """One replicate's draw of subject 0's statistics given g: e0, then Z,
    then Z'.  Returns (e0, one-row stack SubjectStats)."""
    base = g.padded(cfg.k_max)
    lamt = cfg.deviation_spectrum.eigenvalues(cfg.k_max)
    deviation0 = np.sqrt(lamt) * rng.standard_normal(cfg.k_max)
    own = base + deviation0 + rng.standard_normal(cfg.k_max) / math.sqrt(cfg.n)
    donor_sd = np.sqrt((lamt + 1.0 / cfg.n) / (cfg.m - 1))
    donor_mean = base + donor_sd * rng.standard_normal(cfg.k_max)
    return deviation0, SubjectStats(cfg.n, cfg.m, own[None], donor_mean[None])


def run_monte_carlo_per_replicate(cfg, plan, replicates: int, seed: int):
    """``run_monte_carlo`` one replicate at a time: draw from the replicate's
    substream, fit each estimator on the one-row stack and score its row
    as a FunctionSeries with ``parseval_mise``.  An exception raised by a
    fit propagates, as in the engine."""
    mises = {spec.label: np.full(replicates, np.nan) for spec in plan}
    for r in range(replicates):
        rng = substream(seed, r)
        g = sample_population(cfg, rng)
        deviation0, stats = sample_stats_row(g, cfg, rng)
        g_coeffs = g.padded(cfg.k_max)
        truths = {"g": g_coeffs, "f": g_coeffs + deviation0}
        for spec in plan:
            fitted, _ = spec.fit(stats)
            mises[spec.label][r] = parseval_mise(FunctionSeries(fitted[0]), truths[spec.target])
    return {spec.label: RiskReport(spec.label, spec.target, mises[spec.label], 0)
            for spec in plan}


def double_threshold_select(stats: SubjectStats, k1, k2) -> np.ndarray:
    """The double-threshold fit as the full-width array, built with
    ``np.select`` from a mask per threshold: own coefficients before k1,
    donor-mean coefficients before k2, zero beyond.  ``k1`` and ``k2`` are
    ints or one level per row of a stack."""
    columns = np.arange(stats.width)
    conditions = [columns < np.expand_dims(k1, -1), columns < np.expand_dims(k2, -1)]
    return np.select(conditions, [stats.own, stats.donor_mean])


def oracle_thresholds_full(g_truth: FunctionSeries, deviation_spectrum: Spectrum,
                           n: int, m: int, search_max: int | None = None) -> tuple[int, int]:
    """``estimators.oracle_thresholds`` on full arrays of length ``search_max``:
    the bias at every k from one reversed cumsum, and k2* the first k that
    meets its bound."""
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


def product_lattice(budget: float, density: int | None = None) -> list[tuple[int, int]]:
    """The product-budget designs as the planner listed them before its
    two-level cost: both axes from one list of candidates up to int(budget),
    every integer or about ``density`` log-spaced values, and the pairs with
    ``n * m <= budget``, n ascending and then m."""
    limit = int(budget)
    if density is None:
        axis = np.arange(1, limit + 1)
    else:
        vals = np.unique(np.round(np.logspace(0.0, math.log10(max(limit, 1)),
                                              int(density))).astype(int))
        axis = vals[(vals >= 1) & (vals <= limit)]
    return [(n, m) for n in axis.tolist() for m in axis.tolist() if n * m <= budget]
