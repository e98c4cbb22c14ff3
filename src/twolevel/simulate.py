"""Data generation for the hierarchical two-level model.

Two observation modes are supported:

* ``sequence``: each subject's data is its coefficient vector observed with
  i.i.d. N(0, 1/n) noise per coefficient (the idealized white-noise model).
* ``regression``: each subject is observed at fixed grid points in [0, 1]
  with i.i.d. N(0, noise_sd^2) errors, giving a ``subject,i,t,y`` table.

All randomness flows through a master seed; every (replicate, subject) pair
consumes its own counter-derived substream so results do not depend on
execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import FunctionSeries, Spectrum, fourier_matrix, series_eval

__all__ = [
    "ModelConfig",
    "CoefficientPanel",
    "SubjectStats",
    "MultiSubjectTable",
    "GridFunction",
    "default_k_max",
    "substream",
    "sample_population",
    "sample_panel",
    "sample_stats",
    "build_covariance",
    "study1_grids",
    "simulate_regression",
]


def default_k_max(n: int, m: int) -> int:
    """Truncation level comfortably above the Lepskii search bound sqrt(n*m)."""
    return int(math.ceil(4.0 * math.sqrt(n * m)))


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator derived from a master seed and integer counters."""
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), *map(int, key)]))


@dataclass(frozen=True)
class ModelConfig:
    """Sampling configuration for the hierarchical model.

    ``n`` is the per-subject precision (sequence mode) or observation count
    (regression mode); ``m`` is the number of subjects.
    """

    n: int
    m: int
    prior_spectrum: Spectrum
    deviation_spectrum: Spectrum
    k_max: int = 0

    def __post_init__(self):
        if self.n < 1 or self.m < 0:
            raise ValueError(f"need n >= 1 and m >= 0, got n={self.n}, m={self.m}")
        if self.k_max == 0:
            object.__setattr__(self, "k_max", default_k_max(self.n, max(self.m, 1)))
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")


@dataclass(frozen=True)
class CoefficientPanel:
    """m x K matrix of per-subject basis coefficients, plus (n, m).

    ``aliased`` is set when the coefficients came from a regression grid too
    coarse for the requested number of frequencies.
    """

    n: int
    m: int
    coeffs: np.ndarray
    aliased: bool = False

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 2 or c.shape[0] != self.m:
            raise ValueError(f"coeffs must be an {self.m} x K matrix, got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficient panel has non-finite entries")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def width(self) -> int:
        return self.coeffs.shape[1]


@dataclass(frozen=True)
class SubjectStats:
    """What every estimator reads of one subject in an m-subject study: its
    own coefficient row and the mean row of the other m - 1 subjects.

    ``own`` may also be a (rows, K) stack of subjects, with ``donor_mean`` of
    the same shape; ``width`` is K either way.  ``donor_mean`` is None
    exactly when m = 1.
    """

    n: int
    m: int
    own: np.ndarray
    donor_mean: np.ndarray | None

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"need at least 1 subject, got m={self.m}")
        if (self.donor_mean is None) != (self.m == 1):
            raise ValueError("donor_mean must be given exactly when m >= 2")
        shape = np.shape(self.own)
        if len(shape) not in (1, 2):
            raise ValueError(f"own must be one row or a stack of rows, got shape {shape}")
        for name in ("own", "donor_mean") if self.m > 1 else ("own",):
            row = np.array(getattr(self, name), dtype=float)
            if row.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {row.shape}")
            if not np.all(np.isfinite(row)):
                raise ValueError(f"{name} has non-finite entries")
            row.setflags(write=False)
            object.__setattr__(self, name, row)

    @property
    def width(self) -> int:
        return self.own.shape[-1]

    @property
    def pooled(self) -> np.ndarray:
        """Mean row of all m subjects."""
        if self.donor_mean is None:
            return self.own
        return (self.own + (self.m - 1) * self.donor_mean) / self.m


@dataclass(frozen=True)
class MultiSubjectTable:
    """Per-subject curves in the ``subject,i,t,y`` schema: the data pipeline's
    input and the regression-mode simulator's output."""

    subject_ids: tuple
    indices: tuple      # per subject, array of time indices
    times: tuple        # per subject, array of t in [0, 1]
    values: tuple       # per subject, array of y
    rescaled: bool = False

    def __post_init__(self):
        if not len(self.subject_ids) == len(self.indices) == len(self.times) == len(self.values):
            raise ValueError("need one index, time and value array per subject")
        for sid, idx, t, y in zip(self.subject_ids, self.indices, self.times, self.values):
            if not idx.size == t.size == y.size:
                raise ValueError(f"subject {sid}: indices, times and values differ in length")
            if not np.all(np.diff(t) > 0):
                raise ValueError(f"subject {sid}: times must be strictly increasing")

    @property
    def m(self) -> int:
        return len(self.subject_ids)

    @property
    def n(self) -> int:
        return self.indices[0].size if self.m else 0

    def to_csv(self) -> str:
        lines = ["subject,i,t,y"]
        for sid, idx, t, y in zip(self.subject_ids, self.indices, self.times, self.values):
            for i, ti, yi in zip(idx, t, y):
                lines.append(f"{sid},{i},{float(ti)!r},{float(yi)!r}")
        return "\n".join(lines) + "\n"


class GridFunction:
    """Function known only at a fixed set of points (covariance-route truths)."""

    def __init__(self, points, values):
        order = np.argsort(np.asarray(points, dtype=float))
        self.points = np.asarray(points, dtype=float)[order]
        self.values = np.asarray(values, dtype=float)[order]

    def __call__(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        idx = np.searchsorted(self.points, t)
        idx = np.clip(idx, 0, self.points.size - 1)
        if not np.allclose(self.points[idx], t, rtol=0.0, atol=1e-12):
            raise ValueError("GridFunction evaluated off its support points")
        return self.values[idx]


def sample_population(cfg: ModelConfig, rng: np.random.Generator) -> FunctionSeries:
    """Draw g with independent N(0, lambda_k) coefficients, k = 1..k_max."""
    sd = np.sqrt(cfg.prior_spectrum.eigenvalues(cfg.k_max))
    return FunctionSeries(sd * rng.standard_normal(cfg.k_max))


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


def sample_stats(g: FunctionSeries, cfg: ModelConfig, rng: np.random.Generator):
    """Draw subject 0's statistics without the other m - 1 rows.

    Subject 0 is f0 = g + e0 with e0_k ~ N(0, lambda~_k), observed as
    ``own = f0 + n^{-1/2} Z``; the other subjects' mean row is
    ``donor_mean = g + sqrt((lambda~_k + 1/n) / (m - 1)) Z'``.  The rows are
    Gaussian given g, so (g, f0, own, donor_mean) has the same joint law as
    under :func:`sample_panel`, at O(k_max) cost instead of O(m k_max).
    Draws e0, Z, Z' in that order and returns (e0, SubjectStats).
    """
    if len(g) > cfg.k_max:
        raise ValueError("population series longer than k_max")
    base = g.padded(cfg.k_max)
    lamt = cfg.deviation_spectrum.eigenvalues(cfg.k_max)
    deviation0 = np.sqrt(lamt) * rng.standard_normal(cfg.k_max)
    own = base + deviation0 + rng.standard_normal(cfg.k_max) / math.sqrt(cfg.n)
    donor_mean = None
    if cfg.m > 1:
        donor_sd = np.sqrt((lamt + 1.0 / cfg.n) / (cfg.m - 1))
        donor_mean = base + donor_sd * rng.standard_normal(cfg.k_max)
    return deviation0, SubjectStats(cfg.n, cfg.m, own, donor_mean)


def build_covariance(spec: Spectrum, points, terms: int) -> np.ndarray:
    """Finite Mercer sum ``sum_{k<=terms} lambda_k psi_k(s) psi_k(t)``.

    The result is symmetrized; positive semi-definiteness may require a small
    diagonal jitter (see ``simulate_regression``).
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    points = np.asarray(points, dtype=float)
    if points.size == 0:
        return np.zeros((0, 0))
    psi = fourier_matrix(points, terms)
    cov = (psi * spec.eigenvalues(terms)) @ psi.T
    return 0.5 * (cov + cov.T)


def study1_grids(n: int, m: int, j: int, N: int = 20000, eval_count: int = 1000):
    """Disjoint train grid for subject j and the shared evaluation grid.

    Train: {2(m i + j)/N : i = 0..n-1}.  Eval: {(20 i + 1)/N : i = 0..eval_count-1}.
    """
    if not 1 <= j <= m:
        raise ValueError(f"subject index must be in 1..{m}, got {j}")
    if 2 * (m * (n - 1) + j) > N:
        raise ValueError(f"grid overflow: need 2*(m*(n-1)+j) <= N, got N={N}")
    if 20 * (eval_count - 1) + 1 > N:
        raise ValueError("eval grid overflows N")
    train = (2.0 * (m * np.arange(n) + j)) / N
    eval_grid = (20.0 * np.arange(eval_count) + 1.0) / N
    return train, eval_grid


def _mvn_sample(mean, cov, rng: np.random.Generator):
    """Cholesky sampler with a trace-scaled PSD repair jitter."""
    dim = cov.shape[0]
    if dim == 0:
        return np.zeros(0)
    jitter = 1e-10 * np.trace(cov) / dim
    try:
        chol = np.linalg.cholesky(cov + jitter * np.eye(dim))
    except np.linalg.LinAlgError as err:
        raise np.linalg.LinAlgError(f"covariance not PSD after jitter {jitter:g}") from err
    return np.asarray(mean) + chol @ rng.standard_normal(dim)


def simulate_regression(cfg: ModelConfig, grids, seed: int, noise_sd: float = 1.0,
                        eval_grid=None, sampling: str = "series"):
    """Generate (g truth, subject truths, MultiSubjectTable).

    ``sampling="series"`` draws g and the deviations as k_max-term series;
    ``sampling="covariance"`` draws exact multivariate normals from the
    finite Mercer covariance at the needed points, in which case truths come
    back as :class:`GridFunction` over the subject's grid plus ``eval_grid``.
    Subject j = 1..m draws its deviation and then its noise from
    ``substream(seed, j)`` and is named ``str(j)`` in the table.
    """
    grids = [np.asarray(g, dtype=float) for g in grids]
    if len(grids) != cfg.m:
        raise ValueError(f"need {cfg.m} grids, got {len(grids)}")
    if sampling not in ("series", "covariance"):
        raise ValueError(f"unknown sampling route {sampling!r}")
    rng_g = substream(seed, 0)
    subjects, observations = [], []

    if sampling == "series":
        g = sample_population(cfg, rng_g)
        base = g.padded(cfg.k_max)
        dev_sd = np.sqrt(cfg.deviation_spectrum.eigenvalues(cfg.k_max))
        for j, grid in enumerate(grids, start=1):
            rng_j = substream(seed, j)
            f = FunctionSeries(base + dev_sd * rng_j.standard_normal(cfg.k_max))
            y = series_eval(f, grid) + noise_sd * rng_j.standard_normal(grid.size)
            subjects.append(f)
            observations.append(y)
    else:
        eval_grid = np.zeros(0) if eval_grid is None else np.asarray(eval_grid, dtype=float)
        all_points = np.unique(np.concatenate([eval_grid] + grids))
        cov_g = build_covariance(cfg.prior_spectrum, all_points, cfg.k_max)
        g_values = _mvn_sample(np.zeros(all_points.size), cov_g, rng_g)
        g = GridFunction(all_points, g_values)
        for j, grid in enumerate(grids, start=1):
            rng_j = substream(seed, j)
            pts = np.unique(np.concatenate([eval_grid, grid]))
            cov_d = build_covariance(cfg.deviation_spectrum, pts, cfg.k_max)
            dev = _mvn_sample(np.zeros(pts.size), cov_d, rng_j)
            f = GridFunction(pts, g(pts) + dev)
            y = f(grid) + noise_sd * rng_j.standard_normal(grid.size)
            subjects.append(f)
            observations.append(y)

    table = MultiSubjectTable(tuple(str(j) for j in range(1, cfg.m + 1)),
                              tuple(np.arange(1, grid.size + 1) for grid in grids),
                              tuple(grids), tuple(observations))
    return g, subjects, table
