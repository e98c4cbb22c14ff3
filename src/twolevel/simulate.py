"""Data generation for the hierarchical two-level model.

Two observation modes are supported:

* ``sequence``: each subject's data is its coefficient vector observed with
  i.i.d. N(0, 1/n) noise per coefficient (the idealized white-noise model).
* ``regression``: each subject is observed at fixed grid points in [0, 1]
  with i.i.d. N(0, noise_sd^2) errors, giving a ``subject,i,t,y`` table.

All randomness flows through a master seed and counter-derived substreams,
so results do not depend on execution order.  In sequence mode replicate r
reads the standard normals of ``substream(seed, r)``, drawn once per command
(:func:`replicate_normals`); in regression mode g and each subject j draw
from ``substream(seed, 0)`` and ``substream(seed, j)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import FunctionSeries, Spectrum, fourier_matrices

__all__ = [
    "ModelConfig",
    "CoefficientPanel",
    "SubjectStats",
    "MultiSubjectTable",
    "default_k_max",
    "substream",
    "replicate_normals",
    "sample_population",
    "sample_stats",
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

    @property
    def stats_width(self) -> int:
        """Standard normals one sequence-mode replicate reads
        (:func:`sample_stats`): g, e0, Z and Z', k_max each."""
        return 4 * self.k_max


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
    """What every estimator reads: the (rows, K) stack ``own`` of subjects'
    coefficient rows, one subject per m-subject study (m >= 2), and
    ``donor_mean`` of the same shape, each row the mean row of the study's
    other m - 1 subjects."""

    n: int
    m: int
    own: np.ndarray
    donor_mean: np.ndarray

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"need at least 2 subjects, got m={self.m}")
        shape = np.shape(self.own)
        if len(shape) != 2:
            raise ValueError(f"own must be a (rows, width) stack, got shape {shape}")
        for name in ("own", "donor_mean"):
            row = getattr(self, name)
            # a read-only float array is kept as given; anything else is copied,
            # so that the caller cannot change the stats afterwards
            if not (isinstance(row, np.ndarray) and row.dtype == np.float64
                    and not row.flags.writeable):
                row = np.array(row, dtype=float)
                row.setflags(write=False)
            if row.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {row.shape}")
            if not np.all(np.isfinite(row)):
                raise ValueError(f"{name} has non-finite entries")
            object.__setattr__(self, name, row)

    @property
    def width(self) -> int:
        return self.own.shape[-1]

    @cached_property
    def pooled(self) -> np.ndarray:
        """Mean row of all m subjects, one per row of the stack."""
        pooled = (self.own + (self.m - 1) * self.donor_mean) / self.m
        pooled.setflags(write=False)
        return pooled


@dataclass(frozen=True)
class MultiSubjectTable:
    """Per-subject curves in the ``subject,i,t,y`` schema, as (m, n) arrays with
    row j for subject j (sequences of rows are stacked): the data pipeline's
    input and the regression-mode simulator's output."""

    subject_ids: tuple
    indices: np.ndarray     # (m, n) time indices
    times: np.ndarray       # (m, n) t in [0, 1], strictly increasing along a row
    values: np.ndarray      # (m, n) y
    rescaled: bool = False

    def __post_init__(self):
        ids, m = self.subject_ids, len(self.subject_ids)
        columns = (self.indices, self.times, self.values)
        if any(len(col) != m for col in columns):
            raise ValueError("need one index, time and value array per subject")
        try:
            columns = [np.asarray(col).reshape(m, -1 if m else 0) for col in columns]
        except ValueError:  # rows of unequal length do not stack
            raise ValueError("subjects must share a common grid size") from None
        if len({col.shape for col in columns}) > 1:
            raise ValueError(f"subject {ids[0]}: indices, times and values differ in length")
        # compared, not subtracted, so that a NaN fails too
        bad = ~(columns[1][:, 1:] > columns[1][:, :-1]).all(axis=1)
        if bad.any():
            raise ValueError(f"subject {ids[bad.argmax()]}: times must be strictly increasing")
        for name, col in zip(("indices", "times", "values"), columns):
            object.__setattr__(self, name, col)

    @property
    def m(self) -> int:
        return len(self.subject_ids)

    @property
    def n(self) -> int:
        return self.indices.shape[1]


def sample_population(cfg: ModelConfig, rng: np.random.Generator) -> FunctionSeries:
    """Draw g with independent N(0, lambda_k) coefficients, k = 1..k_max."""
    sd = np.sqrt(cfg.prior_spectrum.eigenvalues(cfg.k_max))
    return FunctionSeries(sd * rng.standard_normal(cfg.k_max))


def replicate_normals(seed: int, replicates: int, width: int) -> np.ndarray:
    """(replicates, width) block of standard normals whose row r is the first
    ``width`` draws of ``substream(seed, r)``.

    A command draws this block once and every config it runs reads a prefix
    of each row (:func:`sample_stats`), so the configs of one run share their
    random numbers: a size-w draw of a stream is bit for bit the first w
    values of a longer draw.
    """
    if replicates < 1:
        raise ValueError("need at least one replicate")
    normals = np.empty((replicates, width))
    for r, row in enumerate(normals):
        substream(seed, r).standard_normal(out=row)
    return normals


def sample_stats(cfg: ModelConfig, normals: np.ndarray):
    """Subject 0's statistics in ``len(normals)`` independent datasets,
    without the other m - 1 rows (m >= 2, checked before anything is read).

    Row r of ``normals`` holds replicate r's standard normals
    (:func:`replicate_normals`).  The config reads the first
    ``cfg.stats_width`` of them as the consecutive k_max-wide slices g, e0, Z
    and Z': g with g_k ~ N(0, lambda_k) and subject 0's
    deviation e0_k ~ N(0, lambda~_k).  Subject 0 is f0 = g + e0, observed as
    ``own = f0 + n^{-1/2} Z``; the other subjects' mean row is
    ``donor_mean = g + sqrt((lambda~_k + 1/n) / (m - 1)) Z'``.  The rows are
    Gaussian given g, so (g, f0, own, donor_mean) has the same joint law as
    when all m subjects g + e^(j) are drawn and observed with N(0, 1/n) noise,
    at O(k_max) cost instead of O(m k_max).  ``normals`` is only read, so the
    configs of one command can share it.

    Returns the (replicates, k_max) stacks g and f0 and the stacked
    :class:`SubjectStats`, whose stacks are read-only.
    """
    if cfg.m < 2:  # the donor variance divides by m - 1
        raise ValueError(f"need at least 2 subjects, got m={cfg.m}")
    k = cfg.k_max
    if normals.ndim != 2 or normals.shape[1] < cfg.stats_width:
        raise ValueError(f"need (replicates, >= {cfg.stats_width}) normals, "
                         f"got shape {normals.shape}")
    g_z, e0_z, z, donor_z = (normals[:, i * k:(i + 1) * k] for i in range(4))
    # each element as sd * z, (g + e0) + z / sqrt(n) and g + donor_sd * z'
    # (IEEE products and sums commute bit for bit)
    g = g_z * np.sqrt(cfg.prior_spectrum.eigenvalues(k))
    if not np.all(np.isfinite(g)):
        raise ValueError("population coefficients must be finite")
    lamt = cfg.deviation_spectrum.eigenvalues(k)
    f0 = e0_z * np.sqrt(lamt)
    f0 += g
    own = z / math.sqrt(cfg.n)
    own += f0
    own.setflags(write=False)
    donor_mean = donor_z * np.sqrt((lamt + 1.0 / cfg.n) / (cfg.m - 1))
    donor_mean += g
    donor_mean.setflags(write=False)
    return g, f0, SubjectStats(cfg.n, cfg.m, own, donor_mean)


def simulate_regression(cfg: ModelConfig, grids, seed: int, noise_sd: float = 1.0):
    """Generate (g truth, subject truths, MultiSubjectTable).

    g and the deviations are drawn as k_max-term series.  g draws from
    ``substream(seed, 0)``; subject j = 1..m draws its deviation and then its
    noise from ``substream(seed, j)`` and is named ``str(j)`` in the table.
    """
    grids = [np.asarray(g, dtype=float) for g in grids]
    if len(grids) != cfg.m:
        raise ValueError(f"need {cfg.m} grids, got {len(grids)}")
    if len({grid.size for grid in grids}) > 1:  # before fourier_matrices stacks them
        raise ValueError("subjects must share a common grid size")
    g = sample_population(cfg, substream(seed, 0))
    base = g.padded(cfg.k_max)
    dev_sd = np.sqrt(cfg.deviation_spectrum.eigenvalues(cfg.k_max))
    subjects, observations = [], []
    for j, (grid, psi) in enumerate(zip(grids, fourier_matrices(grids, cfg.k_max)), start=1):
        rng_j = substream(seed, j)
        f = FunctionSeries(base + dev_sd * rng_j.standard_normal(cfg.k_max))
        y = psi @ f.coeffs + noise_sd * rng_j.standard_normal(grid.size)
        subjects.append(f)
        observations.append(y)
    table = MultiSubjectTable(tuple(str(j) for j in range(1, cfg.m + 1)),
                              tuple(np.arange(1, grid.size + 1) for grid in grids),
                              tuple(grids), tuple(observations))
    return g, subjects, table
