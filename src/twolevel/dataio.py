"""Multi-subject table ingestion, train/test splitting, and the RMSPE
comparison pipeline for real (or schema-identical synthetic) curve data.

Input schema is CSV with header ``subject,i,t,y``: one row per (subject,
time-index) pair, with contiguous indices 1..n and strictly increasing times
within each subject.  Times are rescaled to [0, 1] at load when they fall
outside the unit interval.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .basis import fourier_matrix
from .estimators import (empirical_coefficients, leave_one_out_means,
                         lepskii_thresholds_f, single_subject_threshold)
from .simulate import MultiSubjectTable, SubjectStats

__all__ = [
    "DataError",
    "DataWarning",
    "MultiSubjectTable",
    "SplitSpec",
    "load_table",
    "parse_table",
    "split",
    "compare_estimators",
    "comparison_csv",
]


class DataError(ValueError):
    """Malformed input data; the message names the offending rows."""


class DataWarning(UserWarning):
    """Input data that was processed, but not as it came: times rescaled to
    [0, 1], or more coefficients fitted than the grid resolves."""


HEADER = "subject,i,t,y"
# Data lines converted per block: bounds the field strings held at once.
BLOCK_LINES = 8192


def parse_table(text: str) -> MultiSubjectTable:
    """Parse and validate a ``subject,i,t,y`` CSV; see :func:`load_table`.

    Valid tables take a block-vectorised route; any input it rejects is
    parsed again line by line, which raises the error of the first bad line
    or subject.  Warns (:class:`DataWarning`) when it rescales the times.
    """
    lines = text.splitlines()
    body = list(compress(lines, map(str.strip, lines)))
    if "#" in text:
        body = [ln for ln in body if not ln.startswith("#")]
    parsed = None
    if body and body[0].strip() == HEADER:
        parsed = _parse_blocks(body[1:])
    ids, indices, times, values = parsed or _parse_lines(lines)
    lo, hi = times.min(), times.max()
    rescaled = bool(lo < 0.0 or hi > 1.0)
    if rescaled:
        if hi == lo:
            raise DataError(f"every t is {float(lo)!r}; cannot rescale t to [0, 1]")
        times = (times - lo) / (hi - lo)
    try:
        table = MultiSubjectTable(ids, tuple(indices), tuple(times), tuple(values),
                                  rescaled=rescaled)
    except ValueError as err:
        # rescaling can merge times that were distinct but far from [0, 1]
        raise DataError(f"after rescaling t to [0, 1]: {err}") from None
    if rescaled:
        warnings.warn(f"t rescaled to [0, 1] from [{float(lo)!r}, {float(hi)!r}]",
                      DataWarning, stacklevel=2)
    return table


def _parse_blocks(rows: list[str]):
    """(subject ids, then indices, times and values as (m, n) arrays in
    subject order) of the data lines, or None if any line or subject is
    invalid."""
    count = len(rows)
    codes = np.empty(count, dtype=np.intp)
    idx = np.empty(count, dtype=np.int64)
    t = np.empty(count)
    y = np.empty(count)
    ids: dict[str, int] = {}
    for start in range(0, count, BLOCK_LINES):
        block = rows[start:start + BLOCK_LINES]
        size = len(block)
        # Joined by ",\n,", lines of 4 columns each put their fields at 5j..5j+3
        # and the size - 1 separator fields "\n" at 5j+4; no line holds a "\n",
        # so the separators sit there only if every line has 4 columns.
        fields = ",\n,".join(block).split(",")
        if len(fields) != 5 * size - 1 or fields[4::5].count("\n") != size - 1:
            return None
        stop = start + size
        codes[start:stop] = [ids.setdefault(sid, len(ids))
                             for sid in map(str.strip, fields[0::5])]
        try:
            idx[start:stop] = np.fromiter(map(int, fields[1::5]), np.int64, size)
            t[start:stop] = np.fromiter(map(float, fields[2::5]), float, size)
            y[start:stop] = np.fromiter(map(float, fields[3::5]), float, size)
        except (ValueError, OverflowError):
            return None
    if not (np.isfinite(t).all() and np.isfinite(y).all()):
        return None
    m = len(ids)
    counts = np.bincount(codes, minlength=m)
    if m == 0 or np.any(counts != counts[0]):
        return None
    n = int(counts[0])
    order = np.lexsort((idx, codes))
    idx = idx[order].reshape(m, n)
    t = t[order].reshape(m, n)
    if np.any(idx != np.arange(1, n + 1)) or np.any(np.diff(t, axis=1) <= 0):
        return None
    return tuple(ids), idx, t, y[order].reshape(m, n)


def _parse_lines(lines: list[str]):
    """Line-by-line reference route of :func:`parse_table`: raises the
    DataError of the first bad line, or of the first bad subject."""
    body = [(no, ln) for no, ln in enumerate(lines, start=1)
            if ln.strip() and not ln.startswith("#")]
    if not body:
        raise DataError("empty table")
    header_no, header = body[0]
    if header.strip() != HEADER:
        raise DataError(f"line {header_no}: expected header '{HEADER}', got {header!r}")
    rows: dict[str, list] = {}
    for no, ln in body[1:]:
        parts = ln.split(",")
        if len(parts) != 4:
            raise DataError(f"line {no}: expected 4 columns, got {len(parts)}")
        sid, i_str, t_str, y_str = (p.strip() for p in parts)
        try:
            i, t, y = int(i_str), float(t_str), float(y_str)
        except ValueError as err:
            raise DataError(f"line {no}: {err}") from None
        if not (math.isfinite(t) and math.isfinite(y)):
            raise DataError(f"line {no}: non-finite value")
        rows.setdefault(sid, []).append((no, i, t, y))
    if not rows:
        raise DataError("table has a header but no data rows")

    counts = {sid: len(r) for sid, r in rows.items()}
    n = max(counts.values())
    ragged = sorted(sid for sid, c in counts.items() if c != n)
    if ragged:
        raise DataError(f"ragged subjects (expected {n} rows each): {', '.join(ragged)}")

    indices, times, values = [], [], []
    for sid in rows:
        recs = sorted(rows[sid], key=lambda r: r[1])
        idx = np.array([r[1] for r in recs])
        if not np.array_equal(idx, np.arange(1, n + 1)):
            raise DataError(f"subject {sid}: time indices must be contiguous 1..{n} "
                            f"(first row at line {recs[0][0]})")
        t = np.array([r[2] for r in recs])
        if np.any(np.diff(t) <= 0):
            bad = int(np.nonzero(np.diff(t) <= 0)[0][0])
            raise DataError(f"subject {sid}: t not strictly increasing at line {recs[bad + 1][0]}")
        indices.append(idx)
        times.append(t)
        values.append(np.array([r[3] for r in recs]))
    return tuple(rows), np.array(indices), np.array(times), np.array(values)


def load_table(path) -> MultiSubjectTable:
    """Load and validate a multi-subject CSV file."""
    with open(path) as fh:
        return parse_table(fh.read())


@dataclass(frozen=True)
class SplitSpec:
    """Arithmetic held-out index set {a*i + b : i = 1..count}; train is the
    complement."""

    a: int
    b: int
    count: int

    def test_indices(self, n: int) -> np.ndarray:
        idx = self.a * np.arange(1, self.count + 1) + self.b
        if idx.size and (idx.min() < 1 or idx.max() > n):
            raise DataError(f"test indices out of range 1..{n}: "
                            f"{idx[(idx < 1) | (idx > n)].tolist()}")
        return idx


def split(table: MultiSubjectTable, spec: SplitSpec):
    """Partition every subject's indices into (train table, test table)."""
    test_idx = spec.test_indices(table.n)
    if len(set(test_idx.tolist())) == table.n:
        raise DataError(f"test indices cover all n = {table.n} time indices; "
                        f"no training data left")
    held_out = [np.isin(idx, test_idx) for idx in table.indices]

    def take(masks):
        return MultiSubjectTable(
            table.subject_ids,
            tuple(idx[k] for idx, k in zip(table.indices, masks)),
            tuple(t[k] for t, k in zip(table.times, masks)),
            tuple(y[k] for y, k in zip(table.values, masks)),
            rescaled=table.rescaled)

    return take([~k for k in held_out]), take(held_out)


def compare_estimators(table: MultiSubjectTable, spec: SplitSpec,
                       tau1: float = 4.5, tau2: float = 6.5, tau_single: float = 2.0):
    """Per-subject RMSPE of the single-subject estimator versus the adaptive
    double-thresholding estimator, scored on the held-out indices.

    Every subject's thresholds are selected at once, on the stack of all
    subjects' statistics.  Warns (:class:`DataWarning`) when the fit width
    exceeds half the training grid, so that the coefficients are aliased.

    Returns a list of (subject_id, rmspe_single, rmspe_double) triples.
    """
    if table.m < 2:
        raise DataError("comparison needs at least 2 subjects")
    train, test = split(table, spec)
    n, m = train.n, train.m
    width = max(math.isqrt(n * m), math.isqrt(n), 1)
    try:
        panel = empirical_coefficients(train, width)
        stats = SubjectStats(n, m, panel.coeffs, leave_one_out_means(panel))
    except ValueError as err:
        # finite y values can still overflow the coefficient or leave-one-out sums
        raise DataError(f"cannot fit the training data: {err}") from None
    if any(t.size == 0 for t in test.times):
        raise ValueError("test set must be nonempty")
    if panel.aliased:
        warnings.warn(f"fit width {width} exceeds n/2 = {n / 2:g} training points per "
                      f"subject; coefficients are aliased", DataWarning, stacklevel=2)
    k_single = single_subject_threshold(stats, tau_single)
    k1, k2 = lepskii_thresholds_f(stats, tau1, tau2)
    results = []
    grid_of_psi = None
    for j, sid in enumerate(table.subject_ids):
        t_test, y_test = test.times[j], test.values[j]
        if grid_of_psi is None or not np.array_equal(t_test, grid_of_psi):
            psi, grid_of_psi = fourier_matrix(t_test, width), t_test
        single = stats.own[j, :k_single[j]]
        double = np.concatenate([stats.own[j, :k1[j]], stats.donor_mean[j, k1[j]:k2[j]]])
        results.append((sid, _rmse(psi[:, :single.size] @ single, y_test),
                        _rmse(psi[:, :double.size] @ double, y_test)))
    return results


def _rmse(prediction: np.ndarray, y: np.ndarray) -> float:
    # the arithmetic of risk.rmspe
    diff = prediction - y
    return float(np.sqrt(np.mean(diff**2)))


def comparison_csv(results) -> str:
    lines = ["subject,rmspe_single,rmspe_double,diff"]
    for sid, r_single, r_double in results:
        lines.append(f"{sid},{float(r_single)!r},{float(r_double)!r},"
                     f"{float(r_single - r_double)!r}")
    return "\n".join(lines) + "\n"
