"""Multi-subject table ingestion, train/test splitting, and the RMSPE
comparison pipeline for real (or schema-identical synthetic) curve data.

Input schema is CSV with header ``subject,i,t,y``: one row per (subject,
time-index) pair, with contiguous indices 1..n and strictly increasing times
within each subject.  Times are rescaled to [0, 1] at load when they fall
outside the unit interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import (double_threshold_estimate_f, empirical_coefficients,
                         lepskii_thresholds_f, single_subject_estimate,
                         subject_stats)
from .risk import rmspe
from .simulate import MultiSubjectTable

__all__ = [
    "DataError",
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


def parse_table(text: str) -> MultiSubjectTable:
    """Parse and validate a ``subject,i,t,y`` CSV; see :func:`load_table`."""
    lines = text.splitlines()
    body = [(no, ln) for no, ln in enumerate(lines, start=1)
            if ln.strip() and not ln.startswith("#")]
    if not body:
        raise DataError("empty table")
    header_no, header = body[0]
    if header.strip() != "subject,i,t,y":
        raise DataError(f"line {header_no}: expected header 'subject,i,t,y', got {header!r}")
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

    all_t = np.concatenate(times)
    rescaled = False
    if all_t.min() < 0.0 or all_t.max() > 1.0:
        lo, hi = all_t.min(), all_t.max()
        times = [(t - lo) / (hi - lo) for t in times]
        rescaled = True
    try:
        return MultiSubjectTable(tuple(rows.keys()), tuple(indices), tuple(times),
                                 tuple(values), rescaled=rescaled)
    except ValueError as err:
        # rescaling can merge times that were distinct but far from [0, 1]
        raise DataError(f"after rescaling t to [0, 1]: {err}") from None


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
    test_idx = set(spec.test_indices(table.n).tolist())
    if len(test_idx) == table.n:
        raise DataError(f"test indices cover all n = {table.n} time indices; "
                        f"no training data left")

    def take(keep):
        mask_list, idx, t, y = [], [], [], []
        for j in range(table.m):
            mask = np.array([keep(i) for i in table.indices[j]])
            idx.append(table.indices[j][mask])
            t.append(table.times[j][mask])
            y.append(table.values[j][mask])
        return MultiSubjectTable(table.subject_ids, tuple(idx), tuple(t), tuple(y),
                                 rescaled=table.rescaled)

    return take(lambda i: i not in test_idx), take(lambda i: i in test_idx)


def compare_estimators(table: MultiSubjectTable, spec: SplitSpec,
                       tau1: float = 4.5, tau2: float = 6.5,
                       tau_single: float = 2.0, denominator: str = "nm"):
    """Per-subject RMSPE of the single-subject estimator versus the adaptive
    double-thresholding estimator, scored on the held-out indices.

    Returns a list of (subject_id, rmspe_single, rmspe_double) triples.
    """
    if table.m < 2:
        raise DataError("comparison needs at least 2 subjects")
    train, test = split(table, spec)
    n_train = train.n
    width = max(math.isqrt(n_train * train.m), math.isqrt(n_train), 1)
    panel = empirical_coefficients(train, width)
    results = []
    for j, sid in enumerate(table.subject_ids):
        stats = subject_stats(panel, j)
        single = single_subject_estimate(stats.own, n_train, train.m,
                                         tau=tau_single, denominator=denominator)
        sel = lepskii_thresholds_f(stats, tau1=tau1, tau2=tau2)
        double = double_threshold_estimate_f(stats, sel.k1, sel.k2)
        t_test, y_test = test.times[j], test.values[j]
        results.append((sid, rmspe(single, t_test, y_test), rmspe(double, t_test, y_test)))
    return results


def comparison_csv(results) -> str:
    lines = ["subject,rmspe_single,rmspe_double,diff"]
    for sid, r_single, r_double in results:
        lines.append(f"{sid},{float(r_single)!r},{float(r_double)!r},"
                     f"{float(r_single - r_double)!r}")
    return "\n".join(lines) + "\n"
