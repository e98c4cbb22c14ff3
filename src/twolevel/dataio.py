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
from itertools import chain, filterfalse, islice
from operator import methodcaller

import numpy as np

from .basis import fourier_matrices
from .estimators import empirical_coefficients, leave_one_out_means
from .risk import adaptive_f, single_subject_f
from .simulate import MultiSubjectTable, SubjectStats

__all__ = [
    "DataError",
    "DataWarning",
    "MultiSubjectTable",
    "SplitSpec",
    "load_table",
    "parse_table",
    "table_csv",
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
# Characters split into lines at a time: bounds the line strings held at once.
CHUNK_CHARS = 1 << 18
# Data lines converted per block: bounds the field strings held at once.
BLOCK_LINES = 8192


def parse_table(text: str) -> MultiSubjectTable:
    """Parse and validate a ``subject,i,t,y`` CSV; see :func:`load_table`.

    Valid tables take a block-vectorised route that reads the text
    ``CHUNK_CHARS`` characters at a time and never holds a list of all its
    lines; any input it rejects is parsed again line by line, which raises
    the error of the first bad line or subject.  Warns
    (:class:`DataWarning`) when it rescales the times.
    """
    rows = _rows(text)
    parsed = None
    if next(rows, "").strip() == HEADER:
        parsed = _parse_blocks(rows)
    ids, indices, times, values = parsed or _parse_lines(text.splitlines())
    lo, hi = float(times.min()), float(times.max())
    rescaled = lo < 0.0 or hi > 1.0
    if rescaled:
        if hi == lo:
            raise DataError(f"every t is {lo!r}; cannot rescale t to [0, 1]")
        # a Python float difference overflows to inf without a numpy warning
        if not math.isfinite(hi - lo):
            raise DataError(f"t spans [{lo!r}, {hi!r}], wider than the float range; "
                            f"cannot rescale t to [0, 1]")
        times = (times - lo) / (hi - lo)
    try:
        table = MultiSubjectTable(ids, indices, times, values, rescaled=rescaled)
    except ValueError as err:
        # rescaling can merge times that were distinct but far from [0, 1]
        raise DataError(f"after rescaling t to [0, 1]: {err}") from None
    if rescaled:
        warnings.warn(f"t rescaled to [0, 1] from [{lo!r}, {hi!r}]",
                      DataWarning, stacklevel=2)
    return table


def _chunks(text: str):
    """Slices of ``text`` of about ``CHUNK_CHARS`` characters, each cut just
    after a "\\n".  ``str.splitlines`` always ends a line there ("\\r\\n"
    too ends in "\\n"), so the slices split into exactly the lines of the
    whole text."""
    start = 0
    while start < len(text):
        stop = text.find("\n", start + CHUNK_CHARS - 1) + 1 or len(text)
        yield text[start:stop]
        start = stop


def _rows(text: str):
    """Lazy iterator over the lines of ``text`` that are neither blank nor
    ``#`` comments, split one chunk at a time."""
    rows = filter(str.strip, chain.from_iterable(map(str.splitlines, _chunks(text))))
    if "#" in text:
        rows = filterfalse(methodcaller("startswith", "#"), rows)
    return rows


def _parse_blocks(rows):
    """(subject ids, then indices, times and values as (m, n) arrays in
    subject order) of an iterable of data lines, or None if any line or
    subject is invalid.  Reads ``BLOCK_LINES`` lines at a time and keeps
    only their converted columns."""
    rows = iter(rows)
    columns = []  # (codes, idx, t, y) of each block
    ids: dict[str, int] = {}
    while block := list(islice(rows, BLOCK_LINES)):
        size = len(block)
        # Joined by ",\n,", lines of 4 columns each put their fields at 5j..5j+3
        # and the size - 1 separator fields "\n" at 5j+4; no line holds a "\n",
        # so the separators sit there only if every line has 4 columns.
        fields = ",\n,".join(block).split(",")
        if len(fields) != 5 * size - 1 or fields[4::5].count("\n") != size - 1:
            return None
        # ids, i and t repeat: each distinct string is stripped or converted once
        codes_of = dict.fromkeys(fields[0::5])
        for raw in codes_of:
            codes_of[raw] = ids.setdefault(raw.strip(), len(ids))
        converted = [np.fromiter(map(codes_of.__getitem__, fields[0::5]), np.intp, size)]
        try:
            for column, convert, dtype in ((fields[1::5], int, np.int64),
                                           (fields[2::5], float, float)):
                value_of = {s: convert(s) for s in set(column)}
                converted.append(np.fromiter(map(value_of.__getitem__, column), dtype, size))
            converted.append(np.fromiter(map(float, fields[3::5]), float, size))
        except (ValueError, OverflowError):
            return None
        columns.append(converted)
    if not columns:
        return None
    codes, idx, t, y = (np.concatenate(col) for col in zip(*columns))
    del columns  # the blocks' arrays, now copied
    if not (np.isfinite(t).all() and np.isfinite(y).all()):
        return None
    m = len(ids)
    counts = np.bincount(codes, minlength=m)
    if np.any(counts != counts[0]):
        return None
    n = int(counts[0])
    order = np.lexsort((idx, codes))
    idx = idx[order].reshape(m, n)
    t = t[order].reshape(m, n)
    # neighbours compared, not subtracted: a difference can overflow
    if np.any(idx != np.arange(1, n + 1)) or np.any(t[:, 1:] <= t[:, :-1]):
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
        not_increasing = t[1:] <= t[:-1]
        if np.any(not_increasing):
            bad = int(np.nonzero(not_increasing)[0][0])
            raise DataError(f"subject {sid}: t not strictly increasing at line {recs[bad + 1][0]}")
        indices.append(idx)
        times.append(t)
        values.append(np.array([r[3] for r in recs]))
    return tuple(rows), np.array(indices), np.array(times), np.array(values)


def load_table(path) -> MultiSubjectTable:
    """Load and validate a multi-subject UTF-8 CSV file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as err:
        raise DataError(f"not UTF-8 text: byte 0x{raw[err.start]:02x} at offset "
                        f"{err.start} ({err.reason})") from None
    del raw  # the text alone is held while it is parsed
    return parse_table(text)


def table_csv(table: MultiSubjectTable) -> str:
    """The table as ``subject,i,t,y`` CSV text, the schema :func:`parse_table` reads."""
    lines = [HEADER]
    for sid, idx, t, y in zip(table.subject_ids, table.indices, table.times, table.values):
        lines += [f"{sid},{i},{float(ti)!r},{float(yi)!r}" for i, ti, yi in zip(idx, t, y)]
    return "\n".join(lines) + "\n"


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
    """Partition every subject's indices into (train table, test table); every
    subject must hold out equally many, as each does in a table parsed from CSV."""
    test_idx = spec.test_indices(table.n)
    if len(set(test_idx.tolist())) == table.n:
        raise DataError(f"test indices cover all n = {table.n} time indices; "
                        f"no training data left")
    held_out = np.isin(table.indices, test_idx)
    counts = held_out.sum(axis=1)
    j = int(np.argmax(counts != counts[0]))
    if j:
        raise DataError(f"subjects hold out different numbers of indices: {table.subject_ids[0]} "
                        f"holds out {counts[0]}, {table.subject_ids[j]} holds out {counts[j]}")

    def take(mask, width):
        return MultiSubjectTable(table.subject_ids,
                                 *(col[mask].reshape(table.m, width) for col in
                                   (table.indices, table.times, table.values)),
                                 rescaled=table.rescaled)

    return take(~held_out, table.n - counts[0]), take(held_out, counts[0])


def compare_estimators(table: MultiSubjectTable, spec: SplitSpec,
                       plan=(single_subject_f(), adaptive_f())):
    """Per-subject RMSPE of each ``risk.EstimatorSpec`` of ``plan``, by default
    the single-subject and the adaptive double-thresholding fits, on the
    held-out indices.  Returns a list of (subject_id, one RMSPE per spec) tuples.

    Each spec is fitted once, on the stack of all subjects.  A subject's
    prediction is ``psi[:, :s] @ row[:s]`` over its row's support s, since a
    full-width matvec rounds differently.  Warns (:class:`DataWarning`) when
    the fit width exceeds half the training grid (aliased coefficients).
    """
    if table.m < 2:
        raise DataError("comparison needs at least 2 subjects")
    train, test = split(table, spec)
    if test.n == 0:
        raise ValueError("test set must be nonempty")
    n, m = train.n, train.m
    width = max(math.isqrt(n * m), math.isqrt(n), 1)
    try:
        panel = empirical_coefficients(train, width)
        stats = SubjectStats(n, m, panel.coeffs, leave_one_out_means(panel))
    except ValueError as err:
        # finite y values can still overflow the coefficient or leave-one-out sums
        raise DataError(f"cannot fit the training data: {err}") from None
    if panel.aliased:
        warnings.warn(f"fit width {width} exceeds n/2 = {n / 2:g} training points per "
                      f"subject; coefficients are aliased", DataWarning, stacklevel=2)
    # each support as m Python ints, made once: the row loop runs once per subject
    fits = [(fitted, np.broadcast_to(support, m).tolist())
            for fitted, support in (estimator.fit(stats) for estimator in plan)]
    # C-contiguous rows: each row's mean is the pairwise sum of a 1-D mean
    pred = np.empty((len(fits), m, test.n))
    for j, psi in enumerate(fourier_matrices(test.times, width)):
        for p, (fitted, support) in enumerate(fits):
            pred[p, j] = psi[:, :support[j]] @ fitted[j, :support[j]]
    rmse = np.sqrt(np.mean((pred - test.values) ** 2, axis=-1)).tolist()
    return list(zip(table.subject_ids, *rmse))


def comparison_csv(results) -> str:
    lines = ["subject,rmspe_single,rmspe_double,diff"]
    for sid, r_single, r_double in results:
        lines.append(f"{sid},{float(r_single)!r},{float(r_double)!r},"
                     f"{float(r_single - r_double)!r}")
    return "\n".join(lines) + "\n"
