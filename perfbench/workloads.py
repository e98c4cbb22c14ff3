"""The three benchmark workloads: their CLI argument lists, their inputs and
the checks every operation's output must pass.

One operation is one ``twolevel`` CLI invocation, run in-process through
``twolevel.cli.cli_dispatch``.  Sizes are fixed; only the random streams
change with the workload seed.  Reference figures for the checks live in
``reference.json`` next to this file and are regenerated by
``make_reference.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# study1: the median MISE of one op (50 replicates) must lie within this
# factor of the reference median.  Over 40 seeds an op median strayed at most
# 1.16x from it, so a change of random streams stays inside; swapping the
# adaptive g estimator for the beta = 0.2 one moves it 1.48x, and an
# estimator that returns the zero function moves it 10x or more.
STUDY1_FACTOR = 1.4
# study2 and compare: a figure must lie within REF_SDS standard deviations
# of its reference mean, where the deviation is that of the figure between
# ops of different seeds, measured by make_reference.py.  Eight rather than
# three or four, because a run checks many figures and the compare figures
# have a heavier tail (3.5 deviations seen in 20 tables).  For study2, each
# heatmap cell's mean log MISE over 20 replicates, the tolerance is never
# below STUDY2_MIN_TOL; cell deviations run from 0.04 to 0.18, so tolerances
# run from 0.31 to 1.5.  Swapping the g and f estimators moves the f cell at
# (910, 5) by 0.63, twice its tolerance.  For compare the figures are the
# subject means of both RMSPE columns and the share of subjects where the
# two-threshold estimator wins; replacing that estimator by the single-subject
# one moves the share from 0.44 to 0, against a tolerance of 0.13.
REF_SDS = 8.0
STUDY2_MIN_TOL = 0.25

# The compare_m1000 table: 1000 subjects observed at 151 equispaced points,
# drawn from the same two-level law as tests/fixtures/synthetic_curves.csv
# (population decay 0.2, deviation decay 0.5 scale 0.3, noise sd 0.3).  The
# population curve is the same for every seed: with a fresh one per seed the
# subject-mean RMSPE moves by up to 20% between seeds, too much for a check.
COMPARE_SUBJECTS = 1000
COMPARE_POINTS = 151
COMPARE_TERMS = 200
COMPARE_POPULATION_SEED = 20231004


class CheckFailed(Exception):
    """An operation's output is wrong."""


def op_seed(workload_seed: int, op_index: int) -> int:
    """Seed handed to the CLI for one op, derived from the workload seed."""
    return int(np.random.SeedSequence([workload_seed, op_index]).generate_state(1)[0])


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def read_csv_body(path) -> list[list[str]]:
    """Rows of a CLI artifact with its ``#`` header lines dropped."""
    lines = pathlib.Path(path).read_text().splitlines()
    return [ln.split(",") for ln in lines if ln and not ln.startswith("#")]


def _fourier(grid: np.ndarray, width: int) -> np.ndarray:
    # Written here rather than imported so that the compare input does not
    # depend on any code of the program under test.
    out = np.empty((grid.size, width))
    out[:, 0] = 1.0
    r = np.arange(1, width // 2 + 1)
    angles = 2.0 * np.pi * grid[:, None] * r[None, :]
    out[:, 1::2] = math.sqrt(2.0) * np.cos(angles)[:, : width // 2]
    out[:, 2::2] = math.sqrt(2.0) * np.sin(angles)[:, : (width - 1) // 2]
    return out


def compare_table_text(seed: int, subjects: int = COMPARE_SUBJECTS,
                       points: int = COMPARE_POINTS) -> str:
    """A ``subject,i,t,y`` table drawn with numpy alone from ``seed``."""
    k = np.arange(1, COMPARE_TERMS + 1, dtype=float)
    g = np.sqrt(k ** -1.4) * np.random.default_rng(COMPARE_POPULATION_SEED).standard_normal(
        COMPARE_TERMS)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0DE]))
    dev = np.sqrt(0.3 * k ** -2.0) * rng.standard_normal((subjects, COMPARE_TERMS))
    t = np.arange(points) / (points - 1)
    y = (g + dev) @ _fourier(t, COMPARE_TERMS).T + 0.3 * rng.standard_normal((subjects, points))
    t_text = [repr(float(v)) for v in t]
    lines = ["subject,i,t,y"]
    for j in range(subjects):
        sid = f"s{j + 1:04d}"
        lines += [f"{sid},{i + 1},{t_text[i]},{float(v)!r}" for i, v in enumerate(y[j])]
    return "\n".join(lines) + "\n"


class Workload:
    """One benchmark workload.  ``units_per_op`` counts the work one op
    completes, in ``unit``s, for the ``units_per_s`` metric."""

    name = ""
    unit = ""
    units_per_op = 0

    def __init__(self, root: pathlib.Path, work: pathlib.Path, seed: int, reference: dict):
        self.root = root
        self.work = work
        self.seed = seed
        self.reference = reference[self.name]

    def prepare(self, run_op) -> dict:
        """Build inputs and run any pre-checks; returns facts to record."""
        return {}

    def argv(self, op_index: int, out_dir: pathlib.Path) -> list[str]:
        raise NotImplementedError

    def check(self, out_dir: pathlib.Path, op_index: int) -> None:
        raise NotImplementedError


class Study1(Workload):
    name = "study1_n100_m100"
    unit = "replicates"
    units_per_op = 50

    @staticmethod
    def command(seed: int, out_dir) -> list[str]:
        return ["study1", "--n", "100", "--m", "100", "--alpha", "0.5", "--k-max", "800",
                "--replicates", "50", "--seed", str(seed), "--out", str(out_dir)]

    def argv(self, op_index, out_dir):
        return self.command(op_seed(self.seed, op_index), out_dir)

    def check(self, out_dir, op_index):
        check_study1(read_csv_body(out_dir / "summary.csv"), self.reference)


def check_study1(rows, reference: dict) -> None:
    header, body = rows[0], rows[1:]
    cols = {name: i for i, name in enumerate(header)}
    got = {row[cols["estimator"]]: row for row in body}
    if sorted(got) != sorted(reference["median_mise"]):
        raise CheckFailed(f"summary.csv estimators {sorted(got)} != "
                          f"{sorted(reference['median_mise'])}")
    for label, ref in reference["median_mise"].items():
        row = got[label]
        if int(row[cols["failures"]]) != 0:
            raise CheckFailed(f"{label}: {row[cols['failures']]} failed replicates")
        if int(row[cols["replicates"]]) != 50:
            raise CheckFailed(f"{label}: {row[cols['replicates']]} replicates, expected 50")
        median = float(row[cols["median"]])
        if not (math.isfinite(median) and ref / STUDY1_FACTOR <= median <= ref * STUDY1_FACTOR):
            raise CheckFailed(f"{label}: median MISE {median:.4g} not within "
                              f"{STUDY1_FACTOR}x of reference {ref:.4g}")


class Study2(Workload):
    name = "study2_b5000"
    unit = "cell-replicates"
    units_per_op = 15 * 20

    @staticmethod
    def command(seed: int, out_dir) -> list[str]:
        return ["study2", "--alpha", "0.5", "--budget", "5000", "--density", "6",
                "--replicates", "20", "--seed", str(seed), "--out", str(out_dir)]

    def argv(self, op_index, out_dir):
        return self.command(op_seed(self.seed, op_index), out_dir)

    def check(self, out_dir, op_index):
        for target in ("g", "f"):
            rows = read_csv_body(out_dir / f"heatmap_mise_{target}.csv")
            check_study2(rows, self.reference[f"mean_log_mise_{target}"], target)


def heatmap_cells(rows) -> dict[str, float]:
    """``{"n,m": value}`` from the body of a study2 heatmap CSV."""
    return {f"{r[0]},{r[1]}": float(r[2]) for r in rows[1:]}


def check_study2(rows, reference: dict, target: str) -> None:
    cells = heatmap_cells(rows)
    if sorted(cells) != sorted(reference):
        raise CheckFailed(f"heatmap_mise_{target}: cells {sorted(cells)} != {sorted(reference)}")
    for cell, ref in reference.items():
        v = cells[cell]
        check_near(f"heatmap_mise_{target} ({cell}) mean log MISE", v, ref, STUDY2_MIN_TOL)


def check_near(what: str, value: float, ref: dict, min_tol: float = 0.0) -> None:
    tol = max(REF_SDS * ref["sd"], min_tol)
    if not (math.isfinite(value) and abs(value - ref["mean"]) <= tol):
        raise CheckFailed(f"{what} = {value:.4g}, not within {tol:.3g} of "
                          f"reference {ref['mean']:.4g}")


class Compare(Workload):
    name = "compare_m1000"
    unit = "subjects"
    units_per_op = COMPARE_SUBJECTS

    def prepare(self, run_op):
        fixture_out = self.work / "fixture"
        run_op(["compare", "--data", str(self.root / "tests" / "fixtures" / "synthetic_curves.csv"),
                "--out", str(fixture_out / "rmspe.csv")], fixture_out, self.check_fixture)
        text = compare_table_text(self.seed)
        self.table = self.work / "table.csv"
        self.table.write_text(text)
        self.expected_ids = [f"s{j + 1:04d}" for j in range(COMPARE_SUBJECTS)]
        self.first_output = None
        return {"table_sha256": hashlib.sha256(text.encode()).hexdigest(),
                "table_bytes": len(text)}

    def check_fixture(self, out_dir, op_index):
        produced = "".join(ln for ln in (out_dir / "rmspe.csv").read_text().splitlines(True)
                           if not ln.startswith("#"))
        golden = (self.root / "tests" / "fixtures" / "golden_rmspe.csv").read_text()
        if produced != golden:
            raise CheckFailed("fixture comparison differs from tests/fixtures/golden_rmspe.csv")

    def argv(self, op_index, out_dir):
        return ["compare", "--data", str(self.table), "--out", str(out_dir / "rmspe.csv")]

    def check(self, out_dir, op_index):
        text = (out_dir / "rmspe.csv").read_text()
        if self.first_output is None:
            check_compare(read_csv_body(out_dir / "rmspe.csv"), self.expected_ids, self.reference)
            self.first_output = text
        elif text != self.first_output:
            raise CheckFailed("compare output differs between ops on the same table")


def compare_summary(rows) -> dict[str, float]:
    body = rows[1:]
    single = np.array([float(r[1]) for r in body])
    double = np.array([float(r[2]) for r in body])
    return {"mean_rmspe_single": float(single.mean()),
            "mean_rmspe_double": float(double.mean()),
            "win_share": float(np.mean(double < single))}


def check_compare(rows, expected_ids, reference: dict) -> None:
    if rows[0] != ["subject", "rmspe_single", "rmspe_double", "diff"]:
        raise CheckFailed(f"unexpected header {rows[0]}")
    if [r[0] for r in rows[1:]] != expected_ids:
        raise CheckFailed("subject ids differ from the generated table")
    values = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    if not np.all(np.isfinite(values)) or np.any(values[:, :2] <= 0):
        raise CheckFailed("non-finite or non-positive RMSPE")
    if not np.allclose(values[:, 0] - values[:, 1], values[:, 2], rtol=0, atol=1e-12):
        raise CheckFailed("diff column is not rmspe_single - rmspe_double")
    for key, value in compare_summary(rows).items():
        check_near(key, value, reference[key])


WORKLOADS = {cls.name: cls for cls in (Study1, Study2, Compare)}
