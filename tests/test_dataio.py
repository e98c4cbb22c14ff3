import importlib.util
import math
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twolevel import dataio
from twolevel.basis import Spectrum, fourier_matrix, series_eval
from twolevel.dataio import (DataError, DataWarning, MultiSubjectTable, SplitSpec,
                             compare_estimators, comparison_csv, parse_table,
                             split)
from twolevel.estimators import (double_threshold_estimate_f, lepskii_thresholds_f,
                                 single_subject_estimate, subject_stats)
from twolevel.risk import rmspe
from twolevel.simulate import CoefficientPanel, ModelConfig, simulate_regression


def make_table(n=12, m=3, fn=lambda sid, t: np.sin(2 * np.pi * t) + sid):
    lines = ["subject,i,t,y"]
    for s in range(1, m + 1):
        for i in range(1, n + 1):
            t = (i - 1) / (n - 1)
            lines.append(f"s{s},{i},{t!r},{float(fn(s, t))!r}")
    return "\n".join(lines) + "\n"


# Edits of one data line; each breaks it for the line route or leaves it valid.
ROW_EDITS = [lambda r: r.replace(",", ",,", 1), lambda r: r.replace(",", "", 1),
             lambda r: r + ",x", lambda r: r.replace("1", "99999999999999999999", 1),
             lambda r: r.replace("1", "1_0", 1), lambda r: r.replace("0", "nan", 1),
             lambda r: r.replace("0", "9", 1), lambda r: " " + r.replace(",", " ,") + "\t",
             lambda r: r.replace(".", "x", 1), lambda r: "  "]


def parse_error(text):
    with pytest.raises(DataError) as err:
        parse_table(text)
    return str(err.value)


class TestParse:
    def test_round_trip(self):
        table = parse_table(make_table())
        again = parse_table(table.to_csv())
        assert again.subject_ids == table.subject_ids
        for a, b in zip(again.values, table.values):
            np.testing.assert_array_equal(a, b)

    def test_shape(self):
        table = parse_table(make_table(n=7, m=4))
        assert (table.n, table.m) == (7, 4)
        assert not table.rescaled

    def test_comments_and_blanks_ignored(self):
        text = "# generated\n\n" + make_table(n=3, m=1)
        assert parse_table(text).n == 3

    def test_rescaling(self):
        text = make_table(n=5, m=1)
        shifted = "\n".join(
            ln if i == 0 else ",".join(
                p if j != 2 else repr(float(p) * 100 - 20)
                for j, p in enumerate(ln.split(",")))
            for i, ln in enumerate(text.strip().splitlines()))
        with pytest.warns(DataWarning, match=r"t rescaled to \[0, 1\] from \[-20.0, 80.0\]"):
            table = parse_table(shifted)
        assert table.rescaled
        assert table.times[0].min() == 0.0
        assert table.times[0].max() == 1.0

    def test_empty(self):
        assert parse_error("") == "empty table"

    def test_bad_header(self):
        assert parse_error("a,b,c,d\n1,1,0.0,0.0\n") == \
            "line 1: expected header 'subject,i,t,y', got 'a,b,c,d'"

    def test_header_without_rows(self):
        assert parse_error("subject,i,t,y\n\n# nothing\n") == \
            "table has a header but no data rows"

    def test_wrong_column_count(self):
        assert parse_error("subject,i,t,y\n1,1,0.0\n") == "line 2: expected 4 columns, got 3"
        # the fields of both lines, taken four at a time, would make two good rows
        assert parse_error("subject,i,t,y\na,1,0.0\n1,a,2,0.5,1.0\n") == \
            "line 2: expected 4 columns, got 3"

    def test_non_numeric(self):
        assert parse_error("subject,i,t,y\n1,1,0.0,1.0\n1,2,oops,1.0\n") == \
            "line 3: could not convert string to float: 'oops'"

    def test_non_finite(self):
        assert parse_error("subject,i,t,y\n1,1,0.0,nan\n") == "line 2: non-finite value"

    def test_ragged_subjects_named(self):
        text = ("subject,i,t,y\n"
                "a,1,0.0,1.0\na,2,0.5,1.0\n"
                "b,1,0.0,1.0\n")
        assert parse_error(text) == "ragged subjects (expected 2 rows each): b"

    def test_non_contiguous_indices(self):
        text = "subject,i,t,y\na,1,0.0,1.0\na,3,0.5,1.0\n"
        assert parse_error(text) == \
            "subject a: time indices must be contiguous 1..2 (first row at line 2)"

    def test_oversized_time_index(self):
        # too large for an int64 column, but still just a non-contiguous index
        text = "subject,i,t,y\na,1,0.0,1.0\na,99999999999999999999,0.5,1.0\n"
        assert parse_error(text) == \
            "subject a: time indices must be contiguous 1..2 (first row at line 2)"

    def test_non_increasing_times(self):
        text = "subject,i,t,y\na,1,0.5,1.0\na,2,0.25,1.0\n"
        assert parse_error(text) == "subject a: t not strictly increasing at line 3"

    def test_times_merged_by_rescaling(self):
        # 0 and 1 are distinct, but both map to 1.0 once -1e20 sets the scale
        text = "subject,i,t,y\na,1,-1e20,1.0\na,2,0,1.0\na,3,1,1.0\n"
        assert parse_error(text) == \
            "after rescaling t to [0, 1]: subject a: times must be strictly increasing"

    def test_constant_times_outside_unit_interval(self):
        # one row per subject, all at t = 5: nothing to rescale by
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert parse_error("subject,i,t,y\na,1,5.0,1.0\nb,1,5.0,2.0\n") == \
                "every t is 5.0; cannot rescale t to [0, 1]"
        assert parse_table("subject,i,t,y\na,1,0.5,1.0\nb,1,0.5,2.0\n").times[0] == [0.5]

    @pytest.mark.parametrize("block_lines", [2, dataio.BLOCK_LINES])
    def test_first_bad_line_wins(self, monkeypatch, block_lines):
        # one line short of a column and one over: the comma total still fits
        monkeypatch.setattr(dataio, "BLOCK_LINES", block_lines)
        lines = make_table(n=4, m=2).splitlines()
        lines[6] = lines[6].replace(",", ";", 1)
        lines[3] = lines[3] + ",extra"
        assert parse_error("\n".join(lines)) == "line 4: expected 4 columns, got 5"

    @pytest.mark.parametrize("block_lines", [1, 3, dataio.BLOCK_LINES])
    def test_block_route_matches_line_route(self, monkeypatch, block_lines):
        monkeypatch.setattr(dataio, "BLOCK_LINES", block_lines)
        body = make_table(n=6, m=4).splitlines()[1:]
        body = [body[k] for k in np.random.default_rng(3).permutation(len(body))]
        body[2] = " " + body[2].replace(",", " ,", 2) + "\t"
        text = "# comment\r\nsubject,i,t,y\r\n\r\n" + "\r\n".join(body[:9]) + \
            "\n  \n#\n" + "\n".join(body[9:])
        table = parse_table(text)
        ids, indices, times, values = dataio._parse_lines(text.splitlines())
        assert table.subject_ids == ids
        for got, want in ((table.indices, indices), (table.times, times),
                          (table.values, values)):
            for a, b in zip(got, want, strict=True):
                np.testing.assert_array_equal(a, b)
                assert a.dtype == b.dtype

    @settings(max_examples=40, deadline=None)
    @given(st.text(alphabet="subject,i\nty0123456789.# -e", max_size=300))
    def test_fuzz_never_crashes_unstructured(self, text):
        # arbitrary garbage must either parse or raise DataError, nothing else
        try:
            parse_table(text)
        except DataError:
            pass

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 5), st.integers(1, 4), st.sampled_from([1, 2, 3, 8192]),
           st.lists(st.tuples(st.integers(0, 99), st.sampled_from(ROW_EDITS)), max_size=3),
           st.randoms(use_true_random=False))
    def test_block_route_accepts_only_what_line_route_accepts(self, n, m, block_lines,
                                                             edits, rnd):
        rows = make_table(n=n, m=m, fn=lambda sid, t: t / 7 - sid).splitlines()[1:]
        rnd.shuffle(rows)
        for k, edit in edits:
            rows[k % len(rows)] = edit(rows[k % len(rows)])
        lines = ["subject,i,t,y"] + rows
        try:
            want = dataio._parse_lines(lines)
        except DataError:
            want = None
        saved, dataio.BLOCK_LINES = dataio.BLOCK_LINES, block_lines
        try:
            got = dataio._parse_blocks([ln for ln in rows if ln.strip()])
        finally:
            dataio.BLOCK_LINES = saved
        if want is None or got is None:
            assert got is None  # the line route then decides, and raises
        else:
            assert got[0] == want[0]
            for a, b in zip(got[1:], want[1:]):
                np.testing.assert_array_equal(a, b)


class TestSplit:
    def test_arithmetic_indices(self):
        spec = SplitSpec(a=3, b=-1, count=4)
        np.testing.assert_array_equal(spec.test_indices(12), [2, 5, 8, 11])

    def test_out_of_range(self):
        with pytest.raises(DataError, match="out of range"):
            SplitSpec(3, -1, 10).test_indices(12)

    def test_partition(self):
        table = parse_table(make_table(n=12, m=2))
        train, test = split(table, SplitSpec(3, -1, 4))
        assert train.n == 8 and test.n == 4
        for j in range(2):
            merged = np.sort(np.concatenate([train.indices[j], test.indices[j]]))
            np.testing.assert_array_equal(merged, np.arange(1, 13))

    def test_empty_train_rejected(self):
        table = parse_table(make_table(n=12, m=2))
        with pytest.raises(DataError, match="all n = 12"):
            split(table, SplitSpec(1, 0, 12))

    def test_values_preserved(self):
        table = parse_table(make_table(n=12, m=2))
        train, test = split(table, SplitSpec(3, -1, 4))
        np.testing.assert_array_equal(test.values[0], table.values[0][[1, 4, 7, 10]])
        np.testing.assert_array_equal(train.times[1],
                                      np.delete(table.times[1], [1, 4, 7, 10]))


    def test_subjects_with_different_index_sets(self):
        indices = (np.arange(1, 7), np.array([2, 3, 5, 7, 8, 9]))
        table = MultiSubjectTable(("a", "b"), indices, tuple(i / 10.0 for i in indices),
                                  tuple(1.5 * i for i in indices))
        train, test = split(table, SplitSpec(2, 1, 2))  # held out: 3, 5
        np.testing.assert_array_equal(test.indices[0], [3, 5])
        np.testing.assert_array_equal(test.indices[1], [3, 5])
        np.testing.assert_array_equal(train.indices[0], [1, 2, 4, 6])
        np.testing.assert_array_equal(train.indices[1], [2, 7, 8, 9])
        np.testing.assert_array_equal(train.times[1], [0.2, 0.7, 0.8, 0.9])
        np.testing.assert_array_equal(test.values[1], [4.5, 7.5])


def reference_comparison(table, spec, tau1=4.5, tau2=6.5, tau_single=2.0):
    """The per-subject route: a design matrix per subject and fit, one
    leave-one-out mean and one threshold search per subject."""
    train, test = split(table, spec)
    n, m = train.n, train.m
    width = max(math.isqrt(n * m), math.isqrt(n), 1)
    rows = [fourier_matrix(t, width).T @ y / n for t, y in zip(train.times, train.values)]
    panel = CoefficientPanel(n=n, m=m, coeffs=rows)
    results = []
    for j, sid in enumerate(table.subject_ids):
        stats = subject_stats(panel, j)
        single = single_subject_estimate(stats, tau=tau_single)
        k1, k2 = lepskii_thresholds_f(stats, tau1=tau1, tau2=tau2)
        double = double_threshold_estimate_f(stats, k1, k2)
        t_test, y_test = test.times[j], test.values[j]
        results.append((sid, rmspe(single, t_test, y_test), rmspe(double, t_test, y_test)))
    return results


class TestCompare:
    def simulated_table(self, n=101, m=8, seed=5, noise_sd=0.1):
        cfg = ModelConfig(n, m, Spectrum(0.2, scale=1.0),
                          deviation_spectrum=Spectrum(0.5, scale=0.5), k_max=60)
        grid = np.arange(n) / (n - 1)
        _, subs, data = simulate_regression(cfg, [grid] * m, seed=seed,
                                            noise_sd=noise_sd)
        lines = ["subject,i,t,y"]
        for j in range(m):
            for i in range(n):
                lines.append(f"s{j + 1},{i + 1},{float(grid[i])!r},"
                             f"{float(data.values[j][i])!r}")
        return parse_table("\n".join(lines) + "\n"), subs

    def test_result_schema(self):
        table, _ = self.simulated_table()
        results = compare_estimators(table, SplitSpec(4, -2, 25), tau_single=0.01)
        assert len(results) == table.m
        for sid, r_single, r_double in results:
            assert sid.startswith("s")
            assert r_single >= 0 and r_double >= 0

    @pytest.mark.parametrize("grids", ["shared", "per subject"])
    def test_matches_per_subject_reference(self, grids):
        n, m = 61, 7
        cfg = ModelConfig(n, m, Spectrum(0.2, scale=1.0),
                          deviation_spectrum=Spectrum(0.5, scale=0.5), k_max=60)
        rng = np.random.default_rng(8)
        own = [np.sort(rng.uniform(0, 1, n)) for _ in range(4)]
        # subjects 0-1 and 3 share a grid; 2, 4 and 5 have their own; 6 is equispaced
        pick = {"shared": [None] * m, "per subject": [0, 0, 1, 0, 2, 3, None]}[grids]
        grid_list = [own[k] if k is not None else np.arange(n) / (n - 1) for k in pick]
        _, _, table = simulate_regression(cfg, grid_list, seed=21, noise_sd=0.2)
        spec = SplitSpec(4, -2, 15)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DataWarning)
            got = compare_estimators(table, spec, tau_single=0.5)
            want = reference_comparison(table, spec, tau_single=0.5)
        assert got == want

    def test_aliased_fit_warns(self):
        table = parse_table(make_table(n=21, m=40))
        with pytest.warns(DataWarning, match=r"^fit width 25 exceeds n/2 = 8 training points "
                                             r"per subject; coefficients are aliased$"):
            compare_estimators(table, SplitSpec(4, 0, 5))

    def test_needs_two_subjects(self):
        table = parse_table(make_table(n=12, m=1))
        with pytest.raises(DataError, match="2 subjects"):
            compare_estimators(table, SplitSpec(3, -1, 4))

    def test_csv_output(self):
        results = [("a", 1.5, 1.0), ("b", 0.25, 0.5)]
        text = comparison_csv(results)
        lines = text.strip().splitlines()
        assert lines[0] == "subject,rmspe_single,rmspe_double,diff"
        assert lines[1] == "a,1.5,1.0,0.5"
        assert lines[2] == "b,0.25,0.5,-0.25"

    def test_double_usually_wins_when_deviations_small(self):
        # subjects nearly share one curve, so pooling across them should help
        table, _ = self.simulated_table(seed=11, noise_sd=0.5)
        results = compare_estimators(table, SplitSpec(4, -2, 25), tau_single=0.01)
        wins = sum(r_double < r_single for _, r_single, r_double in results)
        assert wins >= table.m // 2


def test_make_fixture_reproduces_bundled_table():
    root = pathlib.Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("make_fixture",
                                                  root / "scripts" / "make_fixture.py")
    make_fixture = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_fixture)
    bundled = (root / "tests" / "fixtures" / "synthetic_curves.csv").read_text()
    assert make_fixture.build_table_text() == bundled
