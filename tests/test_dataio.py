import importlib.util
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twolevel.basis import Spectrum, series_eval
from twolevel.dataio import (DataError, MultiSubjectTable, SplitSpec,
                             compare_estimators, comparison_csv, parse_table,
                             split)
from twolevel.simulate import ModelConfig, simulate_regression


def make_table(n=12, m=3, fn=lambda sid, t: np.sin(2 * np.pi * t) + sid):
    lines = ["subject,i,t,y"]
    for s in range(1, m + 1):
        for i in range(1, n + 1):
            t = (i - 1) / (n - 1)
            lines.append(f"s{s},{i},{t!r},{float(fn(s, t))!r}")
    return "\n".join(lines) + "\n"


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
        table = parse_table(shifted)
        assert table.rescaled
        assert table.times[0].min() == 0.0
        assert table.times[0].max() == 1.0

    def test_empty(self):
        with pytest.raises(DataError, match="empty"):
            parse_table("")

    def test_bad_header(self):
        with pytest.raises(DataError, match="line 1"):
            parse_table("a,b,c,d\n1,1,0.0,0.0\n")

    def test_wrong_column_count(self):
        with pytest.raises(DataError, match="line 2"):
            parse_table("subject,i,t,y\n1,1,0.0\n")

    def test_non_numeric(self):
        with pytest.raises(DataError, match="line 3"):
            parse_table("subject,i,t,y\n1,1,0.0,1.0\n1,2,oops,1.0\n")

    def test_non_finite(self):
        with pytest.raises(DataError, match="non-finite"):
            parse_table("subject,i,t,y\n1,1,0.0,nan\n")

    def test_ragged_subjects_named(self):
        text = ("subject,i,t,y\n"
                "a,1,0.0,1.0\na,2,0.5,1.0\n"
                "b,1,0.0,1.0\n")
        with pytest.raises(DataError, match="ragged subjects.*b"):
            parse_table(text)

    def test_non_contiguous_indices(self):
        text = "subject,i,t,y\na,1,0.0,1.0\na,3,0.5,1.0\n"
        with pytest.raises(DataError, match="contiguous"):
            parse_table(text)

    def test_non_increasing_times(self):
        text = "subject,i,t,y\na,1,0.5,1.0\na,2,0.25,1.0\n"
        with pytest.raises(DataError, match="strictly increasing"):
            parse_table(text)

    def test_times_merged_by_rescaling(self):
        # 0 and 1 are distinct, but both map to 1.0 once -1e20 sets the scale
        text = "subject,i,t,y\na,1,-1e20,1.0\na,2,0,1.0\na,3,1,1.0\n"
        with pytest.raises(DataError, match="rescaling.*strictly increasing"):
            parse_table(text)

    @settings(max_examples=40, deadline=None)
    @given(st.text(alphabet="subject,i\nty0123456789.# -e", max_size=300))
    def test_fuzz_never_crashes_unstructured(self, text):
        # arbitrary garbage must either parse or raise DataError, nothing else
        try:
            parse_table(text)
        except DataError:
            pass


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
