import importlib.util
import math
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twolevel import dataio
from twolevel.basis import FunctionSeries, Spectrum, fourier_matrix, series_eval
from twolevel.dataio import (DataError, DataWarning, MultiSubjectTable, SplitSpec,
                             compare_estimators, comparison_csv, parse_table,
                             split, table_csv)
from twolevel.estimators import (double_threshold_estimate_f, lepskii_thresholds_f,
                                 single_subject_estimate, single_subject_threshold)
from twolevel.risk import adaptive_f, posterior_f, single_subject_f
from twolevel.simulate import CoefficientPanel, ModelConfig, simulate_regression

from reference import rmspe, subject_stats

ROOT = pathlib.Path(__file__).resolve().parent.parent
# from one line per chunk (a chunk ends at the first "\n" past CHUNK_CHARS - 1
# characters) to one chunk for the whole text
CHUNK_SIZES = [1, 5, 64, dataio.CHUNK_CHARS]


def load_script(relative_path):
    """A repository script (not a package module) imported from its path."""
    path = ROOT / relative_path
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def assert_matches_line_route(monkeypatch, text):
    """parse_table's block route accepts ``text`` and gives the ids, arrays
    and dtypes of the line route."""
    ids, indices, times, values = dataio._parse_lines(text.splitlines())

    def refuse(lines):
        raise AssertionError("the block route rejected the text")
    with monkeypatch.context() as patch:
        patch.setattr(dataio, "_parse_lines", refuse)
        table = parse_table(text)
    assert table.subject_ids == ids
    for got, want in ((table.indices, indices), (table.times, times),
                      (table.values, values)):
        for a, b in zip(got, want, strict=True):
            np.testing.assert_array_equal(a, b)
            assert a.dtype == b.dtype


def parse_error(text):
    with pytest.raises(DataError) as err:
        parse_table(text)
    return str(err.value)


class TestParse:
    def test_round_trip(self):
        table = parse_table(make_table())
        again = parse_table(table_csv(table))
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

    def test_time_span_past_float_range(self):
        # hi - lo overflows: named as the range, not as an ordering fault
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert parse_error("subject,i,t,y\na,1,-1e308,1\na,2,1e308,2\n") == \
                "t spans [-1e+308, 1e+308], wider than the float range; " \
                "cannot rescale t to [0, 1]"

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
        assert_matches_line_route(monkeypatch, text)

    @pytest.mark.parametrize("block_lines", [1, 3, dataio.BLOCK_LINES])
    def test_repeated_fields_spelled_differently(self, monkeypatch, block_lines):
        # the block route converts each distinct string of a column once: other
        # spellings of one number, and padded ids, must still agree
        monkeypatch.setattr(dataio, "BLOCK_LINES", block_lines)
        rows = ["s1,1,0.25,1.5", "s2,01,0.25,2.5", " s1,2,0.5,3.5", "s2, 2,0.50,4.5",
                "s3,1,0.25,5.5", "s3,2,5e-1,6.5", "s1 ,3,0.75,7.5", "s2,3,0.75,8.5",
                "s4,1,0.25,9.5", "s4,2, 0.5,10.5", "s3,3,0.75,11.5", "s4,3,.75,12.5"]
        got = dataio._parse_blocks(rows)
        want = dataio._parse_lines(["subject,i,t,y"] + rows)
        assert got[0] == want[0] == ("s1", "s2", "s3", "s4")
        for a, b in zip(got[1:], want[1:], strict=True):
            np.testing.assert_array_equal(a, b)
            assert a.dtype == b.dtype
        np.testing.assert_array_equal(got[2], np.tile([0.25, 0.5, 0.75], (4, 1)))
        np.testing.assert_array_equal(got[1], np.tile([1, 2, 3], (4, 1)))

    @pytest.mark.parametrize("chunk_chars", CHUNK_SIZES)
    @pytest.mark.parametrize("layout", ["line_breaks", "blanks_and_comments",
                                        "long_preamble", "no_final_newline"])
    def test_chunked_route_matches_line_route(self, monkeypatch, chunk_chars, layout):
        monkeypatch.setattr(dataio, "CHUNK_CHARS", chunk_chars)
        body = make_table(n=5, m=3).splitlines()
        if layout == "line_breaks":
            # every line break str.splitlines knows, "\r\n" and a lone "\r" included
            breaks = ["\r\n", "\r", "\x0b", "\x1c", "\x85", "\u2028", "\n"]
            text = "".join(ln + breaks[k % len(breaks)] for k, ln in enumerate(body))
        elif layout == "blanks_and_comments":
            text = ("\n \t\n".join(body[:7]) + "\n#a,1,0.5,1\n   \n" +
                    "\n# note\n".join(body[7:]) + "\n")
        elif layout == "long_preamble":
            comment = "#" + "p" * 40 + "\n"
            text = comment * (chunk_chars // len(comment) + 2) + "\n".join(body) + "\n"
        else:
            text = "\n".join(body)
        assert "".join(dataio._chunks(text)) == text
        assert_matches_line_route(monkeypatch, text)

    @pytest.mark.parametrize("chunk_chars", CHUNK_SIZES)
    def test_bad_line_in_a_later_chunk(self, monkeypatch, chunk_chars):
        # line numbers count every line of the text, whichever chunk holds it
        monkeypatch.setattr(dataio, "CHUNK_CHARS", chunk_chars)
        lines = make_table(n=6, m=4).splitlines()
        lines[20] = lines[20].rsplit(",", 1)[0]
        assert parse_error("# c\r\n" + "\r\n".join(lines)) == \
            "line 22: expected 4 columns, got 3"

    def test_parse_holds_no_list_of_every_line(self, monkeypatch):
        monkeypatch.setattr(dataio, "BLOCK_LINES", 512)
        monkeypatch.setattr(dataio, "CHUNK_CHARS", 16384)
        text = load_script("perfbench/workloads.py").compare_table_text(3, subjects=300)
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            parse_table(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a list of the text's lines alone takes 2.3 times its length
        assert peak < 2.5 * len(text)

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
           st.sampled_from(CHUNK_SIZES),
           st.lists(st.tuples(st.integers(0, 99), st.sampled_from(ROW_EDITS)), max_size=3),
           st.randoms(use_true_random=False))
    def test_block_route_accepts_only_what_line_route_accepts(self, n, m, block_lines,
                                                             chunk_chars, edits, rnd):
        rows = make_table(n=n, m=m, fn=lambda sid, t: t / 7 - sid).splitlines()[1:]
        rnd.shuffle(rows)
        for k, edit in edits:
            rows[k % len(rows)] = edit(rows[k % len(rows)])
        lines = ["subject,i,t,y"] + rows
        try:
            want = dataio._parse_lines(lines)
        except DataError:
            want = None
        saved = dataio.BLOCK_LINES, dataio.CHUNK_CHARS
        dataio.BLOCK_LINES, dataio.CHUNK_CHARS = block_lines, chunk_chars
        try:
            got = dataio._parse_blocks(dataio._rows("\n".join(rows)))
        finally:
            dataio.BLOCK_LINES, dataio.CHUNK_CHARS = saved
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


    def test_empty_test_set(self):
        table = parse_table(make_table(n=12, m=2))
        train, test = split(table, SplitSpec(3, -1, 0))
        assert train.indices.shape == (2, 12) and test.values.shape == (2, 0)
        with pytest.raises(ValueError, match="^test set must be nonempty$"):
            compare_estimators(table, SplitSpec(3, -1, 0))

    def test_empty_test_set_found_before_the_fit(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the training data was fitted")
        monkeypatch.setattr(dataio, "empirical_coefficients", refuse)
        table = parse_table(make_table(n=12, m=2))
        with pytest.raises(ValueError, match="^test set must be nonempty$"):
            compare_estimators(table, SplitSpec(3, -1, 0))

    def test_unequal_hold_out_counts_rejected(self):
        indices = (np.arange(1, 5), np.array([1, 2, 5, 6]))
        table = MultiSubjectTable(("a", "b"), indices, tuple(i / 10.0 for i in indices),
                                  tuple(1.5 * i for i in indices))
        with pytest.raises(DataError, match="^subjects hold out different numbers of "
                                            "indices: a holds out 2, b holds out 1$"):
            split(table, SplitSpec(2, 0, 2))  # held out: 2, 4


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
        # each fit's row cut at its threshold: compare sums only those terms, and a
        # longer dot product can round differently
        k = single_subject_threshold(stats, tau=tau_single)
        single = FunctionSeries(single_subject_estimate(stats, k)[0, :k[0]])
        k1, k2 = lepskii_thresholds_f(stats, tau1=tau1, tau2=tau2)
        double = FunctionSeries(double_threshold_estimate_f(stats, k1, k2)[0, :k2[0]])
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
        results = compare_estimators(table, SplitSpec(4, -2, 25),
                                     [single_subject_f(0.01), adaptive_f()])
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
            got = compare_estimators(table, spec, [single_subject_f(0.5), adaptive_f()])
            want = reference_comparison(table, spec, tau_single=0.5)
        assert got == want

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_plan_takes_a_posterior_fit(self, seed):
        # under its true spectra and unit noise the posterior mean pools the
        # other subjects, so its mean RMSPE is below the single fit's
        n, m = 151, 30
        prior, deviation = Spectrum(1.0), Spectrum(0.5)
        cfg = ModelConfig(n, m, prior, deviation)
        _, _, table = simulate_regression(cfg, [np.arange(n) / (n - 1)] * m, seed=seed)
        plan = [single_subject_f(), posterior_f(prior, deviation)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DataWarning)  # 55 terms on 101 points
            results = compare_estimators(table, SplitSpec(3, -1, 50), plan)
        assert [len(r) for r in results] == [3] * m
        single, posterior = np.mean([r[1:] for r in results], axis=0)
        assert posterior < single

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
        results = compare_estimators(table, SplitSpec(4, -2, 25),
                                     [single_subject_f(0.01), adaptive_f()])
        wins = sum(r_double < r_single for _, r_single, r_double in results)
        assert wins >= table.m // 2


def test_make_fixture_reproduces_bundled_table():
    bundled = (ROOT / "tests" / "fixtures" / "synthetic_curves.csv").read_text()
    assert load_script("scripts/make_fixture.py").build_table_text() == bundled
