"""Tests of the benchmark's own arithmetic and inputs.

The file name does not match pytest's ``test_*.py`` pattern, so the
repository's test suite does not collect it.  Run it by name:

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans as sp  # noqa: E402
import workloads as wl  # noqa: E402


def span(name, layer, start, end, parent, op=0, work=None):
    return [name, layer, start, end, parent, op, work]


# op 0: cli [0, 10] -> risk [1, 7] -> basis [2, 3], basis [4, 5]
#                   -> dataio [8, 9.5]
# op 1: cli [20, 22] with a child that runs past its parent's end
TREE = [
    span("cli.cli_dispatch", "cli", 0.0, 10.0, None),
    span("risk.run_monte_carlo", "risk", 1.0, 7.0, 0, work=2),
    span("basis.fourier_matrix", "basis", 2.0, 3.0, 1, work=100),
    span("basis.fourier_matrix", "basis", 4.0, 5.0, 1, work=50),
    span("dataio.parse_table", "dataio", 8.0, 9.5, 0, work=7),
    span("cli.cli_dispatch", "cli", 20.0, 22.0, None, op=1),
    span("dataio.load_table", "dataio", 21.0, 23.0, 5, op=1),
]


def test_self_times_subtract_the_cover_of_children():
    assert sp.self_times(TREE) == pytest.approx([2.5, 4.0, 1.0, 1.0, 1.5, 1.0, 2.0])


def test_self_times_of_an_op_sum_to_its_root_span():
    totals = sp.self_by_op(TREE[:5])
    assert totals == {0: pytest.approx(10.0)}


def test_layer_metrics_on_a_synthetic_tree():
    m = sp.layer_metrics(TREE[:5], ops=1)
    assert m["cli.self_s"] == pytest.approx(2.5)
    assert m["risk.self_s"] == pytest.approx(4.0)
    assert m["basis.self_s"] == pytest.approx(2.0)
    assert m["basis.calls"] == 2
    assert m["basis.fourier_matrix.cells"] == 150
    assert m["risk.estimator_failures"] == 2
    assert m["dataio.rows_parsed"] == 7
    assert m["dataio.parse_s"] == pytest.approx(1.5)
    assert sum(m[f"{layer}.self_s"] for layer in sp.LAYERS) == pytest.approx(10.0)


def test_parse_time_counts_nested_parse_spans_once():
    tree = [span("dataio.load_table", "dataio", 0.0, 4.0, None),
            span("dataio.parse_table", "dataio", 1.0, 3.0, 0, work=5)]
    assert sp.layer_metrics(tree, ops=2)["dataio.parse_s"] == pytest.approx(2.0)


@pytest.mark.parametrize("n, percentile, rank", [
    (100, 90.0, 90), (30, 100 * 20 / 30, 20), (11, 100 / 11, 1), (10, 100.0, 10), (1, 100.0, 1)])
def test_tail_percentile_keeps_ten_samples_beyond(n, percentile, rank):
    samples = [float(v) for v in range(n, 0, -1)]     # value == rank
    got_percentile, value = run.tail_percentile(samples)
    assert got_percentile == pytest.approx(percentile)
    assert value == rank
    if n > 10:
        assert sum(s > value for s in samples) >= 10


def test_compare_table_is_a_function_of_the_seed():
    a = wl.compare_table_text(7, subjects=4, points=9)
    assert a == wl.compare_table_text(7, subjects=4, points=9)
    assert a != wl.compare_table_text(8, subjects=4, points=9)
    lines = a.splitlines()
    assert lines[0] == "subject,i,t,y" and len(lines) == 1 + 4 * 9
    assert lines[1].startswith("s0001,1,0.0,") and lines[-1].startswith("s0004,9,1.0,")


def test_op_seeds_differ_between_ops_and_workload_seeds():
    seeds = {wl.op_seed(s, i) for s in range(5) for i in range(50)}
    assert len(seeds) == 250


def test_tracer_wraps_direct_imports_and_restores_them():
    import twolevel.cli as cli
    import twolevel.risk as risk
    import twolevel.simulate as simulate

    originals = (risk.sample_population, cli.run_monte_carlo,
                 simulate.CoefficientPanel.__post_init__)
    cfg = simulate.ModelConfig(4, 3, simulate.Spectrum(0.5), simulate.Spectrum(0.5))
    plan = [risk.adaptive_g()]
    tracer = sp.Tracer()
    tracer.op = 3
    tracer.install()
    try:
        assert risk.sample_population is not originals[0]
        assert cli.run_monte_carlo is not originals[1]
        assert isinstance(simulate.CoefficientPanel, type)
        reports = cli.run_monte_carlo(cfg, plan, replicates=2, seed=0)
    finally:
        tracer.uninstall()
    assert (risk.sample_population, cli.run_monte_carlo,
            simulate.CoefficientPanel.__post_init__) == originals
    names = [s[sp.NAME] for s in tracer.spans]
    assert names[0] == "risk.run_monte_carlo"
    assert names.count("simulate.sample_population") == 2
    assert names.count("simulate.CoefficientPanel") == 2
    assert all(s[sp.OP] == 3 for s in tracer.spans)
    m = sp.layer_metrics(tracer.spans, ops=1)
    assert m["simulate.panel_cells"] == 2 * 3 * cfg.k_max
    assert m["risk.estimator_failures"] == sum(r.failures for r in reports.values())


def test_checks_reject_wrong_outputs():
    ref = {"median_mise": {"a": 0.1}}
    good = [["estimator", "target", "replicates", "failures", "median"],
            ["a", "g", "50", "0", "0.12"]]
    wl.check_study1(good, ref)
    with pytest.raises(wl.CheckFailed, match="failed replicates"):
        wl.check_study1([good[0], ["a", "g", "50", "1", "0.12"]], ref)
    with pytest.raises(wl.CheckFailed, match="not within"):
        wl.check_study1([good[0], ["a", "g", "50", "0", "0.3"]], ref)
    cells = {"1,5": {"mean": -0.3, "sd": 0.1}, "5,5": {"mean": -0.5, "sd": 0.01}}
    rows = [["n", "m", "v", "bin"], ["1", "5", "-0.2", "0"], ["5", "5", "-0.6", "1"]]
    wl.check_study2(rows, cells, "g")
    with pytest.raises(wl.CheckFailed, match="cells"):
        wl.check_study2(rows[:2], cells, "g")
    with pytest.raises(wl.CheckFailed, match="not within"):
        wl.check_study2([rows[0], rows[1], ["5", "5", "nan", "1"]], cells, "g")
