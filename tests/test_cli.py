import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import twolevel
from twolevel.basis import Spectrum
from twolevel.cli import build_parser, cli_dispatch
from twolevel.design import lattice
from twolevel.estimators import lepskii_thresholds_f, oracle_thresholds
from twolevel.simulate import (ModelConfig, replicate_normals, sample_population,
                               sample_stats, substream)


def run(capsys, *argv):
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRates:
    def test_example_values(self, capsys):
        code, out, _ = run(capsys, "rates", "--n", "100", "--m", "100",
                           "--alpha", "0.5", "--alpha-tilde", "0.5")
        assert code == 0
        assert "rate_g=0.02" in out
        assert "rate_f=0.11" in out

    def test_bad_model_is_config_error(self, capsys):
        code, _, err = run(capsys, "rates", "--n", "-5", "--m", "10", "--alpha", "0.5")
        assert code == 2
        assert "config error" in err

    def test_documented_example(self, capsys):
        code, out, _ = run(capsys, "rates", "--n", "100", "--m", "10", "--alpha", "0.5")
        assert (code, out) == (0, "rate_g=0.131623 rate_f=0.131623\n")

    @pytest.mark.parametrize("flag", ["--cost-n", "--cost-m"])
    def test_has_no_cost_flags(self, capsys, flag):
        # the rates do not depend on costs; only the gradient-map arrows do
        code, out, err = run(capsys, "rates", "--n", "100", "--m", "10", "--alpha", "0.5",
                             flag, "7")
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {flag} 7" in err


class TestArtifacts:
    def test_gradient_map_outputs(self, tmp_path, capsys):
        out = tmp_path / "maps"
        code, _, _ = run(capsys, "gradient-map", "--alpha", "1.0", "--target", "f",
                         "--budget", "200", "--density", "5", "--out", str(out))
        assert code == 0
        svg = out / "gradient_map_f.svg"
        csv = out / "gradient_map_f.csv"
        assert svg.exists() and csv.exists()
        assert (out / "manifest.txt").exists()
        header = csv.read_text().splitlines()
        assert header[0].startswith("# twolevel = ")
        assert any(ln.startswith("# command = gradient-map") for ln in header)

    def test_gradient_map_heatmap_outputs(self, tmp_path, capsys):
        out = tmp_path / "heat"
        code, stdout, _ = run(capsys, "gradient-map", "--alpha", "0.5", "--budget", "100",
                              "--density", "4", "--out", str(out))
        assert code == 0
        assert (out / "heatmap_rate_g.svg").exists()
        body = (out / "heatmap_rate_g.csv").read_text()
        assert "# bin_edges = " in body
        names = ", ".join(str(out / name) for name in ("gradient_map_g.svg", "gradient_map_g.csv",
                                                       "heatmap_rate_g.svg"))
        assert stdout == f"wrote {names} and {out / 'heatmap_rate_g.csv'}\n"

    @pytest.mark.parametrize("target", ["g", "f"])
    @pytest.mark.parametrize("flags,costs", [((), (0.0, 1.0)),
                                             (("--cost-subject", "10"), (10.0, 1.0))],
                             ids=["product", "two-level"])
    def test_gradient_map_heatmap_is_the_feasible_rate_surface(self, tmp_path, capsys,
                                                                flags, costs, target):
        code, _, err = run(capsys, "gradient-map", "--alpha", "0.5", "--budget", "2000",
                           "--density", "10", "--target", target, *flags,
                           "--out", str(tmp_path))
        assert code == 0, err

        def body(name):
            return [ln.split(",") for ln in (tmp_path / name).read_text().splitlines()
                    if not ln.startswith("#")][1:]
        heat, grad = body(f"heatmap_rate_{target}.csv"), body(f"gradient_map_{target}.csv")
        assert [(int(n), int(m)) for n, m, *_ in heat] == lattice(2000, 10, *costs)
        rate = 2 if target == "g" else 3
        assert [row[:2] for row in heat] == [row[:2] for row in grad]
        assert [row[2] for row in heat] == [repr(math.log(float(row[rate]))) for row in grad]

    def test_heatmap_command_is_gone(self, tmp_path, capsys):
        code, out, err = run(capsys, "heatmap", "--alpha", "0.5", "--out", str(tmp_path / "o"))
        assert (code, out) == (2, "")
        assert "invalid choice: 'heatmap'" in err
        assert not (tmp_path / "o").exists()

    def test_gradient_map_heatmap_stays_within_fractional_budget(self, tmp_path, capsys):
        code, _, _ = run(capsys, "gradient-map", "--alpha", "0.5", "--budget", "150.7",
                         "--density", "12", "--out", str(tmp_path))
        assert code == 0
        rows = [ln.split(",") for ln in (tmp_path / "heatmap_rate_g.csv").read_text().splitlines()
                if not ln.startswith("#")][1:]
        cells = [(int(row[0]), int(row[1])) for row in rows]
        assert cells == lattice(150.7, 12)
        assert all(n * m <= 150.7 for n, m in cells)
        # the lattice of study2 at this budget: its integer part
        assert cells == lattice(150, 12)

    def test_gradient_map_below_one_unit_is_config_error(self, tmp_path, capsys):
        code, out, err = run(capsys, "gradient-map", "--alpha", "0.5", "--budget", "0.5",
                             "--out", str(tmp_path / "o"))
        assert (code, out, err) == (2, "", "config error: budget admits no feasible design\n")
        assert not (tmp_path / "o").exists()

    COST_ERRORS = {"--cost-obs": "per_obs must be a finite number above 0",
                   "--cost-subject": "per_subject must be a finite number of at least 0"}

    @pytest.mark.parametrize("flag,value", [("--cost-obs", "0"), ("--cost-obs", "-1"),
                                            ("--cost-obs", "nan"), ("--cost-subject", "-1"),
                                            ("--cost-subject", "nan"),
                                            ("--cost-subject", "inf")])
    def test_gradient_map_bad_cost_is_config_error(self, tmp_path, capsys, flag, value):
        code, out, err = run(capsys, "gradient-map", "--alpha", "1.0", flag, value,
                             "--out", str(tmp_path / "o"))
        assert (code, out) == (2, "")
        assert err == f"config error: {self.COST_ERRORS[flag]}, got {float(value)}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag,other", [("--cost-obs", "--cost-subject"),
                                            ("--cost-subject", "--cost-obs")],
                             ids=["obs-beside-subject", "subject-beside-obs"])
    def test_gradient_map_bad_cost_beside_set_cost_is_config_error(self, tmp_path, capsys,
                                                                   flag, other):
        # a valid non-default cost on the other flag does not mask the bad one
        code, out, err = run(capsys, "gradient-map", "--alpha", "1.0", other, "3", flag, "-1",
                             "--out", str(tmp_path / "o"))
        assert (code, out) == (2, "")
        assert err == f"config error: {self.COST_ERRORS[flag]}, got -1.0\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag", ["--budget-mode", "--cost-n", "--cost-m"])
    def test_gradient_map_has_no_linear_cost_flags(self, tmp_path, capsys, flag):
        code, out, err = run(capsys, "gradient-map", "--alpha", "1.0", flag, "1",
                             "--out", str(tmp_path / "o"))
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {flag} 1" in err

    def test_gradient_map_costs_shape_only_the_lattice(self, tmp_path, capsys):
        def rows(*flags):
            out = tmp_path / "-".join(flags)
            code, _, err = run(capsys, "gradient-map", "--alpha", "0.5", "--budget", "2000",
                               "--density", "10", *flags, "--out", str(out))
            assert code == 0, err
            lines = (out / "gradient_map_g.csv").read_text().splitlines()
            body = [ln for ln in lines if not ln.startswith("#")][1:]
            return {tuple(map(int, ln.split(",")[:2])): ln for ln in body}
        product = rows()
        costly = rows("--cost-subject", "10", "--cost-obs", "2")
        assert set(costly) == set(lattice(2000, 10, per_subject=10.0, per_obs=2.0))
        shared = set(costly) & set(product)
        assert shared and all(costly[cell] == product[cell] for cell in shared)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e300", "9.3e18"])
    @pytest.mark.parametrize("command", ["gradient-map", "study2"])
    def test_budget_past_exact_integers_is_config_error(self, tmp_path, capsys,
                                                        command, value):
        # int64 lattice values would wrap past 2**63 and floats skip integers past 2**53
        code, out, err = run(capsys, command, "--alpha", "1.0", f"--budget={value}",
                             "--out", str(tmp_path / "o"))
        assert (code, out) == (2, "")
        assert err == ("config error: budget must be a finite number in "
                       f"(0, 2**53 = 9007199254740992], got {float(value)!r}\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["gradient-map"])
    def test_budget_at_two_to_the_53_runs(self, tmp_path, capsys, command):
        code, _, _ = run(capsys, command, "--alpha", "1.0", "--budget", str(2**53),
                         "--density", "3", "--out", str(tmp_path))
        assert code == 0
        for name in ("gradient_map_g.csv", "heatmap_rate_g.csv"):
            rows = [ln.split(",") for ln in (tmp_path / name).read_text().splitlines()
                    if not ln.startswith("#")]
            assert 1 < max(int(row[0]) for row in rows[1:]) <= 2**53

    def test_rerun_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["simulate", "--n", "20", "--m", "3", "--alpha", "0.5",
                "--seed", "11"]
        assert cli_dispatch(argv + ["--out", str(a)]) == 0
        assert cli_dispatch(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()
        assert (a / "manifest.txt").read_bytes() == (b / "manifest.txt").read_bytes()

    def test_simulate_seed_in_header(self, tmp_path, capsys):
        out = tmp_path / "sim"
        code, _, _ = run(capsys, "simulate", "--n", "10", "--m", "2",
                         "--alpha", "1.0", "--seed", "37", "--out", str(out))
        assert code == 0
        head = (out / "dataset.csv").read_text().splitlines()
        assert "# seed = 37" in head
        assert "subject,i,t,y" in head

    def test_simulate_then_compare(self, tmp_path, capsys):
        code, _, _ = run(capsys, "simulate", "--n", "151", "--m", "4", "--alpha", "0.5",
                         "--seed", "5", "--out", str(tmp_path))
        assert code == 0
        out = tmp_path / "cmp" / "rmspe.csv"
        code, _, err = run(capsys, "compare", "--data", str(tmp_path / "dataset.csv"),
                           "--out", str(out))
        assert code == 0, err
        body = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert body[0] == "subject,rmspe_single,rmspe_double,diff"
        assert [ln.split(",")[0] for ln in body[1:]] == ["1", "2", "3", "4"]

    def test_simulate_has_no_sampling_flag(self, tmp_path, capsys):
        code, _, err = run(capsys, "simulate", "--n", "10", "--m", "2", "--alpha", "0.5",
                           "--sampling", "series", "--out", str(tmp_path / "sim"))
        assert code == 2
        assert "unrecognized arguments: --sampling series" in err
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("flags,message", [
        (("--m", "0"), "need at least 1 subject, got m = 0"),
        (("--m", "2", "--noise-sd", "-1"), "noise_sd must be non-negative, got -1.0"),
    ], ids=["m0", "negative-noise"])
    def test_simulate_rejects_what_compare_cannot_read(self, tmp_path, capsys, flags, message):
        out = tmp_path / "sim"
        code, _, err = run(capsys, "simulate", "--n", "10", "--alpha", "0.5", *flags,
                           "--out", str(out))
        assert (code, err) == (2, f"config error: {message}\n")
        assert not out.exists()

    def test_simulate_noiseless(self, tmp_path, capsys):
        code, _, _ = run(capsys, "simulate", "--n", "10", "--m", "2", "--alpha", "0.5",
                         "--noise-sd", "0", "--out", str(tmp_path))
        assert code == 0
        assert "# noise_sd = 0.0" in (tmp_path / "dataset.csv").read_text().splitlines()


class TestStudies:
    def test_study1_reports(self, tmp_path, capsys):
        out = tmp_path / "s1"
        code, _, _ = run(capsys, "study1", "--n", "30", "--m", "4",
                         "--alpha", "1.0", "--replicates", "3", "--seed", "2",
                         "--out", str(out))
        assert code == 0
        summary = (out / "summary.csv").read_text()
        lines = [ln for ln in summary.splitlines() if not ln.startswith("#")]
        assert lines[0] == "estimator,target,replicates,failures,median,mean,q1,q3,mean_log"
        labels = {ln.split(",")[0] for ln in lines[1:]}
        assert any(lbl.startswith("adaptive_g") for lbl in labels)
        assert any(lbl.startswith("fixed_g") for lbl in labels)
        assert any(lbl.startswith("adaptive_f") for lbl in labels)
        assert any(lbl.startswith("single_f") for lbl in labels)

    def test_study2_heatmaps(self, tmp_path, capsys):
        out = tmp_path / "s2"
        code, _, _ = run(capsys, "study2", "--alpha", "1.0", "--budget", "120",
                         "--density", "4", "--replicates", "2", "--seed", "1",
                         "--out", str(out))
        assert code == 0
        assert (out / "heatmap_mise_g.svg").exists()
        assert (out / "heatmap_mise_f.csv").exists()

    def test_study2_draws_each_replicate_stream_once(self, tmp_path, capsys, monkeypatch):
        # every cell reads a prefix of one shared block, so the run keys one
        # substream per replicate, not one per replicate and cell
        from twolevel import simulate
        keys = []

        def counting(seed, *key):
            keys.append((seed, *key))
            return substream(seed, *key)
        monkeypatch.setattr(simulate, "substream", counting)
        code, _, err = run(capsys, "study2", "--alpha", "1.0", "--budget", "120",
                           "--density", "4", "--replicates", "3", "--seed", "7",
                           "--out", str(tmp_path / "s2"))
        assert code == 0, err
        assert keys == [(7, 0), (7, 1), (7, 2)]

    @pytest.mark.parametrize("budget,density,drawn_m,cells", [("120", "4", [5], 3),
                                                               ("100", "6", [3, 6], 8)],
                             ids=["b120_d4", "b100_d6"])
    def test_study2_fits_only_the_drawn_cells(self, tmp_path, capsys, monkeypatch,
                                              budget, density, drawn_m, cells):
        # the heatmaps draw the m values feasible at every n; a cell outside
        # that rectangle is never fitted
        from twolevel import cli
        original, fitted = cli.run_monte_carlo, []

        def recording(cfg, *args, **kwargs):
            fitted.append((cfg.n, cfg.m))
            return original(cfg, *args, **kwargs)
        monkeypatch.setattr(cli, "run_monte_carlo", recording)
        out = tmp_path / "s2"
        code, _, err = run(capsys, "study2", "--alpha", "1.0", "--budget", budget,
                           "--density", density, "--replicates", "2", "--seed", "1",
                           "--out", str(out))
        assert code == 0, err
        assert len(fitted) == cells
        assert sorted({m for _, m in fitted}) == drawn_m
        for target in ("g", "f"):
            rows = [ln.split(",") for ln in (out / f"heatmap_mise_{target}.csv")
                    .read_text().splitlines() if not ln.startswith("#")][1:]
            assert fitted == [(int(n), int(m)) for n, m, *_ in rows]

    @pytest.mark.parametrize("budget,density", [("1", "6"), ("3", "1")])
    def test_study2_without_a_two_subject_cell_is_config_error(self, tmp_path, capsys,
                                                               budget, density):
        code, out, err = run(capsys, "study2", "--alpha", "1.0", "--budget", budget,
                             "--density", density, "--replicates", "2",
                             "--out", str(tmp_path / "s2"))
        assert (code, out) == (2, "")
        assert err == (f"config error: budget {budget} at density {density} admits "
                       f"no design with at least 2 subjects\n")
        assert not (tmp_path / "s2").exists()

    @pytest.mark.parametrize("density", ["0", "-3"])
    @pytest.mark.parametrize("command", ["gradient-map", "study2"])
    def test_density_below_one_is_config_error(self, tmp_path, capsys, command, density):
        code, out, err = run(capsys, command, "--alpha", "1.0", "--density", density,
                             "--out", str(tmp_path / "o"))
        assert (code, out) == (2, "")
        assert err == f"config error: density must be at least 1, got {density}\n"
        assert not (tmp_path / "o").exists()

    def test_study1_single_subject_names_cause_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "s1"
        code, _, err = run(capsys, "study1", "--n", "30", "--m", "1",
                           "--alpha", "1.0", "--replicates", "3", "--out", str(out))
        assert code == 2
        assert "no successful replicates for adaptive_f" in err
        assert "need at least 2 subjects" in err
        assert not out.exists() or not any(out.iterdir())

    def test_study1_single_subject_fails_before_sampling(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sample_stats called")
        monkeypatch.setattr("twolevel.simulate.sample_stats", refuse)
        monkeypatch.setattr("twolevel.risk.sample_stats", refuse)
        code, _, err = run(capsys, "study1", "--n", "30", "--m", "1", "--alpha", "1.0",
                           "--replicates", "3", "--out", str(tmp_path / "s1"))
        assert (code, err) == (2, "config error: no successful replicates for "
                                  "adaptive_f_tau4.5_6.5 are possible: need at least 2 "
                                  "subjects, got m = 1\n")
        assert not (tmp_path / "s1").exists()

    def test_study1_nan_tau_writes_nothing(self, tmp_path, capsys):
        # NaN fails every comparison, so "tau <= 0" would let it select silently
        out = tmp_path / "s1"
        code, _, err = run(capsys, "study1", "--n", "30", "--m", "4", "--alpha", "1.0",
                           "--replicates", "3", "--tau", "nan", "--out", str(out))
        assert (code, err) == (2, "config error: --tau must be positive, got nan\n")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-1", "nan"])
    @pytest.mark.parametrize("command,flag", [
        ("study1", "--tau"), ("study1", "--tau1"), ("study1", "--tau2"),
        ("study2", "--tau"), ("study2", "--tau1"), ("study2", "--tau2"),
        ("oracle-check", "--tau1"), ("oracle-check", "--tau2")])
    def test_nonpositive_tau_fails_before_sampling(self, tmp_path, capsys, monkeypatch,
                                                   command, flag, value):
        def refuse(*args, **kwargs):
            raise AssertionError("a replicate stream was drawn")
        monkeypatch.setattr("twolevel.simulate.substream", refuse)
        sizes = {"study2": ("--budget", "120", "--density", "4", "--replicates", "3"),
                 "study1": ("--n", "30", "--m", "4", "--replicates", "3"),
                 "oracle-check": ("--n", "30", "--m", "4")}[command]
        out_flag = () if command == "oracle-check" else ("--out", str(tmp_path / "o"))
        code, out, err = run(capsys, command, *sizes, "--alpha", "1.0", flag, value, *out_flag)
        assert (code, out) == (2, "")
        assert err == f"config error: {flag} must be positive, got {float(value)}\n"
        assert not (tmp_path / "o").exists()

    def test_study1_default_k_max_covers_fixed_thresholds(self, tmp_path, capsys):
        # the README line: fixed_g_beta0.2 keeps ceil(10000^(1/1.4)) = 720
        # coefficients, more than 4 sqrt(n m) = 400
        out = tmp_path / "s1"
        code, _, err = run(capsys, "study1", "--n", "100", "--m", "100", "--alpha", "0.5",
                           "--replicates", "3", "--out", str(out))
        assert code == 0, err
        assert "# k_max = 720" in (out / "summary.csv").read_text().splitlines()

    def test_study1_k_max_below_fixed_threshold_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "s1"
        code, _, err = run(capsys, "study1", "--n", "100", "--m", "100", "--alpha", "0.5",
                           "--k-max", "400", "--replicates", "3", "--out", str(out))
        assert code == 2
        assert err == ("config error: k_max = 400 is below the widest fixed threshold: "
                       "fixed_g_beta0.2 keeps 720 coefficients\n")
        assert not out.exists()


@pytest.fixture
def table_csv(tmp_path):
    rng = np.random.default_rng(3)
    n, m = 40, 5
    lines = ["subject,i,t,y"]
    base = np.sin(2 * np.pi * np.arange(n) / (n - 1))
    for j in range(m):
        y = base + 0.1 * rng.normal(size=n)
        for i in range(n):
            lines.append(f"s{j},{i + 1},{i / (n - 1)!r},{float(y[i])!r}")
    path = tmp_path / "table.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestDataCommands:
    def test_compare_out(self, tmp_path, table_csv, capsys):
        out = tmp_path / "cmp"
        code, _, _ = run(capsys, "compare", "--data", str(table_csv),
                         "--test-a", "4", "--test-b", "-2", "--test-count", "10",
                         "--out", str(out / "rmspe.csv"))
        assert code == 0
        body = (out / "rmspe.csv").read_text()
        assert "# command = compare" in body
        assert "subject,rmspe_single,rmspe_double,diff" in body
        assert (out / "manifest.txt").exists()

    def test_compare_stdout(self, table_csv, capsys):
        code, out, _ = run(capsys, "compare", "--data", str(table_csv),
                           "--test-a", "4", "--test-b", "-2", "--test-count", "10")
        assert code == 0
        assert "subject,rmspe_single,rmspe_double,diff" in out
        assert "two-threshold wins on" in out

    def test_missing_data_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "compare", "--data", str(tmp_path / "nope.csv"))
        assert code == 3
        assert "data error" in err

    def test_malformed_data_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("subject,i,t,y\na,1,0.5,1.0\na,2,0.25,2.0\n")
        code, _, err = run(capsys, "compare", "--data", str(bad))
        assert code == 3
        assert "strictly increasing" in err

    def test_out_of_range_split_is_data_error(self, table_csv, capsys):
        code, _, err = run(capsys, "compare", "--data", str(table_csv),
                           "--test-a", "50", "--test-b", "0", "--test-count", "10")
        assert code == 3

    def test_empty_test_set_is_config_error_before_the_fit(self, table_csv, capsys,
                                                           monkeypatch):
        # a table that could not be fitted would be a data error (exit 3); the
        # empty test set is found first
        def unfittable(*args, **kwargs):
            raise ValueError("overflow")
        monkeypatch.setattr("twolevel.dataio.empirical_coefficients", unfittable)
        code, out, err = run(capsys, "compare", "--data", str(table_csv), "--test-count", "0")
        assert (code, out, err) == (2, "", "config error: test set must be nonempty\n")

    def test_empty_train_split_is_data_error(self, capsys):
        fixture = pathlib.Path(__file__).parent / "fixtures" / "synthetic_curves.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = run(capsys, "compare", "--data", str(fixture), "--test-a", "1",
                               "--test-b", "0", "--test-count", "151")
        assert code == 3
        assert "data error" in err and "n = 151" in err

    @pytest.mark.parametrize("flag", ["--tau1", "--tau2", "--tau-single"])
    def test_nonpositive_tau_is_config_error(self, table_csv, capsys, flag):
        for value in ("-1", "nan"):
            code, out, err = run(capsys, "compare", "--data", str(table_csv), "--test-a", "4",
                                 "--test-b", "-2", "--test-count", "10", flag, value)
            assert code == 2
            assert err == f"config error: {flag} must be positive, got {float(value)}\n"
            assert out == ""

    @pytest.mark.parametrize("flag", ["--tau1", "--tau2", "--tau-single"])
    def test_nonpositive_tau_fails_before_the_table_is_read(self, tmp_path, capsys,
                                                             monkeypatch, flag):
        def refuse(path):
            raise AssertionError("the table was read")
        monkeypatch.setattr("twolevel.cli.load_table", refuse)
        code, out, err = run(capsys, "compare", "--data", str(tmp_path / "absent.csv"),
                             flag, "0")
        assert (code, out) == (2, "")
        assert err == f"config error: {flag} must be positive, got 0.0\n"

    def test_non_utf8_data_file_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"subject,i,t,y\na,1,0.5,1.0\n\xff\n")
        code, out, err = run(capsys, "compare", "--data", str(bad))
        assert (code, out) == (3, "")
        assert err == "data error: not UTF-8 text: byte 0xff at offset 26 (invalid start byte)\n"

    def test_constant_times_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "constant.csv"
        data.write_text("subject,i,t,y\na,1,5.0,1.0\nb,1,5.0,2.0\n")
        code, _, err = run(capsys, "compare", "--data", str(data))
        assert code == 3
        assert err == "data error: every t is 5.0; cannot rescale t to [0, 1]\n"

    # both tables overflow numpy sums on purpose; the CLI prints those warnings
    @pytest.mark.filterwarnings("default::RuntimeWarning")
    def test_overflowing_coefficients_are_data_error(self, tmp_path, capsys):
        lines = ["subject,i,t,y"] + [f"{s},{i},{(i - 1) / 11!r},{(-1) ** i * 1e308!r}"
                                     for s in "abc" for i in range(1, 13)]
        data = tmp_path / "huge.csv"
        data.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "compare", "--data", str(data), "--test-count", "4")
        assert code == 3
        assert err.endswith("data error: cannot fit the training data: "
                            "coefficient panel has non-finite entries\n")

    @pytest.mark.filterwarnings("default::RuntimeWarning")
    def test_overflowing_leave_one_out_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "huge.csv"
        data.write_text("subject,i,t,y\n" + "".join(f"{s},1,0.1,1.5e308\n{s},2,0.6,1.5e308\n"
                                                    for s in "abc"))
        code, _, err = run(capsys, "compare", "--data", str(data), "--test-a", "1",
                           "--test-b", "1", "--test-count", "1")
        assert code == 3
        assert err.endswith("data error: cannot fit the training data: "
                            "donor_mean has non-finite entries\n")


    def test_compare_fixture_prints_no_warning(self, capsys):
        fixture = pathlib.Path(__file__).parent / "fixtures" / "synthetic_curves.csv"
        code, _, err = run(capsys, "compare", "--data", str(fixture))
        assert code == 0
        assert err == ""

    def test_compare_warns_rescaled_times(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        lines = ["subject,i,t,y"] + [f"s{j},{i},{2.0 * i!r},{float(rng.normal())!r}"
                                     for j in range(3) for i in range(1, 13)]
        data = tmp_path / "shifted.csv"
        data.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "compare", "--data", str(data), "--test-count", "4",
                           "--out", str(tmp_path / "cmp" / "rmspe.csv"))
        assert code == 0
        assert err == "warning: t rescaled to [0, 1] from [2.0, 24.0]\n"
        for name in ("rmspe.csv", "manifest.txt"):
            assert "warning" not in (tmp_path / "cmp" / name).read_text()

    def test_compare_warns_aliased_coefficients(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        lines = ["subject,i,t,y"] + [f"s{j},{i + 1},{i / 20!r},{float(rng.normal())!r}"
                                     for j in range(40) for i in range(21)]
        data = tmp_path / "coarse.csv"
        data.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "compare", "--data", str(data), "--test-a", "4",
                             "--test-b", "0", "--test-count", "5")
        assert code == 0
        assert err == ("warning: fit width 25 exceeds n/2 = 8 training points per subject; "
                       "coefficients are aliased\n")
        assert out.startswith("subject,rmspe_single,rmspe_double,diff\n")


class TestOracleCheck:
    def test_prints_all_four(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "--n", "100", "--m", "10",
                           "--alpha", "1.0", "--seed", "4")
        assert code == 0
        for token in ("k1*=", "k2*=", "k1=", "k2="):
            assert token in out

    @pytest.mark.parametrize("n,m,alpha,seed", [(50, 20, 1.0, 1), (100, 10, 1.0, 0),
                                                (30, 40, 0.5, 4), (7, 2, 1.5, 9)])
    def test_draws_through_the_lab_sampler(self, capsys, n, m, alpha, seed):
        # the oracle reads g of replicate 0, which is sample_population on its
        # substream; the adaptive thresholds read that replicate's statistics
        cfg = ModelConfig(n, m, Spectrum(alpha), Spectrum(0.5))
        g = sample_population(cfg, substream(seed, 0))
        k1_star, k2_star = oracle_thresholds(g, Spectrum(0.5), n, m)
        _, _, stats = sample_stats(cfg, replicate_normals(seed, 1, cfg.stats_width))
        k1, k2 = lepskii_thresholds_f(stats)
        code, out, err = run(capsys, "oracle-check", "--n", str(n), "--m", str(m),
                             "--alpha", str(alpha), "--seed", str(seed))
        assert (code, err) == (0, "")
        assert out == f"oracle k1*={k1_star} k2*={k2_star} adaptive k1={k1[0]} k2={k2[0]}\n"

    @pytest.mark.parametrize("m", [0, 1])
    def test_fewer_than_two_subjects_fail_before_sampling(self, capsys, monkeypatch, m):
        def refuse(*args, **kwargs):
            raise AssertionError("sample_stats called")
        monkeypatch.setattr("twolevel.simulate.sample_stats", refuse)
        monkeypatch.setattr("twolevel.cli.sample_stats", refuse)
        code, out, err = run(capsys, "oracle-check", "--n", "30", "--m", str(m),
                             "--alpha", "1.0")
        assert (code, out) == (2, "")
        assert err == f"config error: need at least 2 subjects, got m = {m}\n"


    def test_k_max_below_the_k2_search_bound_fails_before_sampling(self, capsys, monkeypatch):
        # isqrt(100 * 10) = 31 columns are searched for k2
        code, _, err = run(capsys, "oracle-check", "--n", "100", "--m", "10",
                           "--alpha", "1.0", "--k-max", "31")
        assert (code, err) == (0, "")

        def refuse(*args, **kwargs):
            raise AssertionError("replicate_normals called")
        monkeypatch.setattr("twolevel.cli.replicate_normals", refuse)
        code, out, err = run(capsys, "oracle-check", "--n", "100", "--m", "10",
                             "--alpha", "1.0", "--k-max", "5")
        assert (code, out) == (2, "")
        assert err == "config error: --k-max 5 is below the k2 search bound isqrt(n*m) = 31\n"


class TestHeaderContract:
    """Every CSV opens with the manifest's lines as ``# `` lines, and every SVG
    carries them as comments right after its ``<svg>`` line."""

    # command: (files besides manifest.txt, flags)
    RUNS = {
        "gradient-map": (4, ("--alpha", "1.0", "--budget", "200", "--density", "5")),
        "simulate": (1, ("--n", "10", "--m", "2", "--alpha", "1.0", "--seed", "4")),
        "study1": (7, ("--n", "7", "--m", "2", "--alpha", "1.0", "--replicates", "2")),
        "study2": (4, ("--alpha", "1.0", "--budget", "120", "--density", "4",
                       "--replicates", "2")),
        "compare": (1, ("--test-a", "4", "--test-b", "-2", "--test-count", "10")),
    }

    @pytest.mark.parametrize("command", list(RUNS))
    def test_every_file_carries_the_manifest(self, tmp_path, table_csv, capsys, command):
        out = tmp_path / "out"
        n_files, flags = self.RUNS[command]
        where = (("--data", str(table_csv), "--out", str(out / "rmspe.csv"))
                 if command == "compare" else ("--out", str(out)))
        code, _, err = run(capsys, command, *flags, *where)
        assert code == 0, err
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert manifest[0] == f"twolevel = {twolevel.__version__}"
        assert f"command = {command}" in manifest
        files = sorted(p for p in out.iterdir() if p.name != "manifest.txt")
        assert len(files) == n_files
        for path in files:
            lines = path.read_text().splitlines()
            if path.suffix == ".svg":
                assert lines[0].startswith("<svg ")
                assert lines[1:1 + len(manifest)] == [f"<!-- {ln} -->" for ln in manifest]
                assert lines[1 + len(manifest)].startswith("<rect ")
            else:
                assert path.suffix == ".csv"
                assert lines[:len(manifest)] == [f"# {ln}" for ln in manifest]


class TestDispatch:
    def test_unknown_command(self, capsys):
        assert cli_dispatch(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert cli_dispatch(["rates", "--n", "5"]) == 2
        capsys.readouterr()

    def test_env_out_dir(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv("TWOLEVEL_OUT_DIR", str(target))
        code, _, _ = run(capsys, "simulate", "--n", "10", "--m", "2",
                         "--alpha", "1.0")
        assert code == 0
        assert (target / "dataset.csv").exists()

    @pytest.mark.parametrize("spelling", ["--out DIR", "--out=DIR"],
                             ids=["two-tokens", "one-token"])
    def test_explicit_out_beats_env(self, tmp_path, capsys, monkeypatch, spelling):
        monkeypatch.setenv("TWOLEVEL_OUT_DIR", str(tmp_path / "envout"))
        explicit = tmp_path / "explicit"
        flag = spelling.replace("DIR", str(explicit)).split(" ")
        code, _, _ = run(capsys, "simulate", "--n", "10", "--m", "2",
                         "--alpha", "1.0", *flag)
        assert code == 0
        assert (explicit / "dataset.csv").exists()
        assert not (tmp_path / "envout").exists()

    def test_env_out_dir_leaves_compare_on_stdout(self, tmp_path, table_csv, capsys,
                                                  monkeypatch):
        # a table file named like a command is still just compare's input
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("TWOLEVEL_OUT_DIR", "envout")
        table_csv.rename(tmp_path / "study2")
        code, out, _ = run(capsys, "compare", "--data", "study2", "--test-a", "4",
                           "--test-b", "-2", "--test-count", "10")
        assert code == 0
        assert out.startswith("subject,rmspe_single,rmspe_double,diff\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["study2"]

    @pytest.mark.parametrize("command", ["simulate", "study1", "study2", "compare"])
    def test_unwritable_out_dir_is_config_error(self, tmp_path, capsys, monkeypatch, command):
        # found before any replicate is fitted or any table is read
        def refuse(*args, **kwargs):
            raise AssertionError("a fit or a read started")
        monkeypatch.setattr("twolevel.cli.run_monte_carlo", refuse)
        monkeypatch.setattr("twolevel.cli.load_table", refuse)
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        # the --out given, and the directory the writer cannot make
        out, named, reason = {
            "simulate": (blocker, blocker, "File exists"),
            "compare": (blocker / "rmspe.csv", blocker, "File exists"),
        }.get(command, (blocker / "sub", blocker / "sub", "Not a directory"))
        flags = {"simulate": ("--n", "7", "--m", "2", "--alpha", "1.0"),
                 "study1": ("--n", "7", "--m", "2", "--alpha", "1.0", "--replicates", "2"),
                 "study2": ("--budget", "100", "--density", "3", "--alpha", "1.0",
                            "--replicates", "2"),
                 "compare": ("--data", str(tmp_path / "table.csv"))}[command]
        code, stdout, err = run(capsys, command, *flags, "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err == f"config error: cannot write --out {named}: {reason}\n"
        assert blocker.read_text() == "not a directory\n"
        # an empty --out names nothing to write, and is rejected as it is parsed
        monkeypatch.chdir(tmp_path)
        code, stdout, err = run(capsys, command, *flags, "--out", "")
        assert (code, stdout) == (2, "")
        assert err.endswith(f"twolevel {command}: error: argument --out: "
                            "must name a path, got an empty one\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]

    def test_compare_out_at_a_directory_is_config_error(self, tmp_path, table_csv, capsys,
                                                         monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "taken"
        out.mkdir()
        # an existing directory, and a path ending in a separator (no file name)
        for given in (str(out), "sub/"):
            code, stdout, err = run(capsys, "compare", "--data", str(table_csv),
                                    "--test-a", "4", "--test-b", "-2", "--test-count", "10",
                                    "--out", given)
            assert (code, stdout) == (2, "")
            assert err == f"config error: cannot write --out {given}: Is a directory\n"
            assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv", "taken"]
            assert not any(out.iterdir())

    def test_entry_point_help(self, capsys):
        parser = build_parser()
        assert parser.prog == "twolevel"

    def test_python_dash_m(self):
        proc = run_fresh("rates", "--n", "100", "--m", "100", "--alpha", "0.5")
        assert proc.returncode == 0, proc.stderr
        assert "rate_g=" in proc.stdout

    def test_shared_parser_runs_commands_back_to_back(self, capsys):
        # the parser is built once per process; a parse error in one call and
        # the subcommand of another must not reach the next call
        rates = ("rates", "--n", "100", "--m", "100", "--alpha", "0.5")
        oracle = ("oracle-check", "--n", "30", "--m", "4", "--alpha", "1.0", "--seed", "2")
        bad = ("rates", "--n", "oops", "--m", "100", "--alpha", "0.5")
        fresh = {argv: run_fresh(*argv) for argv in (rates, oracle, bad)}
        assert (fresh[rates].returncode, fresh[oracle].returncode, fresh[bad].returncode) == \
            (0, 0, 2)
        assert build_parser() is build_parser()
        for argv in (rates, bad, oracle, rates, bad):
            want = fresh[argv]
            assert run(capsys, *argv) == (want.returncode, want.stdout, want.stderr)


def run_fresh(*argv):
    """One CLI call as ``python -m twolevel`` in a new process."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "twolevel", *argv],
                          env=env, capture_output=True, text=True, timeout=60)
