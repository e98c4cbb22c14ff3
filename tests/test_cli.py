import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from twolevel.cli import build_parser, cli_dispatch


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

    def test_heatmap_outputs(self, tmp_path, capsys):
        out = tmp_path / "heat"
        code, _, _ = run(capsys, "heatmap", "--alpha", "0.5", "--budget", "100",
                         "--density", "4", "--out", str(out))
        assert code == 0
        assert (out / "heatmap_rate_g.svg").exists()
        body = (out / "heatmap_rate_g.csv").read_text()
        assert "# bin_edges = " in body

    def test_heatmap_has_no_budget_mode(self, tmp_path, capsys):
        code, _, _ = run(capsys, "heatmap", "--alpha", "0.5", "--budget-mode", "linear_cost",
                         "--out", str(tmp_path))
        assert code == 2

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

    @pytest.mark.parametrize("sampling", ["series", "covariance"])
    def test_simulate_then_compare(self, tmp_path, capsys, sampling):
        code, _, _ = run(capsys, "simulate", "--n", "151", "--m", "4", "--alpha", "0.5",
                         "--sampling", sampling, "--seed", "5", "--out", str(tmp_path))
        assert code == 0
        out = tmp_path / "cmp" / "rmspe.csv"
        code, _, err = run(capsys, "compare", "--data", str(tmp_path / "dataset.csv"),
                           "--out", str(out))
        assert code == 0, err
        body = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert body[0] == "subject,rmspe_single,rmspe_double,diff"
        assert [ln.split(",")[0] for ln in body[1:]] == ["1", "2", "3", "4"]


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

    def test_study1_single_subject_names_cause_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "s1"
        code, _, err = run(capsys, "study1", "--n", "30", "--m", "1",
                           "--alpha", "1.0", "--replicates", "3", "--out", str(out))
        assert code == 2
        assert "no successful replicates for adaptive_f" in err
        assert "need at least 2 subjects" in err
        assert not out.exists() or not any(out.iterdir())

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


    def test_empty_train_split_is_data_error(self, capsys):
        fixture = pathlib.Path(__file__).parent / "fixtures" / "synthetic_curves.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = run(capsys, "compare", "--data", str(fixture), "--test-a", "1",
                               "--test-b", "0", "--test-count", "151")
        assert code == 3
        assert "data error" in err and "n = 151" in err

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

    def test_explicit_out_beats_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TWOLEVEL_OUT_DIR", str(tmp_path / "envout"))
        explicit = tmp_path / "explicit"
        code, _, _ = run(capsys, "simulate", "--n", "10", "--m", "2",
                         "--alpha", "1.0", "--out", str(explicit))
        assert code == 0
        assert (explicit / "dataset.csv").exists()
        assert not (tmp_path / "envout").exists()

    def test_entry_point_help(self, capsys):
        parser = build_parser()
        assert parser.prog == "twolevel"

    def test_python_dash_m(self):
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "twolevel", "rates", "--n", "100",
                               "--m", "100", "--alpha", "0.5"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "rate_g=" in proc.stdout
