"""Print a SHA-256 digest of every artifact of a fixed set of CLI runs.

The runs cover both Monte Carlo studies, the data comparison on the bundled
fixture (at the default taus and at three others) and on a simulated
60-subject table, the oracle check, the rate printout, a rate heatmap and
gradient maps under the product budget and under a two-level cost with a
price per subject.  Each
artifact is hashed with its ``#`` header lines dropped, and each run's stdout
is hashed as ``<run>/stdout`` with the output directory replaced by ``OUT``.
The dropped lines are pinned too: each run that writes files gets one
``<run>/headers`` line, the hash of the ``#`` lines of its CSVs taken in
file-name order.  Manifests, SVG comments and the headers lines keep the
``twolevel = <version>`` line, so a version bump changes their digests.
Two checkouts whose printed lines are equal produce the same numbers; diff
the output of two checkouts to compare them.  The first lines, starting with ``#``, record the numpy and twolevel
versions.  Imports ``twolevel`` from this checkout's ``src/``.

``tests/test_output_digests.py`` holds the lines against
``tests/fixtures/output_digests.txt``.  A change that alters outputs on
purpose regenerates that file, from the root of the checkout:

    python3 scripts/output_digests.py > tests/fixtures/output_digests.txt
"""

import contextlib
import hashlib
import io
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from twolevel import __version__  # noqa: E402
from twolevel.cli import cli_dispatch  # noqa: E402

FIXTURE = ROOT / "tests" / "fixtures" / "synthetic_curves.csv"
RUNS = {
    "study1_n100_m100": "study1 --n 100 --m 100 --alpha 0.5 --k-max 800 --replicates 50 --seed 3",
    "study1_n7_m2": "study1 --n 7 --m 2 --alpha 1.0 --replicates 30 --seed 11",
    "study2_b5000": "study2 --alpha 0.5 --budget 5000 --density 6 --replicates 20 --seed 1",
    "study2_b20000": ("study2 --alpha 1.5 --alpha-tilde 0.3 --budget 20000 --density 7 "
                      "--replicates 9 --seed 5"),
    # a two-column rectangle: m in {3, 6} at every n, 8 of the 13 cells with m >= 2
    "study2_b100": "study2 --alpha 1.0 --budget 100 --density 6 --replicates 5 --seed 3",
    "compare_fixture": f"compare --data {FIXTURE}",
    # each of the three tau flags changes the fixture's output on its own
    "compare_fixture_taus": f"compare --data {FIXTURE} --tau-single 0.5 --tau1 2 --tau2 12",
    "simulate_n151_m60": "simulate --n 151 --m 60 --alpha 0.2 --seed 2",
    # {OUT} is the temporary output root: this compares the table written above
    "compare_n151_m60": "compare --data {OUT}/simulate_n151_m60/dataset.csv",
    "oracle_n100_m10": "oracle-check --n 100 --m 10 --alpha 1.0",
    "oracle_n30_m40": "oracle-check --n 30 --m 40 --alpha 0.5 --alpha-tilde 1.0 --seed 4",
    # its adaptive k1, k2 change when oracle-check's sampler changes
    "oracle_n50_m20": "oracle-check --n 50 --m 20 --alpha 1.0 --seed 1",
    "rates_n100_m10": "rates --n 100 --m 10 --alpha 0.5",
    "heatmap_b5000": "heatmap --alpha 0.5 --alpha-tilde 1.0 --target f --budget 5000",
    "gradient_product": "gradient-map --alpha 1.0 --target f --budget 5000",
    "gradient_two_level": ("gradient-map --alpha 0.5 --alpha-tilde 1.5 --target g "
                           "--budget 2000 --cost-subject 10 --density 10"),
}
# commands that print and write no directory
STDOUT_ONLY = ("oracle-check", "rates")


def body_digest(text: str) -> str:
    body = "".join(ln for ln in text.splitlines(keepends=True) if not ln.startswith("#"))
    return hashlib.sha256(body.encode()).hexdigest()


def header_digest(paths) -> str:
    heads = "".join(ln for path in paths for ln in path.read_text().splitlines(keepends=True)
                    if ln.startswith("#"))
    return hashlib.sha256(heads.encode()).hexdigest()


def digest_lines() -> list[str]:
    """The version lines, then one ``sha256  run/artifact`` line per output
    and one ``sha256  run/headers`` line per run that writes files."""
    lines = [f"# numpy = {np.__version__}", f"# twolevel = {__version__}"]
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp)
        for name, command in RUNS.items():
            argv = command.replace("{OUT}", tmp).split()
            if argv[0] == "compare":
                argv += ["--out", str(out / name / "rmspe.csv")]
            elif argv[0] not in STDOUT_ONLY:
                argv += ["--out", str(out / name)]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                status = cli_dispatch(argv)
            if status != 0:
                raise RuntimeError(f"{name}: exit {status}")
            lines.append(f"{body_digest(stdout.getvalue().replace(tmp, 'OUT'))}  {name}/stdout")
            paths = sorted((out / name).glob("*")) if (out / name).is_dir() else []
            for path in paths:
                lines.append(f"{body_digest(path.read_text())}  {name}/{path.name}")
            if paths:
                csvs = [path for path in paths if path.suffix == ".csv"]
                lines.append(f"{header_digest(csvs)}  {name}/headers")
    return lines


def main() -> int:
    try:
        lines = digest_lines()
    except RuntimeError as err:
        print(err, file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
