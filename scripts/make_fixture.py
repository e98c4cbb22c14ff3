"""Regenerate the bundled synthetic curve fixture and its golden RMSPE summary.

The fixture mimics a lab-style repeated-measurement export: 20 subjects, 151
time points each, header ``subject,i,t,y``.  Curves are drawn from the
hierarchical model with a rough population function (decay 0.2), smoother
subject deviations (decay 0.5, scale 0.3), and observation noise sd 0.3, all
under a fixed seed so the files are reproducible byte-for-byte.

Run from the repository root:

    python3 scripts/make_fixture.py
"""

import dataclasses
import pathlib

import numpy as np

from twolevel.basis import Spectrum
from twolevel.dataio import (SplitSpec, compare_estimators, comparison_csv, parse_table,
                             table_csv)
from twolevel.simulate import ModelConfig, simulate_regression

SEED = 1
N, M = 151, 20
NOISE_SD = 0.3
FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "tests" / "fixtures"


def build_table_text() -> str:
    cfg = ModelConfig(N, M, prior_spectrum=Spectrum(0.2),
                      deviation_spectrum=Spectrum(0.5, scale=0.3), k_max=200)
    grid = np.arange(N) / (N - 1)
    _, _, table = simulate_regression(cfg, [grid] * M, seed=SEED, noise_sd=NOISE_SD)
    names = tuple(f"subj{j:02d}" for j in range(1, M + 1))
    return table_csv(dataclasses.replace(table, subject_ids=names))


def main() -> None:
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    text = build_table_text()
    (FIXTURE_DIR / "synthetic_curves.csv").write_text(text)
    table = parse_table(text)
    results = compare_estimators(table, SplitSpec(a=3, b=-1, count=50))
    (FIXTURE_DIR / "golden_rmspe.csv").write_text(comparison_csv(results))
    wins = sum(rd < rs for _, rs, rd in results)
    print(f"wrote fixture ({N} x {M}); two-threshold wins {wins}/{len(results)}")


if __name__ == "__main__":
    main()
