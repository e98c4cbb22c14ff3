"""Regenerate ``reference.json``, the figures the benchmark checks outputs
against, and print how far single ops stray from them.

Each figure is pooled over many ops (40 study1 ops, 20 study2 ops, 20
compare tables) whose seeds, 10000 + i, differ from any op seed a benchmark
run derives.  Run from the repository root (about 4 minutes on two cores):

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import shutil
import sys

import numpy as np

import workloads as wl

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work" / "reference"


def run(argv) -> None:
    from twolevel.cli import cli_dispatch
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli_dispatch(argv)
    if rc != 0:
        raise SystemExit(f"{argv[0]} exited {rc}")


def study1(ops: int) -> dict:
    medians = {}
    for i in range(ops):
        out = WORK / "study1"
        shutil.rmtree(out, ignore_errors=True)
        run(wl.Study1.command(10000 + i, out))
        rows = wl.read_csv_body(out / "summary.csv")
        for row in rows[1:]:
            medians.setdefault(row[0], []).append(float(row[4]))
    ref = {label: float(np.median(v)) for label, v in medians.items()}
    for label, v in medians.items():
        ratio = np.asarray(v) / ref[label]
        print(f"study1 {label}: ref {ref[label]:.4g}, op/ref in "
              f"[{ratio.min():.3f}, {ratio.max():.3f}]")
    return {"median_mise": ref}


def study2(ops: int) -> dict:
    cells = {"g": {}, "f": {}}
    for i in range(ops):
        out = WORK / "study2"
        shutil.rmtree(out, ignore_errors=True)
        run(wl.Study2.command(10000 + i, out))
        for target in cells:
            rows = wl.read_csv_body(out / f"heatmap_mise_{target}.csv")
            for cell, v in wl.heatmap_cells(rows).items():
                cells[target].setdefault(cell, []).append(v)
    out = {}
    for target, by_cell in cells.items():
        ref = {cell: {"mean": float(np.mean(v)), "sd": float(np.std(v, ddof=1))}
               for cell, v in by_cell.items()}
        for cell, v in by_cell.items():
            mean, sd = ref[cell]["mean"], ref[cell]["sd"]
            print(f"study2 {target} ({cell}): ref {mean:.4g}, sd {sd:.3f}, "
                  f"largest |op - ref| {np.max(np.abs(np.asarray(v) - mean)):.3f}")
        out[f"mean_log_mise_{target}"] = ref
    return out


def compare(tables: int) -> dict:
    summaries = []
    for i in range(tables):
        out = WORK / "compare"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        table = out / "table.csv"
        table.write_text(wl.compare_table_text(10000 + i))
        run(["compare", "--data", str(table), "--out", str(out / "rmspe.csv")])
        summaries.append(wl.compare_summary(wl.read_csv_body(out / "rmspe.csv")))
    ref = {}
    for key in summaries[0]:
        v = np.array([s[key] for s in summaries])
        ref[key] = {"mean": float(v.mean()), "sd": float(v.std(ddof=1))}
        print(f"compare {key}: ref {v.mean():.4g}, sd {v.std(ddof=1):.4f}, "
              f"largest |table - ref| {np.max(np.abs(v - v.mean())):.4f}")
    return ref


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    reference = {wl.Study1.name: study1(40), wl.Study2.name: study2(20),
                 wl.Compare.name: compare(20)}
    wl.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {wl.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
