"""Benchmark of the ``twolevel`` CLI: one closed-loop client in one process,
running one workload's operations back to back through
``twolevel.cli.cli_dispatch`` and checking every operation's output.

Run from the repository root:

    python3 perfbench/run.py --workload study1_n100_m100 --seed 1 --seconds 25 --trace 0

Workloads: study1_n100_m100, study2_b5000, compare_m1000 (see NOTES.md).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced ops and reports the per-layer metrics.  The last line of
standard output is one JSON object with keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric with its
unit and the environment.  The full record (every op, the environment, the
input digest) and, when tracing, every span go to
``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# One BLAS thread: the load comes from a single process, and on a shared
# two-core machine a second BLAS thread makes the study1 matvecs jumpy.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Child interpreters timed for setup_s; the median is reported.  One runs
# before the inputs are built and one after every SETUP_EVERY timed ops, so
# that they meet the same machine as the ops do.
SETUP_REPEATS = 7
SETUP_EVERY = 2
# A fixed string-hash seed removes one source of difference between runs: in
# a bare loop of the same study2 ops, randomised hashing put the peak RSS at
# 115, 126 or 136 MB from one process to the next, a fixed seed at 115.
HASH_SEED = "0"
# An untraced run keeps going past --seconds until it has this many timed
# ops, so that op_tail_s is the 2nd fastest op or slower.  With 11 ops it
# would be the fastest one, whose spread over runs was 20% on compare_m1000
# against 15% for the 2nd fastest ...
MIN_OPS = 12
# ... but never past this many seconds of ops, so a run ends within 180 s.
MAX_OP_SECONDS = 120.0
SETUP_CODE = ("import time; t = time.perf_counter(); import twolevel.cli; "
              "print(time.perf_counter() - t, twolevel.cli.__file__)")


def tail_percentile(samples) -> tuple[float, float]:
    """The highest percentile of ``samples`` that has at least 10 samples
    beyond it, as (percentile, value).  The k-th smallest of N samples is
    the 100 k / N percentile and has N - k samples beyond it.  With 10 or
    fewer samples no percentile qualifies and the maximum is returned as
    the 100th."""
    ordered = sorted(samples)
    k = len(ordered) - 10
    if k < 1:
        return 100.0, ordered[-1]
    return 100.0 * k / len(ordered), ordered[k - 1]


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
            "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
            "git_commit": commit}


def measure_setup() -> float:
    """Seconds for a fresh child interpreter to import ``twolevel.cli``."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], capture_output=True,
                          text=True, timeout=60, env=os.environ)
    if proc.returncode != 0:
        raise RuntimeError(f"importing twolevel.cli failed: {proc.stderr.strip()}")
    seconds, where = proc.stdout.split()
    if not pathlib.Path(where).resolve().is_relative_to(SRC):
        raise RuntimeError(f"child imported twolevel from {where}, not {SRC}")
    return float(seconds)


class Runner:
    """Runs ops and keeps their records."""

    def __init__(self, tracer):
        import twolevel.cli
        self.cli = twolevel.cli
        self.tracer = tracer
        self.ops: list[dict] = []

    def run(self, argv, out_dir: pathlib.Path, check, phase: str, traced: bool = False) -> dict:
        from workloads import CheckFailed
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        index = len(self.ops)
        sink = io.StringIO()
        error = None
        if traced:
            self.tracer.op = index
            self.tracer.install()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                start = time.perf_counter()
                try:
                    rc = self.cli.cli_dispatch(argv)
                finally:
                    wall = time.perf_counter() - start
        except Exception as err:  # an op that raises is a failed op, not a crash
            rc, error = None, f"raised {type(err).__name__}: {err}"
        finally:
            if traced:
                self.tracer.uninstall()
        if error is None and rc != 0:
            error = f"exit {rc}: {sink.getvalue().strip()[-300:]}"
        if error is None:
            try:
                check(out_dir, index)
            except CheckFailed as err:
                error = str(err)
            except (OSError, ValueError, KeyError, IndexError) as err:
                error = f"unreadable output: {type(err).__name__}: {err}"
        written = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
        record = {"op": index, "phase": phase, "traced": traced, "argv": argv,
                  "wall_s": wall, "bytes_written": written,
                  "error": error}
        self.ops.append(record)
        return record


def run_workload(args) -> dict:
    import spans
    import workloads

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup = [measure_setup()]
    workload = workloads.WORKLOADS[args.workload](ROOT, work, args.seed,
                                                  workloads.load_reference())
    tracer = spans.Tracer()
    runner = Runner(tracer)
    facts = workload.prepare(lambda argv, out_dir, check: runner.run(argv, out_dir, check, "pre-check"))
    out_dir = work / "op"
    runner.run(workload.argv(0, out_dir), out_dir, workload.check, "warm-up")

    min_ops = 4 if args.trace else MIN_OPS
    timed = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_OP_SECONDS or (elapsed >= args.seconds and len(timed) >= min_ops):
            break
        traced = bool(args.trace) and len(timed) % 2 == 1
        timed.append(runner.run(workload.argv(len(runner.ops), out_dir), out_dir,
                                workload.check, "timed", traced))
        if len(setup) < SETUP_REPEATS and len(timed) % SETUP_EVERY == 0:
            setup.append(measure_setup())
    setup += [measure_setup() for _ in range(SETUP_REPEATS - len(setup))]
    return {"workload": workload, "runner": runner, "tracer": tracer, "setup": setup,
            "facts": facts, "timed": timed}


def end_to_end(run) -> tuple[dict, list[str]]:
    workload, timed = run["workload"], run["timed"]
    walls = [op["wall_s"] for op in timed]
    ops = run["runner"].ops
    pct, tail = tail_percentile(walls)
    metrics = {
        "setup_s": (statistics.median(run["setup"]), "s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "op_tail_s": (tail, "s"),
        "units_per_s": (workload.units_per_op * len(walls) / sum(walls), "units/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": (sum(op["error"] is None for op in ops) / len(ops), "frac"),
    }
    notes = [f"setup_s: median of {len(run['setup'])} child imports of twolevel.cli",
             f"op_p50_s: median of {len(walls)} timed ops (after 1 untimed warm-up op)",
             f"op_tail_s: p{pct:.1f} of {len(walls)} timed ops",
             f"units_per_s: {workload.unit} per second of op time "
             f"({workload.units_per_op} {workload.unit} per op)",
             f"ok_frac: ops passing their checks out of all {len(ops)} attempted "
             f"(fail_frac = {1 - metrics['ok_frac'][0]:.4g})"]
    return metrics, notes


def per_layer(run) -> tuple[dict, list[str], list[str]]:
    import spans as sp
    tracer, timed = run["tracer"], run["timed"]
    traced = [op for op in timed if op["traced"]]
    plain = [op["wall_s"] for op in timed if not op["traced"]]
    values = sp.layer_metrics(tracer.spans, len(traced))
    values["cli.bytes_written"] = statistics.fmean(op["bytes_written"] for op in traced)
    p50_traced = statistics.median(op["wall_s"] for op in traced)
    values["trace.overhead_frac"] = p50_traced / statistics.median(plain) - 1.0
    metrics = {name: (value, "s/op" if name.endswith("_s") else "frac" if name.endswith("_frac")
                      else "B/op" if name.endswith("bytes_written") else "count/op")
               for name, value in values.items()}
    # Every op's span tree must account for its wall time: the layers' self
    # times of one op sum to its root span, which is the op's call.
    problems = []
    totals = sp.self_by_op(tracer.spans)
    worst = 0.0
    for op in traced:
        gap = abs(totals.get(op["op"], 0.0) - op["wall_s"])
        worst = max(worst, gap / op["wall_s"])
        if gap > 1e-3 + 5e-3 * op["wall_s"]:
            problems.append(f"op {op['op']}: layer self times sum to "
                            f"{totals.get(op['op'], 0.0):.4f} s, wall {op['wall_s']:.4f} s")
    notes = [f"per-op means over {len(traced)} traced ops; trace.overhead_frac = traced "
             f"p50 {p50_traced:.4f} s / untraced p50 {statistics.median(plain):.4f} s "
             f"({len(plain)} ops) - 1",
             f"layer self times account for each traced op's wall time within "
             f"{100 * worst:.3f}%"]
    return metrics, notes, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="twolevel CLI benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("study1_n100_m100", "study2_b5000", "compare_m1000"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "twolevel" / "cli.py").is_file():
        print(f"error: no twolevel sources under {SRC}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ["PYTHONPATH"] = str(SRC)
    os.environ.pop("TWOLEVEL_OUT_DIR", None)
    sys.path.insert(0, str(SRC))

    env = environment()
    try:
        run = run_workload(args)
    except (RuntimeError, OSError, subprocess.SubprocessError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    problems = [f"op {op['op']} ({op['phase']}): {op['error']}"
                for op in run["runner"].ops if op["error"]]
    if args.trace:
        metrics, notes, trace_problems = per_layer(run)
        problems += trace_problems
    else:
        metrics, notes = end_to_end(run)

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        run["tracer"].dump(results / f"{stem}-spans.jsonl")
    ops = run["runner"].ops
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "inputs": run["facts"],
              "setup_s": run["setup"], "ops": ops, "notes": notes, "problems": problems,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} ops, {len(problems)} problems")
    print("environment " + json.dumps(env, sort_keys=True))
    if run["facts"]:
        print("inputs " + json.dumps(run["facts"], sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    for line in notes + problems:
        print("  " + line)
    print(json.dumps({"correct": not problems, "attempted": len(ops),
                      "failed": sum(op["error"] is not None for op in ops),
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
