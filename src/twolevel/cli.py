"""Command-line front end.

Every artifact carries ``key = value`` lines echoing the full effective
configuration (including the master seed), so a run can be reproduced
byte-exactly from any of its outputs: a CSV begins with them as ``#`` lines,
an SVG has them as comments right after its ``<svg>`` line, and
``manifest.txt`` lists them bare.  :func:`_write_artifacts` alone writes
files.  Exit codes: 0 success, 2 configuration error (an ``--out`` that
cannot be written included), 3 data error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import warnings
from dataclasses import replace

import numpy as np

from . import __version__
from .basis import FunctionSeries, Spectrum
from .dataio import (DataError, DataWarning, SplitSpec, compare_estimators,
                     comparison_csv, load_table, table_csv)
from .design import emit_gradient_map, emit_heatmap, enumerate_designs, lattice
from .estimators import (TAU1, TAU2, TAU_G, TAU_SINGLE, lepskii_thresholds_f,
                         oracle_thresholds)
from .risk import (RateQuery, adaptive_f, adaptive_g, fixed_g, fixed_g_threshold,
                   rate_f, rate_g, run_monte_carlo, single_subject_f)
from .simulate import ModelConfig, replicate_normals, sample_stats, simulate_regression

__all__ = ["cli_dispatch", "main"]


class ConfigError(ValueError):
    pass


def _write_artifacts(out_dir: str, config: dict, files: dict) -> list[str]:
    """Write each ``name: text`` of ``files`` into ``out_dir`` under the
    configuration header, then ``manifest.txt``; returns the files' paths.

    A directory or file that cannot be made is a :class:`ConfigError`.
    """
    lines = [f"twolevel = {__version__}"] + [f"{k} = {v}" for k, v in config.items()]
    paths = [os.path.join(out_dir, name) for name in files]
    try:
        os.makedirs(out_dir, exist_ok=True)
        for path, text in zip(paths, files.values()):
            with open(path, "w") as fh:
                if path.endswith(".svg"):  # the <svg> element opens the file
                    svg, _, text = text.partition("\n")
                    fh.write(svg + "\n" + "".join(f"<!-- {ln} -->\n" for ln in lines))
                else:
                    fh.write("".join(f"# {ln}\n" for ln in lines))
                fh.write(text)
        with open(os.path.join(out_dir, "manifest.txt"), "w") as fh:
            fh.write("".join(ln + "\n" for ln in lines))
    except OSError as err:
        raise ConfigError(f"cannot write --out {err.filename or out_dir}: "
                          f"{err.strerror or err}") from None
    return paths


def _check_out_dir(out_dir: str) -> None:
    """Fail an ``--out`` directory that the writer could not make, with its
    message, before anything is drawn: the path or its nearest existing
    ancestor is not a directory.  Creates nothing."""
    path, made, reason = out_dir.rstrip(os.sep) or out_dir, out_dir, "File exists"
    while path and not os.path.isdir(path):
        if os.path.lexists(path):  # the writer's mkdir of ``made`` fails
            raise ConfigError(f"cannot write --out {made}: {reason}")
        path, made, reason = os.path.dirname(path), path, "Not a directory"


def _spectra(args) -> tuple[Spectrum, Spectrum]:
    return Spectrum(args.alpha), Spectrum(args.alpha_tilde)


def _check_density(args) -> None:
    if args.density < 1:
        raise ConfigError(f"density must be at least 1, got {args.density}")


def _check_taus(args, *flags: str) -> None:
    """Reject a tau flag that is not positive, NaN included, before any draw."""
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if not value > 0:
            raise ConfigError(f"{flag} must be positive, got {value}")


def _cmd_rates(args) -> int:
    q = RateQuery(n=args.n, m=args.m, alpha=args.alpha, alpha_tilde=args.alpha_tilde)
    print(f"rate_g={rate_g(q):.6g} rate_f={rate_f(q):.6g}")
    return 0


def _cmd_gradient_map(args) -> int:
    _check_density(args)
    grid = enumerate_designs(args.budget, args.alpha, args.alpha_tilde,
                             per_subject=args.cost_subject, per_obs=args.cost_obs,
                             density=args.density)
    config = dict(command="gradient-map", target=args.target, budget=args.budget,
                  cost_subject=args.cost_subject, cost_obs=args.cost_obs,
                  alpha=args.alpha, alpha_tilde=args.alpha_tilde, density=args.density)
    svg_text, csv_text = emit_gradient_map(grid, args.target)
    # the rate surface over the same feasible designs, as the quiver map
    surface = [(p.n, p.m, math.log(p.rate_g if args.target == "g" else p.rate_f))
               for p in grid.points]
    heat_svg, heat_csv = emit_heatmap(surface, label=f"log_rate_{args.target}")
    *paths, last = _write_artifacts(args.out, config,
                                    {f"gradient_map_{args.target}.svg": svg_text,
                                     f"gradient_map_{args.target}.csv": csv_text,
                                     f"heatmap_rate_{args.target}.svg": heat_svg,
                                     f"heatmap_rate_{args.target}.csv": heat_csv})
    print(f"wrote {', '.join(paths)} and {last}")
    return 0


def _cmd_simulate(args) -> int:
    prior, deviation = _spectra(args)
    cfg = ModelConfig(args.n, args.m, prior, deviation, k_max=args.k_max)
    # compare cannot read a table without rows or with NaN values; none is written
    if cfg.m < 1:
        raise ConfigError(f"need at least 1 subject, got m = {cfg.m}")
    if not args.noise_sd >= 0:
        raise ConfigError(f"noise_sd must be non-negative, got {args.noise_sd}")
    grid = (np.arange(1, args.n + 1) - 0.5) / args.n
    grids = [grid] * args.m
    _, _, table = simulate_regression(cfg, grids, args.seed, noise_sd=args.noise_sd)
    config = dict(command="simulate", n=args.n, m=args.m, alpha=args.alpha,
                  alpha_tilde=args.alpha_tilde, noise_sd=args.noise_sd,
                  k_max=cfg.k_max, seed=args.seed)
    [path] = _write_artifacts(args.out, config, {"dataset.csv": table_csv(table)})
    print(f"wrote {path}")
    return 0


# smoothness guesses of the fixed-threshold g estimators in the study1 plan
FIXED_G_BETAS = (0.2, 0.5, 2.0)


def _default_plan(args):
    plan = [adaptive_g(args.tau)]
    plan += [fixed_g(beta) for beta in FIXED_G_BETAS]
    plan += [adaptive_f(args.tau1, args.tau2), single_subject_f()]
    return plan


def _cmd_study1(args) -> int:
    _check_taus(args, "--tau", "--tau1", "--tau2")
    prior, deviation = _spectra(args)
    cfg = ModelConfig(args.n, args.m, prior, deviation, k_max=args.k_max)
    # the plan's widest fixed threshold must fit in k_max; checked before sampling
    widest, beta = max((fixed_g_threshold(cfg.n, cfg.m, beta), beta) for beta in FIXED_G_BETAS)
    if args.k_max == 0:
        cfg = replace(cfg, k_max=max(cfg.k_max, widest))
    elif cfg.k_max < widest:
        raise ConfigError(f"k_max = {cfg.k_max} is below the widest fixed threshold: "
                          f"fixed_g_beta{beta:g} keeps {widest} coefficients")
    if cfg.m < 2:  # the adaptive f rule pools the other m - 1 subjects
        raise ConfigError(f"no successful replicates for {adaptive_f(args.tau1, args.tau2).label} "
                          f"are possible: need at least 2 subjects, got m = {cfg.m}")
    reports = run_monte_carlo(cfg, _default_plan(args), args.replicates, args.seed)
    # every summary row first: an estimator without one successful replicate
    # fails the run before any file is written
    summary = ["estimator,target,replicates,failures,median,mean,q1,q3,mean_log"]
    summary += [report.summary_row() for report in reports.values()]
    files = {f"report_{label}.csv": report.to_csv() for label, report in reports.items()}
    files["summary.csv"] = "\n".join(summary) + "\n"
    config = dict(command="study1", n=cfg.n, m=cfg.m, alpha=args.alpha,
                  alpha_tilde=args.alpha_tilde, k_max=cfg.k_max,
                  replicates=args.replicates, seed=args.seed,
                  tau=args.tau, tau1=args.tau1, tau2=args.tau2)
    _write_artifacts(args.out, config, files)
    print(f"wrote reports to {args.out}")
    return 0


def _cmd_study2(args) -> int:
    _check_taus(args, "--tau", "--tau1", "--tau2")
    _check_density(args)
    # perfbench's study2 reference cells and the output digests pin a rectangle:
    # each n that has a design with at least 2 subjects, by the m values all share
    by_n = {}
    for n, m in lattice(args.budget, args.density):
        if m >= 2:
            by_n.setdefault(n, set()).add(m)
    if not by_n:
        raise ConfigError(f"budget {args.budget:g} at density {args.density} admits "
                          f"no design with at least 2 subjects")
    common_m = sorted(set.intersection(*by_n.values()))
    prior, deviation = _spectra(args)
    cfgs = [ModelConfig(n, m, prior, deviation) for n in sorted(by_n) for m in common_m]
    # each replicate's stream is drawn once; every cell reads a prefix of it
    width = max(cfg.stats_width for cfg in cfgs)
    normals = replicate_normals(args.seed, args.replicates, width)
    plan = [adaptive_g(args.tau), adaptive_f(args.tau1, args.tau2)]
    surface_g, surface_f = [], []
    for cfg in cfgs:
        reports = run_monte_carlo(cfg, plan, args.replicates, args.seed, normals)
        for report in reports.values():
            target_surface = surface_g if report.target == "g" else surface_f
            target_surface.append((cfg.n, cfg.m, report.mean_log))
    config = dict(command="study2", budget=args.budget, alpha=args.alpha,
                  alpha_tilde=args.alpha_tilde, density=args.density,
                  replicates=args.replicates, seed=args.seed,
                  tau=args.tau, tau1=args.tau1, tau2=args.tau2)
    files = {}
    for target, surface in (("g", surface_g), ("f", surface_f)):
        svg_text, csv_text = emit_heatmap(surface, label=f"mean_log_mise_{target}")
        files[f"heatmap_mise_{target}.svg"] = svg_text
        files[f"heatmap_mise_{target}.csv"] = csv_text
    _write_artifacts(args.out, config, files)
    print(f"wrote heatmaps to {args.out}")
    return 0


def _cmd_compare(args) -> int:
    # the flags are checked before the table is read
    _check_taus(args, "--tau1", "--tau2", "--tau-single")
    if args.out_file:
        out_dir, out_name = os.path.split(args.out_file)
        if not out_name:  # "sub/" names a directory, not the table's file
            raise ConfigError(f"cannot write --out {args.out_file}: Is a directory")
        _check_out_dir(out_dir or os.curdir)
    spec = SplitSpec(args.test_a, args.test_b, args.test_count)
    # rescaled times and aliased coefficients are reported, not fatal
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DataWarning)
        try:
            table = load_table(args.data)
            plan = [single_subject_f(args.tau_single), adaptive_f(args.tau1, args.tau2)]
            results = compare_estimators(table, spec, plan)
        finally:
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)
    content = comparison_csv(results)
    wins = sum(1 for _, rs, rd in results if rd < rs)
    if args.out_file:
        config = dict(command="compare", data=os.path.basename(args.data),
                      test_a=args.test_a, test_b=args.test_b,
                      test_count=args.test_count, tau1=args.tau1, tau2=args.tau2,
                      tau_single=args.tau_single)
        _write_artifacts(out_dir or os.curdir, config, {out_name: content})
        print(f"wrote {args.out_file}")
    else:
        sys.stdout.write(content)
    print(f"two-threshold wins on {wins} of {len(results)} subjects")
    return 0


def _cmd_oracle_check(args) -> int:
    _check_taus(args, "--tau1", "--tau2")
    prior, deviation = _spectra(args)
    cfg = ModelConfig(args.n, args.m, prior, deviation, k_max=args.k_max)
    if cfg.m < 2:  # the adaptive k1 and k2 pool the other m - 1 subjects
        raise ConfigError(f"need at least 2 subjects, got m = {cfg.m}")
    bound = math.isqrt(cfg.n * cfg.m)
    if cfg.k_max < bound:  # the default k_max never is
        raise ConfigError(f"--k-max {cfg.k_max} is below the k2 search bound "
                          f"isqrt(n*m) = {bound}")
    g, _, stats = sample_stats(cfg, replicate_normals(args.seed, 1, cfg.stats_width))
    k1_star, k2_star = oracle_thresholds(FunctionSeries(g[0]), deviation, cfg.n, cfg.m)
    k1, k2 = lepskii_thresholds_f(stats, tau1=args.tau1, tau2=args.tau2)
    print(f"oracle k1*={k1_star} k2*={k2_star} adaptive k1={k1[0]} k2={k2[0]}")
    return 0


def _add_model_flags(p, need_nm=True):
    if need_nm:
        p.add_argument("--n", type=int, required=True, help="per-subject precision")
        p.add_argument("--m", type=int, required=True, help="number of subjects")
    p.add_argument("--alpha", type=float, required=True, help="population smoothness")
    p.add_argument("--alpha-tilde", type=float, default=0.5,
                   help="deviation smoothness (default 0.5)")


# each tau flag's default is its selector's
TAU_DEFAULTS = {"--tau": TAU_G, "--tau1": TAU1, "--tau2": TAU2, "--tau-single": TAU_SINGLE}


def _add_tau_flags(p, *flags: str):
    for flag in flags:
        p.add_argument(flag, type=float, default=TAU_DEFAULTS[flag])


def _add_split_flags(p):
    p.add_argument("--test-a", type=int, default=3)
    p.add_argument("--test-b", type=int, default=-1)
    p.add_argument("--test-count", type=int, default=50)


def _out_path(text: str) -> str:
    """An ``--out`` value; an empty one fails at parse, before anything is read."""
    if not text:
        raise argparse.ArgumentTypeError("must name a path, got an empty one")
    return text


def _add_out_dir_flag(p):
    p.add_argument("--out", type=_out_path, default=None,
                   help="output directory (default: $TWOLEVEL_OUT_DIR, else out)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once: parsing leaves no state on it."""
    parser = argparse.ArgumentParser(prog="twolevel",
                                     description="Two-level sampling estimators and design planning")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rates", help="print theoretical risk rates")
    _add_model_flags(p)
    p.set_defaults(func=_cmd_rates)

    p = sub.add_parser("gradient-map", help="emit a quiver map and a rate heatmap")
    _add_model_flags(p, need_nm=False)
    p.add_argument("--target", choices=("g", "f"), default="g")
    p.add_argument("--budget", type=float, default=5000.0)
    p.add_argument("--cost-subject", type=float, default=0.0,
                   help="cost of a subject on top of its observations (default 0)")
    p.add_argument("--cost-obs", type=float, default=1.0,
                   help="cost of one observation (default 1)")
    p.add_argument("--density", type=int, default=12)
    _add_out_dir_flag(p)
    p.set_defaults(func=_cmd_gradient_map)

    p = sub.add_parser("simulate", help="generate a regression dataset CSV")
    _add_model_flags(p)
    p.add_argument("--noise-sd", type=float, default=1.0)
    p.add_argument("--k-max", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    _add_out_dir_flag(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("study1", help="sequence-mode estimator comparison")
    _add_model_flags(p)
    _add_tau_flags(p, "--tau", "--tau1", "--tau2")
    p.add_argument("--k-max", type=int, default=0)
    p.add_argument("--replicates", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    _add_out_dir_flag(p)
    p.set_defaults(func=_cmd_study1)

    p = sub.add_parser("study2", help="budget-sweep mean-log-MISE heatmaps")
    _add_model_flags(p, need_nm=False)
    _add_tau_flags(p, "--tau", "--tau1", "--tau2")
    p.add_argument("--budget", type=float, default=5000.0)
    p.add_argument("--density", type=int, default=6)
    p.add_argument("--replicates", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    _add_out_dir_flag(p)
    p.set_defaults(func=_cmd_study2)

    p = sub.add_parser("compare", help="single-subject vs two-threshold RMSPE comparison")
    p.add_argument("--data", required=True)
    _add_split_flags(p)
    _add_tau_flags(p, "--tau1", "--tau2", "--tau-single")
    p.add_argument("--out", dest="out_file", metavar="FILE", type=_out_path, default=None,
                   help="write the table to FILE (default: print it)")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("oracle-check", help="oracle vs adaptive thresholds on simulated data")
    _add_model_flags(p)
    _add_tau_flags(p, "--tau1", "--tau2")
    p.add_argument("--k-max", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_oracle_check)

    return parser


def cli_dispatch(argv) -> int:
    """Run one CLI invocation; returns the process exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        if "out" in vars(args):
            # a directory command's --out: the flag, else TWOLEVEL_OUT_DIR, else out
            if args.out is None:
                args.out = os.environ.get("TWOLEVEL_OUT_DIR") or "out"
            _check_out_dir(args.out)
        return args.func(args)
    except (ConfigError, ValueError) as err:
        if isinstance(err, DataError):
            print(f"data error: {err}", file=sys.stderr)
            return 3
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))
