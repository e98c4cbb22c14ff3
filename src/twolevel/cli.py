"""Command-line front end.

Every artifact file begins with ``# key = value`` comment lines echoing the
full effective configuration (including the master seed), so a run can be
reproduced byte-exactly from any of its outputs.  Exit codes: 0 success,
2 configuration error, 3 data error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from dataclasses import replace

import numpy as np

from . import __version__
from .basis import Spectrum
from .dataio import (DataError, DataWarning, SplitSpec, compare_estimators,
                     comparison_csv, load_table)
from .design import emit_gradient_map, emit_heatmap, enumerate_designs
from .estimators import lepskii_thresholds_f, oracle_thresholds, subject_stats
from .risk import (RateQuery, adaptive_f, adaptive_g, fixed_g, fixed_g_threshold,
                   rate_f, rate_g, run_monte_carlo, single_subject_f)
from .simulate import (ModelConfig, sample_panel, sample_population,
                       simulate_regression, substream)

__all__ = ["cli_dispatch", "main"]


class ConfigError(ValueError):
    pass


def _header_lines(config: dict) -> list[str]:
    lines = [f"twolevel = {__version__}"]
    lines += [f"{k} = {v}" for k, v in config.items()]
    return lines


def _write(path, content: str, config: dict) -> None:
    with open(path, "w") as fh:
        for ln in _header_lines(config):
            fh.write(f"# {ln}\n")
        fh.write(content)


def _write_manifest(out_dir, config: dict) -> None:
    with open(os.path.join(out_dir, "manifest.txt"), "w") as fh:
        for ln in _header_lines(config):
            fh.write(ln + "\n")


def _spectra(args) -> tuple[Spectrum, Spectrum]:
    return Spectrum(args.alpha), Spectrum(args.alpha_tilde)


def _cmd_rates(args) -> int:
    q = RateQuery(n=args.n, m=args.m, alpha=args.alpha, alpha_tilde=args.alpha_tilde,
                  cost_n=args.cost_n, cost_m=args.cost_m)
    print(f"rate_g={rate_g(q):.6g} rate_f={rate_f(q):.6g}")
    return 0


def _cmd_gradient_map(args) -> int:
    grid = enumerate_designs(args.budget, args.alpha, args.alpha_tilde,
                             mode=args.budget_mode, cost_n=args.cost_n,
                             cost_m=args.cost_m, density=args.density)
    os.makedirs(args.out, exist_ok=True)
    config = dict(command="gradient-map", target=args.target, budget=args.budget,
                  budget_mode=args.budget_mode, cost_n=args.cost_n, cost_m=args.cost_m,
                  alpha=args.alpha, alpha_tilde=args.alpha_tilde, density=args.density)
    svg = os.path.join(args.out, f"gradient_map_{args.target}.svg")
    csv = os.path.join(args.out, f"gradient_map_{args.target}.csv")
    emit_gradient_map(grid, args.target, svg, csv, header_lines=_header_lines(config))
    _write_manifest(args.out, config)
    print(f"wrote {svg} and {csv}")
    return 0


def _cmd_heatmap(args) -> int:
    # rate surfaces are drawn on the full rectangle with each axis running up
    # to the budget, not just the feasible (n * m <= budget) triangle
    if args.budget < 1:
        raise ConfigError("budget must be at least 1")
    axis = np.unique(np.round(np.logspace(0.0, math.log10(args.budget),
                                          args.density)).astype(int))
    axis = axis[axis >= 1]
    surface = []
    for n in axis:
        for m in axis:
            q = RateQuery(n=float(n), m=float(m), alpha=args.alpha,
                          alpha_tilde=args.alpha_tilde)
            surface.append((int(n), int(m),
                            math.log(rate_g(q) if args.target == "g" else rate_f(q))))
    os.makedirs(args.out, exist_ok=True)
    config = dict(command="heatmap", target=args.target, budget=args.budget,
                  alpha=args.alpha, alpha_tilde=args.alpha_tilde, density=args.density)
    svg = os.path.join(args.out, f"heatmap_rate_{args.target}.svg")
    csv = os.path.join(args.out, f"heatmap_rate_{args.target}.csv")
    emit_heatmap(surface, svg, csv, header_lines=_header_lines(config),
                 label=f"log_rate_{args.target}")
    _write_manifest(args.out, config)
    print(f"wrote {svg} and {csv}")
    return 0


def _cmd_simulate(args) -> int:
    prior, deviation = _spectra(args)
    cfg = ModelConfig(args.n, args.m, prior, deviation, k_max=args.k_max)
    grid = (np.arange(1, args.n + 1) - 0.5) / args.n
    grids = [grid] * args.m
    _, _, table = simulate_regression(cfg, grids, args.seed,
                                      noise_sd=args.noise_sd, sampling=args.sampling)
    os.makedirs(args.out, exist_ok=True)
    config = dict(command="simulate", n=args.n, m=args.m, alpha=args.alpha,
                  alpha_tilde=args.alpha_tilde, noise_sd=args.noise_sd,
                  sampling=args.sampling, k_max=cfg.k_max, seed=args.seed)
    path = os.path.join(args.out, "dataset.csv")
    _write(path, table.to_csv(), config)
    _write_manifest(args.out, config)
    print(f"wrote {path}")
    return 0


# smoothness guesses of the fixed-threshold g estimators in the study1 plan
FIXED_G_BETAS = (0.2, 0.5, 2.0)


def _default_plan(args):
    plan = [adaptive_g(args.tau)]
    plan += [fixed_g(beta) for beta in FIXED_G_BETAS]
    plan += [adaptive_f(args.tau1, args.tau2), single_subject_f()]
    return plan


def _run_reports(cfg, plan, args, out_dir, command):
    reports = run_monte_carlo(cfg, plan, args.replicates, args.seed)
    # every summary row first: an estimator without one successful replicate
    # fails the run before any file is written
    summary = ["estimator,target,replicates,failures,median,mean,q1,q3,mean_log"]
    summary += [report.summary_row() for report in reports.values()]
    os.makedirs(out_dir, exist_ok=True)
    config = dict(command=command, n=cfg.n, m=cfg.m, alpha=args.alpha,
                  alpha_tilde=args.alpha_tilde, k_max=cfg.k_max,
                  replicates=args.replicates, seed=args.seed,
                  tau=args.tau, tau1=args.tau1, tau2=args.tau2)
    for label, report in reports.items():
        _write(os.path.join(out_dir, f"report_{label}.csv"), report.to_csv(), config)
    _write(os.path.join(out_dir, "summary.csv"), "\n".join(summary) + "\n", config)
    _write_manifest(out_dir, config)
    return reports


def _cmd_study1(args) -> int:
    prior, deviation = _spectra(args)
    cfg = ModelConfig(args.n, args.m, prior, deviation, k_max=args.k_max)
    # the plan's widest fixed threshold must fit in k_max; checked before sampling
    widest, beta = max((fixed_g_threshold(cfg.n, cfg.m, beta), beta) for beta in FIXED_G_BETAS)
    if args.k_max == 0:
        cfg = replace(cfg, k_max=max(cfg.k_max, widest))
    elif cfg.k_max < widest:
        raise ConfigError(f"k_max = {cfg.k_max} is below the widest fixed threshold: "
                          f"fixed_g_beta{beta:g} keeps {widest} coefficients")
    _run_reports(cfg, _default_plan(args), args, args.out, "study1")
    print(f"wrote reports to {args.out}")
    return 0


def _cmd_study2(args) -> int:
    grid = enumerate_designs(args.budget, args.alpha, args.alpha_tilde,
                             mode="product", density=args.density)
    cells = sorted({(p.n, p.m) for p in grid.points})
    prior = Spectrum(args.alpha)
    deviation = Spectrum(args.alpha_tilde)
    surface_g, surface_f = [], []
    for n, m in cells:
        if m < 2:
            continue
        cfg = ModelConfig(n, m, prior, deviation)
        plan = [adaptive_g(args.tau), adaptive_f(args.tau1, args.tau2)]
        reports = run_monte_carlo(cfg, plan, args.replicates, args.seed)
        for report in reports.values():
            target_surface = surface_g if report.target == "g" else surface_f
            target_surface.append((n, m, report.mean_log))
    os.makedirs(args.out, exist_ok=True)
    config = dict(command="study2", budget=args.budget, alpha=args.alpha,
                  alpha_tilde=args.alpha_tilde, density=args.density,
                  replicates=args.replicates, seed=args.seed,
                  tau=args.tau, tau1=args.tau1, tau2=args.tau2)
    for target, surface in (("g", surface_g), ("f", surface_f)):
        # only rectangular sub-coverage can be drawn; restrict m to values
        # present for every n
        by_n = {}
        for n, m, v in surface:
            by_n.setdefault(n, {})[m] = v
        common_m = sorted(set.intersection(*(set(d) for d in by_n.values())))
        rect = [(n, m, by_n[n][m]) for n in sorted(by_n) for m in common_m]
        svg = os.path.join(args.out, f"heatmap_mise_{target}.svg")
        csv = os.path.join(args.out, f"heatmap_mise_{target}.csv")
        emit_heatmap(rect, svg, csv, header_lines=_header_lines(config),
                     label=f"mean_log_mise_{target}")
    _write_manifest(args.out, config)
    print(f"wrote heatmaps to {args.out}")
    return 0


def _cmd_compare(args) -> int:
    spec = SplitSpec(args.test_a, args.test_b, args.test_count)
    # rescaled times and aliased coefficients are reported, not fatal
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DataWarning)
        try:
            table = load_table(args.data)
            results = compare_estimators(table, spec, tau1=args.tau1, tau2=args.tau2,
                                         tau_single=args.tau_single)
        finally:
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)
    content = comparison_csv(results)
    wins = sum(1 for _, rs, rd in results if rd < rs)
    if args.out:
        config = dict(command="compare", data=os.path.basename(args.data),
                      test_a=args.test_a, test_b=args.test_b,
                      test_count=args.test_count, tau1=args.tau1, tau2=args.tau2,
                      tau_single=args.tau_single)
        out_dir = os.path.dirname(os.path.abspath(args.out)) or "."
        os.makedirs(out_dir, exist_ok=True)
        _write(args.out, content, config)
        _write_manifest(out_dir, config)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(content)
    print(f"two-threshold wins on {wins} of {len(results)} subjects")
    return 0


def _cmd_oracle_check(args) -> int:
    prior, deviation = _spectra(args)
    cfg = ModelConfig(args.n, args.m, prior, deviation, k_max=args.k_max)
    rng = substream(args.seed, 0)
    g = sample_population(cfg, rng)
    k1_star, k2_star = oracle_thresholds(g, deviation, cfg.n, cfg.m)
    _, panel = sample_panel(g, cfg, rng)
    k1, k2 = lepskii_thresholds_f(subject_stats(panel, 0), tau1=args.tau1, tau2=args.tau2)
    print(f"oracle k1*={k1_star} k2*={k2_star} adaptive k1={k1} k2={k2}")
    return 0


def _add_model_flags(p, need_nm=True):
    if need_nm:
        p.add_argument("--n", type=int, required=True, help="per-subject precision")
        p.add_argument("--m", type=int, required=True, help="number of subjects")
    p.add_argument("--alpha", type=float, required=True, help="population smoothness")
    p.add_argument("--alpha-tilde", type=float, default=0.5,
                   help="deviation smoothness (default 0.5)")


def _add_tau_flags(p):
    p.add_argument("--tau", type=float, default=6.5)
    p.add_argument("--tau1", type=float, default=4.5)
    p.add_argument("--tau2", type=float, default=6.5)


def _add_split_flags(p):
    p.add_argument("--test-a", type=int, default=3)
    p.add_argument("--test-b", type=int, default=-1)
    p.add_argument("--test-count", type=int, default=50)
    p.add_argument("--tau1", type=float, default=4.5)
    p.add_argument("--tau2", type=float, default=6.5)
    p.add_argument("--tau-single", type=float, default=2.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="twolevel",
                                     description="Two-level sampling estimators and design planning")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rates", help="print theoretical risk rates")
    _add_model_flags(p)
    p.add_argument("--cost-n", type=float, default=1.0)
    p.add_argument("--cost-m", type=float, default=1.0)
    p.set_defaults(func=_cmd_rates)

    p = sub.add_parser("gradient-map", help="emit a negative-gradient quiver map")
    _add_model_flags(p, need_nm=False)
    p.add_argument("--target", choices=("g", "f"), default="g")
    p.add_argument("--budget", type=float, default=5000.0)
    p.add_argument("--budget-mode", choices=("product", "linear_cost"), default="product")
    p.add_argument("--cost-n", type=float, default=1.0)
    p.add_argument("--cost-m", type=float, default=1.0)
    p.add_argument("--density", type=int, default=12)
    p.add_argument("--out", default="out")
    p.set_defaults(func=_cmd_gradient_map)

    p = sub.add_parser("heatmap", help="emit a rate-surface heatmap")
    _add_model_flags(p, need_nm=False)
    p.add_argument("--target", choices=("g", "f"), default="g")
    p.add_argument("--budget", type=float, default=5000.0)
    p.add_argument("--density", type=int, default=12)
    p.add_argument("--out", default="out")
    p.set_defaults(func=_cmd_heatmap)

    p = sub.add_parser("simulate", help="generate a regression dataset CSV")
    _add_model_flags(p)
    p.add_argument("--noise-sd", type=float, default=1.0)
    p.add_argument("--sampling", choices=("series", "covariance"), default="series")
    p.add_argument("--k-max", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("study1", help="sequence-mode estimator comparison")
    _add_model_flags(p)
    _add_tau_flags(p)
    p.add_argument("--k-max", type=int, default=0)
    p.add_argument("--replicates", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out")
    p.set_defaults(func=_cmd_study1)

    p = sub.add_parser("study2", help="budget-sweep mean-log-MISE heatmaps")
    _add_model_flags(p, need_nm=False)
    _add_tau_flags(p)
    p.add_argument("--budget", type=float, default=5000.0)
    p.add_argument("--density", type=int, default=6)
    p.add_argument("--replicates", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out")
    p.set_defaults(func=_cmd_study2)

    p = sub.add_parser("compare", help="single-subject vs two-threshold RMSPE comparison")
    p.add_argument("--data", required=True)
    _add_split_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("oracle-check", help="oracle vs adaptive thresholds on simulated data")
    _add_model_flags(p)
    p.add_argument("--tau1", type=float, default=4.5)
    p.add_argument("--tau2", type=float, default=6.5)
    p.add_argument("--k-max", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_oracle_check)

    return parser


def cli_dispatch(argv) -> int:
    """Run one CLI invocation; returns the process exit status."""
    if env_out := os.environ.get("TWOLEVEL_OUT_DIR"):
        argv = list(argv)
        if "--out" not in argv and any(c in argv for c in
                                       ("gradient-map", "heatmap", "simulate",
                                        "study1", "study2")):
            argv += ["--out", env_out]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
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
