import math

import numpy as np
import pytest

from twolevel import estimators as est
from twolevel import risk
from twolevel.basis import FunctionSeries, Spectrum
from twolevel.risk import (EstimatorSpec, RateQuery, adaptive_f, adaptive_g,
                           fixed_f, fixed_g, posterior_f,
                           posterior_g, rate_f, rate_g, rate_gradient,
                           run_monte_carlo, single_subject_f, slope_recovery)
from twolevel.simulate import ModelConfig, replicate_normals, sample_stats

from reference import (default_eval_grid_f, default_eval_grid_g, empirical_mise,
                       parseval_mise, rmspe, run_monte_carlo_per_replicate)


class TestScores:
    def test_mise_zero_for_truth(self):
        f = FunctionSeries([1.0, -2.0])
        grid = default_eval_grid_g(100)
        assert empirical_mise(f, f(grid), grid) == 0.0

    def test_mise_constant_offset(self):
        zero = FunctionSeries.zero()
        grid = default_eval_grid_g(50)
        assert empirical_mise(zero, np.full(50, 3.0), grid) == pytest.approx(9.0)

    def test_mise_parseval(self):
        # MISE of a truncation equals the dropped coefficient energy
        rng = np.random.default_rng(1)
        truth = FunctionSeries(rng.normal(size=12))
        grid = default_eval_grid_g(10000)
        cut = FunctionSeries(truth.coeffs[:5])
        assert empirical_mise(cut, truth(grid), grid) == \
            pytest.approx(float(np.sum(truth.coeffs[5:] ** 2)), rel=1e-6)

    @pytest.mark.parametrize("K,grid", [
        (1, default_eval_grid_f()), (2, default_eval_grid_f()),
        (800, default_eval_grid_f()), (999, default_eval_grid_f()),
        (800, default_eval_grid_g()), (2000, default_eval_grid_g()),
    ])
    def test_parseval_matches_quadrature(self, K, grid):
        # the equispaced grids integrate every product of two basis functions
        # exactly while no frequency aliases: K <= 999 on the 1000-point grid
        rng = np.random.default_rng(K)
        truth = FunctionSeries(rng.normal(size=K))
        estimate = FunctionSeries(rng.normal(size=max(K // 2, 1)))
        assert parseval_mise(estimate, truth.coeffs) == \
            pytest.approx(empirical_mise(estimate, truth(grid), grid), rel=1e-9)

    def test_quadrature_aliases_past_grid_limit(self):
        # at K = 1000 the 1000-point grid aliases; Parseval stays the L2 risk
        rng = np.random.default_rng(1000)
        truth = FunctionSeries(rng.normal(size=1000))
        grid = default_eval_grid_f()
        zero = FunctionSeries.zero()
        exact = parseval_mise(zero, truth.coeffs)
        assert exact == pytest.approx(float(np.sum(truth.coeffs**2)))
        assert abs(empirical_mise(zero, truth(grid), grid) - exact) > 1e-6 * exact

    def test_parseval_pads_the_shorter_side(self):
        est = FunctionSeries([1.0, 2.0, 3.0])
        assert parseval_mise(est, [1.0]) == pytest.approx(13.0)
        assert parseval_mise(FunctionSeries([1.0]), [0.0, 0.0, 2.0]) == pytest.approx(5.0)

    def test_rmspe_example(self):
        zero = FunctionSeries.zero()
        assert rmspe(zero, [0.1, 0.9], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5))

    def test_empty_test_set_rejected(self):
        with pytest.raises(ValueError):
            rmspe(FunctionSeries.zero(), [], [])


class TestEvalGrids:
    def test_g_grid(self):
        grid = default_eval_grid_g()
        assert grid.size == 10000
        assert grid[0] == pytest.approx(0.00005)
        assert grid[-1] == pytest.approx(0.99995)

    def test_f_grid(self):
        grid = default_eval_grid_f()
        assert grid.size == 1000
        assert grid[0] == pytest.approx(0.00005)
        assert grid[1] == pytest.approx(0.00105)


# each plan factory with the threshold its fit selects: k, K, k2 (above k1
# for the fixed pair at (n, m) = (60, 6)), or the width for a posterior
SUPPORT_CASES = [
    (adaptive_g(), est.lepskii_threshold_g),
    (fixed_g(0.5), lambda stats: math.ceil((stats.n * stats.m) ** 0.5)),
    (adaptive_f(), lambda stats: est.lepskii_thresholds_f(stats)[1]),
    (fixed_f(0.5, 1.0), lambda stats: max(math.ceil(stats.n ** (1 / 3)),
                                          math.ceil((stats.n * stats.m) ** 0.5))),
    (single_subject_f(), est.single_subject_threshold),
    (posterior_g(Spectrum(1.0), Spectrum(0.5)), lambda stats: stats.width),
    (posterior_f(Spectrum(1.0), Spectrum(0.5)), lambda stats: stats.width),
]


class TestMonteCarlo:
    def cfg(self, n=60, m=6):
        return ModelConfig(n, m, Spectrum(1.0), Spectrum(0.5), k_max=80)

    def test_deterministic_given_seed(self):
        plan = [adaptive_g(), adaptive_f()]
        r1 = run_monte_carlo(self.cfg(), plan, replicates=4, seed=9)
        r2 = run_monte_carlo(self.cfg(), plan, replicates=4, seed=9)
        for label in r1:
            np.testing.assert_array_equal(r1[label].mises, r2[label].mises)

    def test_seed_changes_draws(self):
        plan = [adaptive_g()]
        r1 = run_monte_carlo(self.cfg(), plan, replicates=4, seed=9)
        r2 = run_monte_carlo(self.cfg(), plan, replicates=4, seed=10)
        label = plan[0].label
        assert not np.array_equal(r1[label].mises, r2[label].mises)

    def test_full_plan_runs(self):
        spectra = Spectrum(1.0), Spectrum(0.5)
        plan = [adaptive_g(), fixed_g(0.5), adaptive_f(), fixed_f(1.0, 0.5),
                single_subject_f(), posterior_g(*spectra), posterior_f(*spectra)]
        out = run_monte_carlo(self.cfg(), plan, replicates=3, seed=2)
        assert len(out) == len(plan)
        for rep in out.values():
            assert rep.failures == 0
            assert np.all(np.isfinite(rep.mises))
            assert np.all(rep.mises >= 0)

    @pytest.mark.parametrize("spec,threshold", SUPPORT_CASES,
                             ids=[spec.label for spec, _ in SUPPORT_CASES])
    def test_fit_returns_its_support(self, spec, threshold):
        # the support is the threshold the spec selected (k, K or k2; the
        # width for a posterior), and every row is zero from its support on
        cfg = self.cfg()
        _, _, stats = sample_stats(cfg, replicate_normals(4, 8, cfg.stats_width))
        fitted, support = spec.fit(stats)
        assert fitted.shape == (8, cfg.k_max)
        np.testing.assert_array_equal(support, threshold(stats))
        for row, s in zip(fitted, np.broadcast_to(support, 8)):
            assert (row[s:] == 0.0).all()

    @pytest.mark.parametrize("n,m,k_max", [(60, 6, 80), (1, 5000, 71), (7, 2, 6),
                                           (100, 100, 720)])
    def test_stack_matches_per_replicate_route(self, n, m, k_max):
        # the stacked engine draws, fits and scores exactly as the route that
        # draws, fits and scores one replicate at a time
        cfg = ModelConfig(n, m, Spectrum(0.7), Spectrum(0.4), k_max=k_max)
        spectra = Spectrum(1.0), Spectrum(0.5)
        plan = [adaptive_g(), fixed_g(0.5), adaptive_f(), fixed_f(1.0, 0.5),
                single_subject_f(), posterior_g(*spectra), posterior_f(*spectra)]
        got = run_monte_carlo(cfg, plan, replicates=12, seed=n + m)
        want = run_monte_carlo_per_replicate(cfg, plan, replicates=12, seed=n + m)
        for label, report in want.items():
            np.testing.assert_array_equal(got[label].mises, report.mises)
            assert got[label].failures == report.failures
            assert got[label].first_failure == report.first_failure

    @pytest.mark.parametrize("n,m,k_max", [(60, 6, 80), (1, 5000, 71)])
    def test_shared_block_gives_the_same_reports(self, n, m, k_max):
        # a block drawn once for a wider config, as study2 shares it across
        # its cells, scores every replicate as the config's own draw
        cfg = ModelConfig(n, m, Spectrum(0.7), Spectrum(0.4), k_max=k_max)
        plan = [adaptive_g(), adaptive_f(), posterior_g(Spectrum(1.0), Spectrum(0.5))]
        shared = replicate_normals(5, 10, 4 * 283)
        got = run_monte_carlo(cfg, plan, 10, 5, shared)
        want = run_monte_carlo(cfg, plan, 10, 5)
        for label, report in want.items():
            np.testing.assert_array_equal(got[label].mises, report.mises)
            assert got[label].failures == report.failures
        with pytest.raises(ValueError, match="need 9 rows of normals, got 10"):
            run_monte_carlo(cfg, plan, 9, 5, shared)

    def test_non_finite_rows_fail_alone(self):
        # a row of the fit that is not finite fails on its own; every other
        # row scores bit for bit as its own d @ d
        cfg = self.cfg()
        base = adaptive_g()

        def holed(stats):
            fitted, support = base.fit(stats)
            fitted = fitted.copy()
            fitted[1, 3] = np.nan
            fitted[4, 0] = np.inf
            return fitted, support

        def all_nan(stats):
            fitted, support = base.fit(stats)
            return np.full_like(fitted, np.nan), support

        plan = [EstimatorSpec("holed", "g", holed), EstimatorSpec("all_nan", "g", all_nan)]
        out = run_monte_carlo(cfg, plan, replicates=6, seed=3)
        g, _, stats = sample_stats(cfg, replicate_normals(3, 6, cfg.stats_width))
        fitted, _ = base.fit(stats)
        report = out["holed"]
        assert report.failures == 2 and type(report.failures) is int
        assert report.first_failure == "ValueError: coeffs must be finite"
        assert np.isnan(report.mises[[1, 4]]).all()
        for r in (0, 2, 3, 5):
            d = fitted[r] - g[r]
            assert report.mises[r].tobytes() == (d @ d).tobytes()
        assert out["all_nan"].failures == 6
        assert out["all_nan"].first_failure == "ValueError: coeffs must be finite"
        assert np.isnan(out["all_nan"].mises).all()
        with pytest.raises(ValueError, match="first failure: ValueError: coeffs must be finite"):
            out["all_nan"].median

    def test_programming_error_propagates(self):
        def buggy(stats):
            raise TypeError("not an estimator failure")
        plan = [adaptive_g(), EstimatorSpec("buggy", "f", buggy)]
        with pytest.raises(TypeError, match="not an estimator failure"):
            run_monte_carlo(self.cfg(), plan, replicates=2, seed=0)

    def test_fit_value_error_propagates(self):
        # a fit that raises is a fault of the fit, not a failed replicate
        def broken(stats):
            raise ValueError("boom")
        plan = [adaptive_g(), EstimatorSpec("broken", "g", broken)]
        with pytest.raises(ValueError, match="boom"):
            run_monte_carlo(self.cfg(), plan, replicates=3, seed=0)

    @pytest.mark.parametrize("plan", [[adaptive_g()], [adaptive_f()]])
    def test_zero_subjects_rejected(self, plan):
        for m in (0, 1):
            with pytest.raises(ValueError, match=f"at least 2 subjects, got m={m}"):
                run_monte_carlo(self.cfg(m=m), plan, replicates=2, seed=0)

    def test_single_subject_study(self, monkeypatch):
        # m = 1: every estimator pools the other m - 1 subjects, so the
        # config is rejected before a replicate is drawn
        def no_draw(*args):
            raise AssertionError("drew a replicate")
        monkeypatch.setattr(risk, "replicate_normals", no_draw)
        monkeypatch.setattr(risk, "sample_stats", no_draw)
        with pytest.raises(ValueError, match="need at least 2 subjects, got m=1"):
            run_monte_carlo(self.cfg(m=1), [adaptive_g(), adaptive_f()],
                            replicates=3, seed=4)

    def test_posterior_beats_single_subject_on_average(self):
        # with informative donors the posterior f should do clearly better
        plan = [posterior_f(Spectrum(1.0), Spectrum(0.5)), single_subject_f()]
        out = run_monte_carlo(self.cfg(n=50, m=20), plan, replicates=40, seed=3)
        assert out[plan[0].label].median < out[plan[1].label].median

    def test_report_csv_and_summary(self):
        out = run_monte_carlo(self.cfg(), [adaptive_g()], replicates=3, seed=1)
        rep = next(iter(out.values()))
        lines = rep.to_csv().strip().splitlines()
        assert lines[0] == "replicate,estimator,mise"
        assert len(lines) == 4
        assert rep.summary_row().startswith(f"{rep.label},g,3,0,")


class TestRates:
    def test_rate_g_example(self):
        q = RateQuery(100, 100, alpha=0.5, alpha_tilde=0.5)
        assert rate_g(q) == pytest.approx(0.02)

    def test_rate_f_example(self):
        q = RateQuery(100, 100, alpha=0.5, alpha_tilde=0.5)
        assert rate_f(q) == pytest.approx(0.11)

    def test_rate_g_large_m_limit(self):
        q = RateQuery(10, 1e12, alpha=1.0, alpha_tilde=1.0)
        assert rate_g(q) < 1e-7

    def test_monotone_in_both_axes(self):
        base = RateQuery(50, 20, alpha=0.7, alpha_tilde=0.4)
        assert rate_g(RateQuery(100, 20, 0.7, 0.4)) < rate_g(base)
        assert rate_g(RateQuery(50, 40, 0.7, 0.4)) < rate_g(base)
        assert rate_f(RateQuery(100, 20, 0.7, 0.4)) < rate_f(base)
        assert rate_f(RateQuery(50, 40, 0.7, 0.4)) < rate_f(base)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            RateQuery(0, 1, 1.0, 1.0)
        with pytest.raises(ValueError):
            RateQuery(1, 1, 1.0, 0.0)


class TestRateGradient:
    def finite_difference(self, q, target, cost_n, cost_m, h=1e-6):
        def val(n, m):
            qq = RateQuery(n, m, q.alpha, q.alpha_tilde)
            return rate_g(qq) if target == "g" else rate_f(qq)
        dn = (val(q.n * (1 + h), q.m) - val(q.n * (1 - h), q.m)) / (2 * h * q.n)
        dm = (val(q.n, q.m * (1 + h)) - val(q.n, q.m * (1 - h))) / (2 * h * q.m)
        return dn / cost_n, dm / cost_m

    @pytest.mark.parametrize("target", ["g", "f"])
    def test_matches_finite_differences(self, target):
        rng = np.random.default_rng(5)
        for _ in range(20):
            q = RateQuery(n=float(rng.uniform(2, 500)), m=float(rng.uniform(2, 500)),
                          alpha=float(rng.uniform(0.2, 3)),
                          alpha_tilde=float(rng.uniform(0.2, 3)))
            costs = float(rng.uniform(0.5, 4)), float(rng.uniform(0.5, 4))
            grad = rate_gradient(q, target, *costs)
            dn, dm = self.finite_difference(q, target, *costs)
            assert grad.dn == pytest.approx(dn, rel=1e-5)
            assert grad.dm == pytest.approx(dm, rel=1e-5)

    def test_known_point(self):
        grad = rate_gradient(RateQuery(1.0, 10.0, 1.0, 1.0), "g")
        assert grad.dn == pytest.approx(-0.14363, abs=1e-4)
        assert grad.dm == pytest.approx(-0.02436, abs=1e-4)
        assert grad.steeper_axis == "n"

    def test_costs_flip_steeper_axis(self):
        cheap_m = rate_gradient(RateQuery(1.0, 10.0, 1.0, 1.0), "g", cost_n=100.0)
        assert cheap_m.steeper_axis == "m"

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            rate_gradient(RateQuery(2, 2, 1, 1), "h")


class TestSlopeRecovery:
    def test_exact_power_law(self):
        ns = [100, 400, 1600, 6400]
        vals = [7.0 * n ** (-0.5) for n in ns]
        assert slope_recovery(ns, vals) == pytest.approx(-0.5)

    def test_requires_three_points(self):
        with pytest.raises(ValueError):
            slope_recovery([1, 2], [1.0, 2.0])

    def test_rejects_constant_axis(self):
        with pytest.raises(ValueError):
            slope_recovery([5, 5, 5], [1.0, 2.0, 3.0])
