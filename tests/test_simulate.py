import math

import numpy as np
import pytest

from twolevel.basis import FunctionSeries, Spectrum, series_eval
from twolevel.dataio import parse_table
from twolevel.estimators import subject_stats
from twolevel.simulate import (ModelConfig, MultiSubjectTable, SubjectStats,
                               build_covariance, default_k_max, sample_panel,
                               sample_population, sample_stats,
                               simulate_regression, study1_grids, substream)

from reference import fourier_eval


@pytest.fixture
def cfg():
    return ModelConfig(n=50, m=8, prior_spectrum=Spectrum(0.5),
                       deviation_spectrum=Spectrum(1.0), k_max=32)


class TestSamplePopulation:
    def test_degenerate_prior(self, cfg):
        tiny = ModelConfig(cfg.n, cfg.m, Spectrum(0.5, scale=1e-300),
                           cfg.deviation_spectrum, cfg.k_max)
        g = sample_population(tiny, substream(0, 0))
        assert np.allclose(g.coeffs, 0.0, atol=1e-140)

    def test_seed_determinism(self, cfg):
        g1 = sample_population(cfg, substream(42, 0))
        g2 = sample_population(cfg, substream(42, 0))
        np.testing.assert_array_equal(g1.coeffs, g2.coeffs)

    def test_monte_carlo_variance(self):
        # Var(g_2) should be eigenvalue(2) = 0.25 for decay 0.5
        cfg = ModelConfig(1, 1, Spectrum(0.5), Spectrum(0.5), k_max=4)
        rng = substream(3, 0)
        draws = np.array([sample_population(cfg, rng).coeffs[1] for _ in range(50000)])
        assert np.var(draws) == pytest.approx(0.25, abs=0.01)


def per_subject_panel(g, cfg, rng):
    """Reference draw, one subject at a time: K deviation normals for each
    subject, then K noise normals for each subject."""
    base = g.padded(cfg.k_max)
    sd = np.sqrt(cfg.deviation_spectrum.eigenvalues(cfg.k_max))
    subjects = [base + sd * rng.standard_normal(cfg.k_max) for _ in range(cfg.m)]
    rows = [f + rng.standard_normal(cfg.k_max) / math.sqrt(cfg.n) for f in subjects]
    return np.array(subjects), np.array(rows)


@pytest.mark.parametrize("n,m,k_max", [(100, 100, 800), (1, 5000, 71), (10, 2, 6), (7, 3, 33)])
def test_sample_panel_matches_per_subject_draws(n, m, k_max):
    cfg = ModelConfig(n, m, Spectrum(0.5), Spectrum(0.5), k_max=k_max)
    g = sample_population(cfg, substream(5, n, m))
    deviations, panel = sample_panel(g, cfg, substream(6, n, m))
    subjects, rows = per_subject_panel(g, cfg, substream(6, n, m))
    np.testing.assert_array_equal(panel.coeffs, rows)
    np.testing.assert_array_equal(g.padded(k_max) + deviations, subjects)
    assert (panel.n, panel.m, panel.width) == (n, m, k_max)


def stats_draws(route, cfg, replicates, seed):
    """(replicates, 5 k_max) rows of (g, f0, own, donor_mean, pooled) for
    subject 0, drawn by ``sample_stats`` or by the full panel."""
    rng = substream(seed, 0)
    rows = np.empty((replicates, 5 * cfg.k_max))
    for r in range(replicates):
        g = sample_population(cfg, rng)
        if route == "stats":
            deviation0, stats = sample_stats(g, cfg, rng)
        else:
            deviations, panel = sample_panel(g, cfg, rng)
            deviation0, stats = deviations[0], subject_stats(panel, 0)
        rows[r] = np.concatenate([g.coeffs, g.coeffs + deviation0, stats.own,
                                  stats.donor_mean, stats.pooled])
    return rows


def test_sample_stats_matches_panel_moments():
    # sufficiency: both routes give (g, f0, own, donor_mean, pooled) the same
    # Gaussian law; compare means and covariances within 4 standard errors
    cfg = ModelConfig(7, 5, Spectrum(0.3), Spectrum(0.2), k_max=6)
    R = 20000
    fast = stats_draws("stats", cfg, R, seed=41)
    full = stats_draws("panel", cfg, R, seed=42)

    def moments(x):
        centered = x - x.mean(axis=0)
        cov = centered.T @ centered / R
        cov_se = np.array([np.std(centered[:, [a]] * centered, axis=0)
                           for a in range(x.shape[1])]) / np.sqrt(R)
        return x.mean(axis=0), x.std(axis=0) / np.sqrt(R), cov, cov_se

    mean_a, mean_se_a, cov_a, cov_se_a = moments(fast)
    mean_b, mean_se_b, cov_b, cov_se_b = moments(full)
    assert np.all(np.abs(mean_a - mean_b) <= 4 * np.hypot(mean_se_a, mean_se_b))
    assert np.all(np.abs(cov_a - cov_b) <= 4 * np.hypot(cov_se_a, cov_se_b))


def test_sample_stats_single_subject():
    cfg = ModelConfig(9, 1, Spectrum(0.5), Spectrum(0.5), k_max=5)
    g = sample_population(cfg, substream(8, 0))
    deviation0, stats = sample_stats(g, cfg, substream(8, 1))
    assert deviation0.shape == (5,)
    assert stats.donor_mean is None
    np.testing.assert_array_equal(stats.pooled, stats.own)
    with pytest.raises(ValueError, match="exactly when"):
        SubjectStats(9, 2, stats.own, None)


class TestSampleSubjects:
    """The deviation half of ``sample_panel``: subjects g + e^(j)."""

    def test_degenerate_deviations(self, cfg):
        g = sample_population(cfg, substream(1, 0))
        tight = ModelConfig(cfg.n, cfg.m, cfg.prior_spectrum,
                            Spectrum(1.0, scale=1e-300), cfg.k_max)
        deviations, _ = sample_panel(g, tight, substream(1, 1))
        for e in deviations:
            np.testing.assert_allclose(g.padded(cfg.k_max) + e, g.coeffs, atol=1e-140)

    def test_zero_subjects(self, cfg):
        empty = ModelConfig(cfg.n, 0, cfg.prior_spectrum, cfg.deviation_spectrum, cfg.k_max)
        g = sample_population(empty, substream(0, 0))
        deviations, panel = sample_panel(g, empty, substream(0, 1))
        assert deviations.shape == (0, cfg.k_max)
        assert panel.m == 0

    def test_clt_mean(self):
        cfg = ModelConfig(1, 20000, Spectrum(0.5), Spectrum(0.5), k_max=2)
        g = FunctionSeries([0.7, -0.2])
        deviations, _ = sample_panel(g, cfg, substream(5, 0))
        draws = 0.7 + deviations[:, 0]
        lam1 = cfg.deviation_spectrum.eigenvalue(1)
        assert abs(draws.mean() - 0.7) < 3 * np.sqrt(lam1 / 20000)


class TestObserveSequence:
    """The observation half of ``sample_panel``: rows f^(j) + n^{-1/2} Z."""

    def test_high_precision_limit(self):
        cfg = ModelConfig(10**6, 10000, Spectrum(0.5), Spectrum(0.5), k_max=3)
        g = FunctionSeries([1.0, 2.0, 3.0])
        deviations, panel = sample_panel(g, cfg, substream(9, 0))
        noise = panel.coeffs - (g.coeffs + deviations)
        assert np.var(noise, axis=0).max() < 2e-6

    def test_determinism(self, cfg):
        g = sample_population(cfg, substream(2, 0))
        d1, p1 = sample_panel(g, cfg, substream(2, 1))
        d2, p2 = sample_panel(g, cfg, substream(2, 1))
        np.testing.assert_array_equal(d1, d2)
        np.testing.assert_array_equal(p1.coeffs, p2.coeffs)

    def test_clt_mean(self):
        cfg = ModelConfig(100, 50000, Spectrum(0.5), Spectrum(0.5), k_max=2)
        g = FunctionSeries([1.0, -0.5])
        deviations, panel = sample_panel(g, cfg, substream(11, 0))
        rows = panel.coeffs - deviations
        tol = 3 * np.sqrt(1.0 / (100 * 50000))
        assert abs(rows[:, 0].mean() - 1.0) < tol


class TestBuildCovariance:
    def test_single_point_single_term(self):
        cov = build_covariance(Spectrum(0.7, scale=1.4), [0.3], terms=1)
        np.testing.assert_allclose(cov, [[1.4]])

    def test_four_term_value(self):
        # at t = 0.25: psi_1^2=1, psi_2^2=0, psi_3^2=2, psi_4^2=2
        cov = build_covariance(Spectrum(0.5), [0.25], terms=4)
        expected = 1.0 + 0.0 + 2.0 / 27.0 + 2.0 / 64.0
        # decay 0.5 -> eigenvalues k^-2: 1, 1/4, 1/9, 1/16
        expected = 1.0 * 1.0 + 0.25 * 0.0 + (1.0 / 9.0) * 2.0 + (1.0 / 16.0) * 2.0
        np.testing.assert_allclose(cov, [[expected]])

    def test_matches_naive_double_loop(self):
        spec = Spectrum(0.8, scale=0.6)
        pts = np.array([0.05, 0.21, 0.5, 0.77, 0.93])
        cov = build_covariance(spec, pts, terms=50)
        naive = np.zeros((5, 5))
        for a in range(5):
            for b in range(5):
                naive[a, b] = sum(spec.eigenvalue(k) * fourier_eval(k, pts[a]) *
                                  fourier_eval(k, pts[b]) for k in range(1, 51))
        np.testing.assert_allclose(cov, naive, atol=1e-12)

    def test_empty_points(self):
        assert build_covariance(Spectrum(0.5), [], terms=3).shape == (0, 0)


class TestStudy1Grids:
    def test_first_train_point(self):
        train, _ = study1_grids(20, 500, 1, N=20000)
        assert train[0] == pytest.approx(2 * (500 * 0 + 1) / 20000)

    def test_first_eval_point(self):
        _, ev = study1_grids(20, 500, 1, N=20000)
        assert ev[0] == pytest.approx(1 / 20000)
        assert ev.size == 1000

    def test_disjointness(self):
        n, m, N = 20, 500, 20000
        _, ev = study1_grids(n, m, 1, N)
        seen = set(np.round(ev * N).astype(int))
        for j in range(1, m + 1):
            train, _ = study1_grids(n, m, j, N)
            pts = set(np.round(train * N).astype(int))
            assert not pts & seen
            seen |= pts

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            study1_grids(100, 500, 1, N=20000)


class TestSimulateRegression:
    def grids(self, cfg, n_pts=64):
        grid = (np.arange(n_pts) + 0.5) / n_pts
        return [grid] * cfg.m

    def test_noiseless_observations(self, cfg):
        g, subs, table = simulate_regression(cfg, self.grids(cfg), seed=4, noise_sd=0.0)
        for f, grid, y in zip(subs, table.times, table.values):
            np.testing.assert_allclose(y, series_eval(f, grid), atol=1e-12)

    def test_seed_determinism(self, cfg):
        _, _, d1 = simulate_regression(cfg, self.grids(cfg), seed=4)
        _, _, d2 = simulate_regression(cfg, self.grids(cfg), seed=4)
        for y1, y2 in zip(d1.values, d2.values):
            np.testing.assert_array_equal(y1, y2)

    def test_marginal_variance_of_deviations(self):
        # g pinned at zero: Var(Y at t) = deviation covariance diagonal + 1
        dev = Spectrum(0.5)
        cfg = ModelConfig(1, 1, Spectrum(0.5, scale=1e-300), dev, k_max=64)
        grid = np.array([0.3])
        draws = []
        for r in range(20000):
            _, _, d = simulate_regression(cfg, [grid], seed=1000 + r)
            draws.append(d.values[0][0])
        target = build_covariance(dev, grid, 64)[0, 0] + 1.0
        se = target * np.sqrt(2.0 / 20000)
        assert np.var(draws) == pytest.approx(target, abs=3.5 * se)

    def test_covariance_route_matches_moments(self):
        dev = Spectrum(0.5)
        cfg = ModelConfig(1, 1, Spectrum(0.5, scale=1e-300), dev, k_max=32)
        grid = np.array([0.2, 0.6])
        draws = []
        for r in range(5000):
            _, subs, _ = simulate_regression(cfg, [grid], seed=r, noise_sd=0.0,
                                             sampling="covariance")
            draws.append(subs[0](grid))
        emp = np.cov(np.array(draws).T)
        target = build_covariance(dev, grid, 32)
        np.testing.assert_allclose(emp, target, atol=0.08)

    def test_alias_free_coefficient_recovery(self):
        # noiseless regression reproduces the true coefficients on a fine grid
        from twolevel.estimators import empirical_coefficients
        cfg = ModelConfig(n=1, m=2, prior_spectrum=Spectrum(0.5),
                          deviation_spectrum=Spectrum(0.5), k_max=16)
        grid = (np.arange(4 * 16) + 0.5) / (4 * 16)
        _, subs, data = simulate_regression(cfg, [grid, grid], seed=8, noise_sd=0.0)
        panel = empirical_coefficients(data, 16)
        for j, f in enumerate(subs):
            np.testing.assert_allclose(panel.coeffs[j], f.coeffs, atol=1e-8)


class TestRegressionDataset:
    """The ``subject,i,t,y`` table that ``simulate_regression`` returns."""

    def test_csv_round_trip(self, cfg):
        grid = (np.arange(10) + 0.5) / 10
        _, _, table = simulate_regression(cfg, [grid] * cfg.m, seed=6)
        assert table.subject_ids == tuple(str(j) for j in range(1, cfg.m + 1))
        again = parse_table(table.to_csv())
        assert again.subject_ids == table.subject_ids
        for column in ("indices", "times", "values"):
            for x, y in zip(getattr(table, column), getattr(again, column)):
                np.testing.assert_array_equal(x, y)

    def test_rejects_ragged(self):
        with pytest.raises(ValueError, match="differ in length"):
            MultiSubjectTable(("1",), (np.arange(1, 3),), (np.array([0.1, 0.2]),),
                              (np.array([1.0]),))

    def test_rejects_non_monotone_grid(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            MultiSubjectTable(("1",), (np.arange(1, 3),), (np.array([0.2, 0.1]),),
                              (np.array([1.0, 2.0]),))


def test_default_k_max_covers_search_bound():
    for n, m in [(1, 1), (100, 100), (20, 500)]:
        assert default_k_max(n, m) >= int(np.sqrt(n * m))


def test_exchangeability_of_subject_streams():
    # permuting subjects permutes panel rows; pooled statistics are unchanged
    cfg = ModelConfig(10, 5, Spectrum(0.5), Spectrum(0.5), k_max=8)
    g = sample_population(cfg, substream(7, 0))
    _, panel = sample_panel(g, cfg, substream(7, 1))
    perm = [3, 1, 4, 0, 2]
    np.testing.assert_allclose(panel.coeffs[perm].mean(axis=0),
                               panel.coeffs.mean(axis=0), rtol=0, atol=1e-14)
