import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from twolevel.basis import FunctionSeries, Spectrum
from twolevel.estimators import (PosteriorSpec, double_threshold_estimate_f,
                                 empirical_coefficients, leave_one_out_means,
                                 lepskii_min_k, lepskii_threshold_g,
                                 lepskii_thresholds_f, oracle_thresholds,
                                 pooled_coefficients, posterior_mean_f,
                                 posterior_mean_g, single_subject_estimate,
                                 single_subject_threshold, subject_stats,
                                 threshold_estimate_g)
from twolevel.simulate import (CoefficientPanel, ModelConfig, SubjectStats,
                               sample_panel, sample_population,
                               simulate_regression, substream)


def brute_force_min_k(sq_terms, tau, denom, bound):
    """Direct translation of the selection rule, quadratic time."""
    for k in range(1, bound + 1):
        if all(sum(sq_terms[k:l]) <= tau * l / denom
               for l in range(k + 1, bound + 1)):
            return k
    return bound


def random_panel(rng, n, m, width):
    cfg = ModelConfig(n, m, Spectrum(0.5), Spectrum(0.5), k_max=width)
    g = sample_population(cfg, rng)
    return sample_panel(g, cfg, rng)[1]


class TestLepskiiCore:
    def test_all_zero_picks_one(self):
        assert lepskii_min_k(np.zeros(30), 6.5, 100.0, 30) == 1

    def test_single_spike(self):
        sq = np.zeros(30)
        sq[4] = 100.0  # k = 5 term; any k < 5 fails at l = 5
        assert lepskii_min_k(sq, 6.5, 100.0, 30) == 5

    def test_bound_always_feasible(self):
        sq = np.full(10, 1e6)
        assert lepskii_min_k(sq, 1.0, 1e9, 10) == 10

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0, 50), min_size=1, max_size=40),
           st.floats(0.1, 10), st.floats(1, 1e4))
    def test_matches_brute_force(self, sq, tau, denom):
        sq = np.array(sq)
        bound = sq.size
        assert lepskii_min_k(sq, tau, denom, bound) == \
            brute_force_min_k(sq, tau, denom, bound)

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 30)),
                  elements=st.floats(0, 50)),
           st.floats(0.1, 10), st.floats(1, 1e4), st.data())
    def test_batched_rows_match_brute_force(self, sq, tau, denom, data):
        width = sq.shape[1]
        for bound in (1, data.draw(st.integers(1, width)), width):
            ks = lepskii_min_k(sq, tau, denom, bound)
            assert ks.tolist() == [brute_force_min_k(row, tau, denom, bound) for row in sq]


class TestEmpiricalCoefficients:
    def test_regression_normalized(self):
        cfg = ModelConfig(n=1, m=1, prior_spectrum=Spectrum(0.5),
                          deviation_spectrum=Spectrum(0.5), k_max=8)
        grid = (np.arange(64) + 0.5) / 64
        _, subs, data = simulate_regression(cfg, [grid], seed=0, noise_sd=0.0)
        panel = empirical_coefficients(data, 8)
        np.testing.assert_allclose(panel.coeffs[0], subs[0].coeffs, atol=1e-10)

    def test_alias_flag(self):
        grid = (np.arange(10) + 0.5) / 10
        cfg = ModelConfig(n=1, m=1, prior_spectrum=Spectrum(0.5),
                          deviation_spectrum=Spectrum(0.5), k_max=8)
        _, _, data = simulate_regression(cfg, [grid], seed=2)
        assert empirical_coefficients(data, 8).aliased
        assert not empirical_coefficients(data, 5).aliased


class TestPooling:
    def test_column_means(self):
        panel = CoefficientPanel(n=4, m=3, coeffs=[[1.0, 0.0], [2.0, 3.0], [3.0, 6.0]])
        np.testing.assert_allclose(pooled_coefficients(panel), [2.0, 3.0])

    def test_leave_one_out(self):
        panel = CoefficientPanel(n=4, m=3, coeffs=[[1.0, 0.0], [2.0, 3.0], [3.0, 6.0]])
        np.testing.assert_allclose(pooled_coefficients(panel, exclude_subject=0),
                                   [2.5, 4.5])

    def test_subject_stats_reads_the_panel(self):
        panel = random_panel(substream(15, 0), n=20, m=6, width=16)
        for j in range(6):
            stats = subject_stats(panel, j)
            np.testing.assert_array_equal(stats.own, panel.coeffs[j])
            np.testing.assert_array_equal(stats.donor_mean,
                                          pooled_coefficients(panel, exclude_subject=j))
            np.testing.assert_allclose(stats.pooled, pooled_coefficients(panel),
                                       rtol=1e-12, atol=1e-15)
        single = subject_stats(CoefficientPanel(n=4, m=1, coeffs=[[1.0, 2.0]]), 0)
        assert single.donor_mean is None
        np.testing.assert_array_equal(single.pooled, [1.0, 2.0])
        with pytest.raises(IndexError):
            subject_stats(panel, 6)

    @pytest.mark.parametrize("m", [2, 3, 20, 257])
    def test_leave_one_out_means_match_reference(self, m):
        panel = random_panel(substream(16, m), n=20, m=m, width=24)
        loo = leave_one_out_means(panel)
        assert loo.shape == (m, 24)
        for j in range(m):
            np.testing.assert_array_equal(loo[j], pooled_coefficients(panel, exclude_subject=j))

    def test_loo_requires_two_subjects(self):
        panel = CoefficientPanel(n=4, m=1, coeffs=[[1.0, 2.0]])
        with pytest.raises(ValueError):
            pooled_coefficients(panel, exclude_subject=0)
        with pytest.raises(ValueError):
            leave_one_out_means(panel)


class TestThresholdEstimators:
    def test_g_keeps_prefix(self):
        panel = CoefficientPanel(n=9, m=2, coeffs=[[1.0, 2.0, 3.0], [3.0, 4.0, 5.0]])
        est = threshold_estimate_g(subject_stats(panel, 0), 2)
        np.testing.assert_allclose(est.coeffs, [2.0, 3.0])

    def test_g_zero_threshold(self):
        panel = CoefficientPanel(n=9, m=2, coeffs=[[1.0], [3.0]])
        assert len(threshold_estimate_g(subject_stats(panel, 0), 0)) == 0

    def test_double_threshold_structure(self):
        panel = CoefficientPanel(n=9, m=3,
                                 coeffs=[[1.0, 2.0, 3.0, 4.0],
                                         [5.0, 6.0, 7.0, 8.0],
                                         [9.0, 10.0, 11.0, 12.0]])
        est = double_threshold_estimate_f(subject_stats(panel, 1), k1=2, k2=3)
        # own coefficients up to k1, pooled-without-self on (k1, k2]
        np.testing.assert_allclose(est.coeffs, [5.0, 6.0, 7.0])
        est0 = double_threshold_estimate_f(subject_stats(panel, 0), k1=1, k2=4)
        np.testing.assert_allclose(est0.coeffs, [1.0, 8.0, 9.0, 10.0])

    def test_double_threshold_validates(self):
        panel = CoefficientPanel(n=9, m=2, coeffs=[[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError):
            double_threshold_estimate_f(subject_stats(panel, 0), k1=2, k2=1)
        with pytest.raises(ValueError):
            double_threshold_estimate_f(subject_stats(panel, 0), k1=1, k2=3)


class TestLepskiiSelectors:
    def test_g_matches_brute_force(self):
        rng = substream(12, 0)
        for trial in range(10):
            panel = random_panel(rng, n=40, m=6, width=64)
            k = lepskii_threshold_g(subject_stats(panel, 0), tau=6.5)
            pooled_sq = pooled_coefficients(panel) ** 2
            bound = int(math.isqrt(40 * 6))
            assert k == brute_force_min_k(pooled_sq, 6.5, 40 * 6, bound)

    def test_f_matches_brute_force(self):
        rng = substream(13, 0)
        for trial in range(10):
            panel = random_panel(rng, n=50, m=5, width=64)
            got = lepskii_thresholds_f(subject_stats(panel, 2))
            pooled = pooled_coefficients(panel, exclude_subject=2)
            k2 = brute_force_min_k(pooled**2, 6.5, 250, int(math.isqrt(250)))
            gaps = (panel.coeffs[2] - pooled) ** 2
            k1 = brute_force_min_k(gaps, 4.5, 50, int(math.isqrt(50)))
            assert got == (k1, max(k1, k2))

    def test_f_requires_two_subjects(self):
        panel = CoefficientPanel(n=9, m=1, coeffs=[np.ones(8)])
        with pytest.raises(ValueError):
            lepskii_thresholds_f(subject_stats(panel, 0))

    def test_single_subject_matches_brute_force(self):
        rng = substream(14, 0)
        for trial in range(10):
            row = rng.normal(size=40)
            k = single_subject_threshold(SubjectStats(100, 7, row, np.zeros(40)))
            assert k == brute_force_min_k(row**2, 2.0, 700, 10)

    def test_single_subject_estimate_truncates(self):
        stats = SubjectStats(81, 1, [5.0, 4.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], None)
        est = single_subject_estimate(stats)
        np.testing.assert_allclose(est.coeffs, stats.own[: single_subject_threshold(stats)])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 60), st.sampled_from([2, 3, 257]), st.integers(0, 2),
           st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0), st.floats(0.1, 10.0))
    def test_stack_matches_rows(self, n, m, extra, seed, log_scale, tau):
        # a stack of all subjects selects what each subject's own row selects;
        # large scales leave no k below the bound, so the bound is chosen
        width = max(math.isqrt(n * m), math.isqrt(n)) + extra
        rng = substream(seed, 0)
        panel = CoefficientPanel(n=n, m=m,
                                 coeffs=10.0**log_scale * rng.standard_normal((m, width)))
        stack = SubjectStats(n, m, panel.coeffs, leave_one_out_means(panel))
        rows = [subject_stats(panel, j) for j in range(m)]
        np.testing.assert_array_equal(lepskii_threshold_g(stack, tau),
                                      [lepskii_threshold_g(r, tau) for r in rows])
        k1, k2 = lepskii_thresholds_f(stack, tau, 1.5 * tau)
        want = [lepskii_thresholds_f(r, tau, 1.5 * tau) for r in rows]
        assert all(type(k) is int for pair in want for k in pair)
        np.testing.assert_array_equal(k1, [w[0] for w in want])
        np.testing.assert_array_equal(k2, [w[1] for w in want])
        np.testing.assert_array_equal(single_subject_threshold(stack, tau),
                                      [single_subject_threshold(r, tau) for r in rows])


def conditioned_posterior_oracle(panel, spec, k):
    """Exact conditional means of (g_k, f_k^(1..m)) given column k of the panel,
    from the joint Gaussian of the hierarchical model (0-based k)."""
    n, m = panel.n, panel.m
    lam = spec.prior_spectrum.eigenvalue(k + 1)
    lamt = spec.deviation_spectrum.eigenvalue(k + 1)
    y = panel.coeffs[:, k]
    cov_y = lam * np.ones((m, m)) + (lamt + 1.0 / n) * np.eye(m)
    sol = np.linalg.solve(cov_y, y)
    g_mean = lam * np.ones(m) @ sol
    f_means = np.empty(m)
    for j in range(m):
        cross = lam * np.ones(m)
        cross[j] += lamt
        f_means[j] = cross @ sol
    return g_mean, f_means


class TestPosteriorMeans:
    @pytest.mark.parametrize("n,m", [(10, 2), (10, 4), (100, 3)])
    def test_matches_conditioning_oracle(self, n, m):
        rng = substream(20, n, m)
        spec = PosteriorSpec(Spectrum(0.7, scale=1.2), Spectrum(0.4, scale=0.8))
        cfg = ModelConfig(n, m, spec.prior_spectrum, spec.deviation_spectrum, k_max=6)
        g = sample_population(cfg, rng)
        _, panel = sample_panel(g, cfg, rng)
        est_g = posterior_mean_g(subject_stats(panel, 0), spec)
        est_f = [posterior_mean_f(subject_stats(panel, j), spec) for j in range(m)]
        for k in range(6):
            g_mean, f_means = conditioned_posterior_oracle(panel, spec, k)
            assert est_g.coeffs[k] == pytest.approx(g_mean, abs=1e-10)
            for j in range(m):
                assert est_f[j].coeffs[k] == pytest.approx(f_means[j], abs=1e-10)

    def test_single_subject_reduces_to_shrinkage(self):
        spec = PosteriorSpec(Spectrum(0.5), Spectrum(1.0))
        panel = CoefficientPanel(n=25, m=1, coeffs=[[2.0, -1.0, 0.5]])
        est = posterior_mean_f(subject_stats(panel, 0), spec)
        for k in range(3):
            lam = spec.prior_spectrum.eigenvalue(k + 1)
            lamt = spec.deviation_spectrum.eigenvalue(k + 1)
            shrink = 25 / (25 + 1.0 / (lam + lamt))
            assert est.coeffs[k] == pytest.approx(shrink * panel.coeffs[0, k])

    def test_g_shrinks_towards_zero(self):
        spec = PosteriorSpec(Spectrum(0.5), Spectrum(0.5))
        panel = CoefficientPanel(n=10, m=3, coeffs=np.ones((3, 5)))
        est = posterior_mean_g(subject_stats(panel, 0), spec)
        assert np.all(est.coeffs > 0)
        assert np.all(est.coeffs < 1)
        assert np.all(np.diff(est.coeffs) < 0)  # heavier shrinkage at high k


def brute_force_oracle(g, dev, n, m, search_max=4000):
    lamt = [dev.eigenvalue(k) for k in range(1, search_max + 1)]
    gsq = list(g.padded(search_max) ** 2)
    far_tail = dev.tail_sum(search_max)

    def bias(k):
        return sum(gsq[k:]) + sum(lamt[k:]) + far_tail

    k2 = next(k for k in range(1, search_max + 1) if bias(k) <= k / (n * m))
    for k in range(1, k2 + 1):
        var = k / n + sum(lamt[l] * (1 + 1 / m) + 1 / (n * m) for l in range(k, k2))
        if bias(k2) + var <= 2 * k / n:
            return k, k2
    return k2, k2


class TestOracleThresholds:
    @pytest.mark.parametrize("n,m", [(50, 4), (200, 20), (1000, 2)])
    def test_matches_brute_force(self, n, m):
        rng = substream(30, n, m)
        dev = Spectrum(0.5)
        cfg = ModelConfig(n, m, Spectrum(1.0), dev, k_max=40)
        g = sample_population(cfg, rng)
        assert oracle_thresholds(g, dev, n, m) == brute_force_oracle(g, dev, n, m)

    def test_ordering(self):
        g = FunctionSeries(np.array([1.0, 0.5, 0.25]))
        k1, k2 = oracle_thresholds(g, Spectrum(1.0), 400, 10)
        assert 1 <= k1 <= k2

    def test_more_subjects_never_shrink_k2(self):
        g = FunctionSeries(1.0 / np.arange(1, 30.0))
        _, k2_small = oracle_thresholds(g, Spectrum(0.5), 100, 2)
        _, k2_big = oracle_thresholds(g, Spectrum(0.5), 100, 50)
        assert k2_big >= k2_small
