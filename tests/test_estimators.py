import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from twolevel import estimators
from twolevel.basis import FunctionSeries, Spectrum
from twolevel.estimators import (double_threshold_estimate_f,
                                 empirical_coefficients, leave_one_out_means,
                                 lepskii_min_k, lepskii_threshold_g,
                                 lepskii_thresholds_f, oracle_thresholds,
                                 posterior_mean_f, posterior_mean_g,
                                 single_subject_estimate, single_subject_threshold,
                                 threshold_estimate_g)
from twolevel.risk import single_subject_f
from twolevel.simulate import (CoefficientPanel, ModelConfig, SubjectStats,
                               sample_population, simulate_regression, substream)

from reference import (double_threshold_select, oracle_thresholds_full, pooled_coefficients,
                       sample_panel, subject_stats)


def brute_force_min_k(sq_terms, tau, denom, bound):
    """The selection rule checked pair by pair, quadratic time: k qualifies
    when the sum of terms k+1..l, taken as partial[l] - partial[k] of the
    running sums, is within tau*l/denom for every l in (k, bound].  Written
    as partial[l] - tau*l/denom <= partial[k], the kernel's form, so that
    exact ties round as in the kernel."""
    partial = np.cumsum(sq_terms[:bound])
    for k in range(1, bound + 1):
        if all(partial[l - 1] - tau * l / denom <= partial[k - 1]
               for l in range(k + 1, bound + 1)):
            return k
    return bound


def random_panel(rng, n, m, width):
    cfg = ModelConfig(n, m, Spectrum(0.5), Spectrum(0.5), k_max=width)
    g = sample_population(cfg, rng)
    return sample_panel(g, cfg, rng)[1]


class TestLepskiiCore:
    def test_all_zero_picks_one(self):
        assert lepskii_min_k(np.zeros(30)[None], 6.5, 100.0, 30)[0] == 1

    def test_single_spike(self):
        sq = np.zeros(30)
        sq[4] = 100.0  # k = 5 term; any k < 5 fails at l = 5
        assert lepskii_min_k(sq[None], 6.5, 100.0, 30)[0] == 5

    def test_bound_always_feasible(self):
        sq = np.full(10, 1e6)
        assert lepskii_min_k(sq[None], 1.0, 1e9, 10)[0] == 10

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0, 50), min_size=1, max_size=40),
           st.floats(0.1, 10), st.floats(1, 1e4))
    def test_matches_brute_force(self, sq, tau, denom):
        sq = np.array(sq)
        bound = sq.size
        assert lepskii_min_k(sq[None], tau, denom, bound)[0] == \
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

    @pytest.mark.parametrize("value,copies,denom,want", [
        (6.535987763743988, 11, 1.1, 2),
        (2.803935022697867, 27, 4.5, 22),
    ])
    def test_exact_ties(self, value, copies, denom, want):
        # equal terms, with tau equal to the term, put a sum level with its
        # bound (10 terms against 11/1.1 at k = 1, l = 11; 6 against 27/4.5
        # at k = 21, l = 27), where rounding decides
        sq = np.full(copies, value)
        assert lepskii_min_k(sq[None], value, denom, copies)[0] == want
        assert brute_force_min_k(sq, value, denom, copies) == want
        rows = np.vstack([sq, sq])
        assert lepskii_min_k(rows, value, denom, copies).tolist() == [want, want]

    @pytest.mark.parametrize("bound", [1, 3])
    @pytest.mark.parametrize("shape", [(5,), (1, 1, 5)], ids=["1-D", "3-D"])
    def test_takes_only_a_stack(self, shape, bound):
        # checked before the bound: at bound 1 a 1-D array would give one k per term
        with pytest.raises(ValueError, match=re.escape(f"(rows, K) stack, got shape {shape}")):
            lepskii_min_k(np.ones(shape), 6.5, 100.0, bound)


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
            np.testing.assert_array_equal(stats.own[0], panel.coeffs[j])
            np.testing.assert_array_equal(stats.donor_mean[0],
                                          pooled_coefficients(panel, exclude_subject=j))
            np.testing.assert_allclose(stats.pooled[0], pooled_coefficients(panel),
                                       rtol=1e-12, atol=1e-15)
        # a stack computes its pooled rows once, each as its own row would
        stack = SubjectStats(20, 6, panel.coeffs, leave_one_out_means(panel))
        assert stack.pooled is stack.pooled and not stack.pooled.flags.writeable
        for j in range(6):
            np.testing.assert_array_equal(stack.pooled[j], subject_stats(panel, j).pooled[0])
        with pytest.raises(ValueError, match="at least 2 subjects"):
            subject_stats(CoefficientPanel(n=4, m=1, coeffs=[[1.0, 2.0]]), 0)
        with pytest.raises(IndexError):
            subject_stats(panel, 6)

    @staticmethod
    def assert_loo_matches_reference(panel):
        loo = leave_one_out_means(panel)
        assert loo.shape == panel.coeffs.shape and not loo.flags.writeable
        for j in range(panel.m):
            want = pooled_coefficients(panel, exclude_subject=j)
            np.testing.assert_array_equal(loo[j], want)
            np.testing.assert_array_equal(np.signbit(loo[j]), np.signbit(want))

    @pytest.mark.parametrize("m", [2, 3, 20, 257])
    def test_leave_one_out_means_match_reference(self, m):
        self.assert_loo_matches_reference(random_panel(substream(16, m), n=20, m=m, width=24))

    @pytest.mark.parametrize("m", [9, 20, 257])
    @pytest.mark.parametrize("width", [1, 2])
    def test_leave_one_out_means_of_narrow_panels(self, width, m):
        # numpy sums a single column pairwise, and wider panels row after row
        self.assert_loo_matches_reference(random_panel(substream(17, m), n=20, m=m, width=width))

    def test_leave_one_out_means_keep_the_sign_of_zero(self):
        # the axis-0 mean of a column of -0.0 is +0.0; a mean built by adding
        # rows onto the first one keeps -0.0
        coeffs = np.array([[1.0, -0.0, 2.0], [-3.0, -0.0, 0.5], [0.25, -0.0, -1.0],
                           [2.0, -0.0, 0.0], [-1.5, -0.0, 4.0]])
        self.assert_loo_matches_reference(CoefficientPanel(n=4, m=5, coeffs=coeffs))

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
        np.testing.assert_allclose(est[0], [2.0, 3.0, 0.0])

    def test_g_zero_threshold(self):
        panel = CoefficientPanel(n=9, m=2, coeffs=[[1.0], [3.0]])
        assert not threshold_estimate_g(subject_stats(panel, 0), 0)[0].any()

    def test_double_threshold_structure(self):
        panel = CoefficientPanel(n=9, m=3,
                                 coeffs=[[1.0, 2.0, 3.0, 4.0],
                                         [5.0, 6.0, 7.0, 8.0],
                                         [9.0, 10.0, 11.0, 12.0]])
        est = double_threshold_estimate_f(subject_stats(panel, 1), k1=2, k2=3)
        # own coefficients up to k1, pooled-without-self on (k1, k2]
        np.testing.assert_allclose(est[0], [5.0, 6.0, 7.0, 0.0])
        est0 = double_threshold_estimate_f(subject_stats(panel, 0), k1=1, k2=4)
        np.testing.assert_allclose(est0[0], [1.0, 8.0, 9.0, 10.0])

    def test_double_threshold_validates(self):
        panel = CoefficientPanel(n=9, m=2, coeffs=[[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError):
            double_threshold_estimate_f(subject_stats(panel, 0), k1=2, k2=1)
        with pytest.raises(ValueError):
            double_threshold_estimate_f(subject_stats(panel, 0), k1=1, k2=3)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 12), st.integers(0, 2**32 - 1),
           st.sampled_from(["random", "k1 = k2", "k2 = width", "k1 = k2 = width"]))
    def test_double_threshold_matches_select_form(self, rows, width, seed, case):
        # the two nested np.where build every stack and row as one np.select
        rng = substream(seed, 0)
        own, donor_mean = rng.standard_normal((2, rows, width))
        k2 = np.full(rows, width) if "k2 = width" in case else rng.integers(0, width + 1, rows)
        k1 = k2 if "k1 = k2" in case else rng.integers(0, k2 + 1)
        stack = SubjectStats(9, 3, own, donor_mean)
        assert np.array_equal(double_threshold_estimate_f(stack, k1, k2),
                              double_threshold_select(stack, k1, k2))
        # one pair of int thresholds for the whole stack, as the fixed rule passes
        assert np.array_equal(double_threshold_estimate_f(stack, int(k1[0]), int(k2[0])),
                              double_threshold_select(stack, int(k1[0]), int(k2[0])))
        for r in range(rows):
            row = SubjectStats(9, 3, own[r][None], donor_mean[r][None])
            fit = double_threshold_estimate_f(row, int(k1[r]), int(k2[r]))
            want = double_threshold_select(row, int(k1[r]), int(k2[r]))
            assert np.array_equal(fit[0, :k2[r]], want[0, :k2[r]])
            assert np.array_equal(fit[0], want[0])


class TestLepskiiSelectors:
    def test_g_matches_brute_force(self):
        rng = substream(12, 0)
        for trial in range(10):
            panel = random_panel(rng, n=40, m=6, width=64)
            k = lepskii_threshold_g(subject_stats(panel, 0), tau=6.5)
            pooled_sq = pooled_coefficients(panel) ** 2
            bound = int(math.isqrt(40 * 6))
            assert int(k[0]) == brute_force_min_k(pooled_sq, 6.5, 40 * 6, bound)

    def test_f_matches_brute_force(self):
        rng = substream(13, 0)
        for trial in range(10):
            panel = random_panel(rng, n=50, m=5, width=64)
            got = tuple(int(k[0]) for k in lepskii_thresholds_f(subject_stats(panel, 2)))
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
            k = single_subject_threshold(SubjectStats(100, 7, row[None], np.zeros(40)[None]))
            assert int(k[0]) == brute_force_min_k(row**2, 2.0, 700, 10)

    @pytest.mark.parametrize("tau", [0.0, -1.0, float("nan")])
    def test_single_subject_rejects_nonpositive_tau(self, tau):
        stats = SubjectStats(100, 7, np.ones(40)[None], np.zeros(40)[None])
        with pytest.raises(ValueError, match="tau must be positive"):
            single_subject_threshold(stats, tau)
        with pytest.raises(ValueError, match="tau must be positive"):
            single_subject_f(tau).fit(stats)

    @pytest.mark.parametrize("tau", [0.0, -1.0, float("nan")])
    def test_pooled_rules_reject_nonpositive_tau(self, tau):
        # the g rule's tau and each of the f rule's two taus, checked by the
        # kernel all three selectors call
        stats = SubjectStats(100, 7, np.ones((2, 40)), np.zeros((2, 40)))
        for select in (lambda: lepskii_threshold_g(stats, tau),
                       lambda: lepskii_thresholds_f(stats, tau, 6.5),
                       lambda: lepskii_thresholds_f(stats, 4.5, tau)):
            with pytest.raises(ValueError, match="tau must be positive"):
                select()

    def test_single_subject_estimate_truncates(self):
        # the baseline reads its own row alone, so the donor row is zero
        stats = SubjectStats(81, 2, np.array([5.0, 4.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])[None],
                             np.zeros((1, 9)))
        k = int(single_subject_threshold(stats)[0])
        est = single_subject_estimate(stats, k)
        np.testing.assert_allclose(est[0, :k], stats.own[0, :k])
        assert not est[0, k:].any()

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
                                      [int(lepskii_threshold_g(r, tau)[0]) for r in rows])
        k1, k2 = lepskii_thresholds_f(stack, tau, 1.5 * tau)
        want = [tuple(int(k[0]) for k in lepskii_thresholds_f(r, tau, 1.5 * tau)) for r in rows]
        np.testing.assert_array_equal(k1, [w[0] for w in want])
        np.testing.assert_array_equal(k2, [w[1] for w in want])
        np.testing.assert_array_equal(single_subject_threshold(stack, tau),
                                      [int(single_subject_threshold(r, tau)[0]) for r in rows])
        # a stack's estimates are the rows' estimates
        k = lepskii_threshold_g(stack, tau)
        fits = [(threshold_estimate_g(stack, k), [threshold_estimate_g(r, kr)[0]
                                                  for r, kr in zip(rows, k)]),
                (double_threshold_estimate_f(stack, k1, k2),
                 [double_threshold_estimate_f(r, *w)[0] for r, w in zip(rows, want)]),
                (single_subject_estimate(stack, single_subject_threshold(stack, tau)),
                 [single_subject_estimate(r, single_subject_threshold(r, tau))[0] for r in rows])]
        for got, series in fits:
            assert got.shape == (m, width)
            np.testing.assert_array_equal(got, series)


def conditioned_posterior_oracle(panel, prior, deviation, k):
    """Exact conditional means of (g_k, f_k^(1..m)) given column k of the panel,
    from the joint Gaussian of the hierarchical model (0-based k)."""
    n, m = panel.n, panel.m
    lam = prior.eigenvalue(k + 1)
    lamt = deviation.eigenvalue(k + 1)
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
        prior, deviation = Spectrum(0.7, scale=1.2), Spectrum(0.4, scale=0.8)
        cfg = ModelConfig(n, m, prior, deviation, k_max=6)
        g = sample_population(cfg, rng)
        _, panel = sample_panel(g, cfg, rng)
        est_g = posterior_mean_g(subject_stats(panel, 0), prior, deviation)
        est_f = [posterior_mean_f(subject_stats(panel, j), prior, deviation)
                 for j in range(m)]
        for k in range(6):
            g_mean, f_means = conditioned_posterior_oracle(panel, prior, deviation, k)
            assert est_g[0, k] == pytest.approx(g_mean, abs=1e-10)
            for j in range(m):
                assert est_f[j][0, k] == pytest.approx(f_means[j], abs=1e-10)

    def test_g_shrinks_towards_zero(self):
        panel = CoefficientPanel(n=10, m=3, coeffs=np.ones((3, 5)))
        est = posterior_mean_g(subject_stats(panel, 0), Spectrum(0.5), Spectrum(0.5))
        assert np.all(est[0] > 0)
        assert np.all(est[0] < 1)
        assert np.all(np.diff(est[0]) < 0)  # heavier shrinkage at high k


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

    @pytest.mark.parametrize("chunk", [1, 7, 64, estimators.ORACLE_CHUNK])
    def test_chunked_scan_matches_full_arrays(self, monkeypatch, chunk):
        # the same (k1*, k2*), or the same error, as one full-length cumsum
        monkeypatch.setattr(estimators, "ORACLE_CHUNK", chunk)
        rng = np.random.default_rng(27)
        for n, m, alpha, alpha_tilde, length in [
                (50, 4, 1.0, 0.5, 40), (3, 2, 0.3, 0.2, 2000), (1, 1, 2.5, 1.5, 1),
                (400, 20, 0.5, 1.5, 40), (7, 3, 1.0, 0.5, 500), (200, 2, 2.5, 0.2, 1)]:
            g = FunctionSeries(rng.standard_normal(length)
                               * np.arange(1.0, length + 1) ** (-0.5 - alpha))
            dev = Spectrum(alpha_tilde)
            for search_max in (None, 16, max(length, n * m) + 5):
                try:
                    want = oracle_thresholds_full(g, dev, n, m, search_max)
                except ValueError as err:
                    want = str(err)
                try:
                    got = oracle_thresholds(g, dev, n, m, search_max)
                except ValueError as err:
                    got = str(err)
                assert got == want, (n, m, alpha, alpha_tilde, length, search_max)

    def test_memory_bounded_in_n_m(self):
        # full arrays of n m = 2e6 terms peaked at 93.5 MiB
        g = FunctionSeries(1.0 / np.arange(1, 100.0) ** 1.5)
        tracemalloc.start()
        try:
            got = oracle_thresholds(g, Spectrum(0.5), 2000, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == oracle_thresholds_full(g, Spectrum(0.5), 2000, 1000)
        assert peak < 93.5 * 2**20 / 10
