import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twolevel.basis import (FunctionSeries, SobolevBall, Spectrum, fourier_matrix,
                            series_eval, sobolev_norm_sq, tail_energy)

from reference import fourier_eval


class TestSpectrum:
    def test_base_case(self):
        assert Spectrum(0.5).eigenvalue(1) == 1.0

    def test_arithmetic(self):
        assert Spectrum(0.5).eigenvalue(2) == pytest.approx(0.25)
        assert Spectrum(2.0).eigenvalue(3) == pytest.approx(3.0 ** -5)

    def test_strictly_decreasing(self):
        spec = Spectrum(0.3, scale=2.0)
        vals = spec.eigenvalues(200)
        assert np.all(np.diff(vals) < 0)
        assert np.all(vals > 0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            Spectrum(0.0)
        with pytest.raises(ValueError):
            Spectrum(1.0, scale=-1.0)
        with pytest.raises(ValueError):
            Spectrum(1.0).eigenvalue(0)

    def test_tail_sum_bounds_true_tail(self):
        spec = Spectrum(0.7, scale=1.3)
        true_tail = sum(spec.eigenvalue(k) for k in range(51, 200000))
        assert true_tail <= spec.tail_sum(50) <= true_tail * 1.05


class TestFourierBasis:
    def test_constant(self):
        assert fourier_eval(1, 0.37) == 1.0

    def test_cos_zero(self):
        assert fourier_eval(2, 0.25) == pytest.approx(0.0, abs=1e-15)

    def test_sin_quarter_period(self):
        assert fourier_eval(3, 0.25) == pytest.approx(np.sqrt(2))

    def test_matrix_matches_pointwise(self):
        grid = np.linspace(0, 1, 17)
        psi = fourier_matrix(grid, 9)
        for k in range(1, 10):
            np.testing.assert_allclose(psi[:, k - 1], fourier_eval(k, grid))

    @pytest.mark.parametrize("K", [3, 10, 50])
    def test_orthonormal_on_fine_grid(self, K):
        grid = (np.arange(10 * K) + 0.5) / (10 * K)
        psi = fourier_matrix(grid, K)
        gram = psi.T @ psi / grid.size
        np.testing.assert_allclose(gram, np.eye(K), atol=1e-8)


class TestFunctionSeries:
    def test_zero_series(self):
        z = FunctionSeries.zero()
        assert series_eval(z, 0.3) == 0.0
        assert len(z) == 0

    def test_single_cosine_at_origin(self):
        f = FunctionSeries([0.0, 1.0])
        assert series_eval(f, 0.0) == pytest.approx(np.sqrt(2))

    def test_matches_naive_summation(self):
        rng = np.random.default_rng(7)
        f = FunctionSeries(rng.normal(size=20))
        ts = rng.uniform(0, 1, size=100)
        naive = np.array([sum(f.coeffs[k - 1] * fourier_eval(k, t)
                              for k in range(1, 21)) for t in ts])
        np.testing.assert_allclose(series_eval(f, ts), naive, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=50), st.integers(0, 60))
    def test_parseval_and_tail_identity(self, coeffs, cut):
        f = FunctionSeries(np.array(coeffs))
        grid = (np.arange(10000) + 0.5) / 10000
        quad = np.mean(series_eval(f, grid) ** 2)
        total = sobolev_norm_sq(f, 0.0)
        assert quad == pytest.approx(total, rel=1e-6, abs=1e-9)
        assert tail_energy(f, 0) == pytest.approx(total)
        assert tail_energy(f, cut) <= total + 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            FunctionSeries([1.0, np.nan])

    def test_csv_round_trip(self):
        f = FunctionSeries([1.5, 0.0, -2.25])
        g = FunctionSeries.from_csv(f.to_csv())
        np.testing.assert_array_equal(f.coeffs, g.coeffs)


class TestSobolev:
    def test_zero(self):
        assert sobolev_norm_sq(FunctionSeries.zero(), 1.0) == 0.0

    def test_first_coefficient_only(self):
        assert sobolev_norm_sq(FunctionSeries([3.0]), 2.7) == pytest.approx(9.0)

    def test_two_terms(self):
        assert sobolev_norm_sq(FunctionSeries([1.0, 1.0]), 0.5) == pytest.approx(3.0)

    def test_tail_energy_examples(self):
        f = FunctionSeries([1.0, 2.0, 3.0])
        assert tail_energy(f, 1) == pytest.approx(13.0)
        assert tail_energy(f, 5) == 0.0

    def test_ball_membership(self):
        ball = SobolevBall(smoothness=1.0, radius=2.0)
        assert ball.contains(FunctionSeries([1.0]))
        assert not ball.contains(FunctionSeries([0.0, 2.0]))
