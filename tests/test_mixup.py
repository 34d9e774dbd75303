"""Tests for the Beta sampler and embedding interpolation."""

import numpy as np
import pytest
from scipy.special import betainc

from dualrec import autodiff as ad
from dualrec.autodiff import Value
from dualrec.config import RunConfig
from dualrec.mixup import interpolate, sample_lambda


class TestSampleLambda:
    """The moments of 1e5 draws per alpha are ``selfcheck.check_mixing_moments``;
    here the whole distribution of the draws is checked."""

    def draws(self, alpha, n, seed=0):
        rng = np.random.default_rng(seed)
        return np.array([sample_lambda(alpha, rng) for _ in range(n)])

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 5.0])
    def test_draws_follow_the_beta_cdf(self, alpha):
        # Kolmogorov-Smirnov distance to the Beta(alpha, alpha) CDF, below
        # its 0.1% critical value 1.95 / sqrt(n)
        xs = np.sort(self.draws(alpha, 20_000))
        n = xs.size
        cdf = betainc(alpha, alpha, xs)
        distance = max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max())
        assert distance < 1.95 / np.sqrt(n)

    def test_range(self):
        xs = self.draws(0.5, 2000, seed=5)
        assert ((xs >= 0) & (xs <= 1)).all()

    def test_deterministic_sequence(self):
        assert self.draws(1.0, 50, seed=9).tolist() == self.draws(1.0, 50, seed=9).tolist()

    def test_draws_that_both_underflow_give_one_half(self):
        # a valid alpha this small draws 0 from both Gammas, whose ratio is undefined
        RunConfig(mixup_alpha=1e-300).validate()
        assert sample_lambda(1e-300, np.random.default_rng(0)) == 0.5

    def test_invalid_alpha(self):
        with pytest.raises(ad.ContractError, match="alpha must be positive"):
            sample_lambda(0.0, np.random.default_rng(0))
        with pytest.raises(ad.ContractError, match="alpha must be positive"):
            sample_lambda(-1.0, np.random.default_rng(0))


class TestInterpolate:
    def setup_method(self):
        rng = np.random.default_rng(3)
        self.a = rng.standard_normal((4, 5))
        self.b = rng.standard_normal((4, 5))

    def test_endpoint_one_bit_exact(self):
        out = interpolate(Value(self.a), Value(self.b), 1.0)
        assert np.array_equal(out.data, self.a)

    def test_endpoint_zero_bit_exact(self):
        out = interpolate(Value(self.a), Value(self.b), 0.0)
        assert np.array_equal(out.data, self.b)

    def test_opposites_cancel(self):
        out = interpolate(Value(self.a), Value(-self.a), 0.5)
        np.testing.assert_array_equal(out.data, np.zeros_like(self.a))

    def test_convexity(self):
        out = interpolate(Value(self.a), Value(self.b), 0.37).data
        lo = np.minimum(self.a, self.b)
        hi = np.maximum(self.a, self.b)
        assert ((out >= lo - 1e-15) & (out <= hi + 1e-15)).all()

    def test_linearity_in_scale(self):
        lam = 0.42
        scaled = interpolate(Value(2.5 * self.a), Value(2.5 * self.b), lam).data
        base = interpolate(Value(self.a), Value(self.b), lam).data
        np.testing.assert_allclose(scaled, 2.5 * base, atol=1e-12)

    def test_gradient_coefficients(self):
        lam = 0.3
        va, vb = Value(self.a), Value(self.b)
        out = interpolate(va, vb, lam)
        ad.backward(ad.mul_const(ad.mean_all(out), out.data.size))
        np.testing.assert_allclose(va.grad, np.full_like(self.a, lam), atol=1e-12)
        np.testing.assert_allclose(vb.grad, np.full_like(self.b, 1 - lam), atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ad.ContractError, match=r"mixup shapes differ: \(2, 3\) vs \(3, 2\)"):
            interpolate(Value(np.ones((2, 3))), Value(np.ones((3, 2))), 0.5)
