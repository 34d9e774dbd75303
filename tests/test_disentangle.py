"""Tests for the disentanglement encoder, classifier, and supervision losses.

Loss values are pinned by hand evaluation: the uniform classifier makes
every cross-entropy term ln 2, and the zero-logit classifier makes the KL
terms vanish exactly.
"""

import math

import numpy as np
import pytest

from dualrec import autodiff as ad
from dualrec import disentangle as dis
from dualrec.autodiff import Value
from dualrec.optim import Adam


def zero_weights(in_width, k):
    """Zero encoder weights named ``enc.*``."""
    weights = {"enc.w0": Value(np.zeros((in_width, 2 * k))), "enc.b0": Value(np.zeros((1, 2 * k)))}
    for head in ("h1", "h2"):
        weights[f"enc.{head}.w_mu"] = Value(np.zeros((2 * k, k)))
        weights[f"enc.{head}.b_mu"] = Value(np.zeros((1, k)))
        weights[f"enc.{head}.w_sigma"] = Value(np.zeros((2 * k, k)))
        weights[f"enc.{head}.b_sigma"] = Value(np.zeros((1, k)))
    return weights


def classifier(w, b):
    """A domain classifier named ``clf``."""
    return {"clf.w": Value(w), "clf.b": Value(b)}


def zero_classifier(k):
    return classifier(np.zeros((k, 2)), np.zeros((1, 2)))


class TestEncode:
    def test_zero_weights_deterministic_output_is_zero(self):
        weights = zero_weights(6, 3)
        out = dis.encode(Value(np.ones((4, 6))), weights, "enc")
        np.testing.assert_array_equal(out.z1.data, np.zeros((4, 3)))
        np.testing.assert_array_equal(out.z2.data, np.zeros((4, 3)))

    def test_zero_weights_stochastic_output_is_standard_normal_draw(self):
        # mu = 0, log_sigma = 0, so z equals the noise draw exactly
        weights = zero_weights(6, 3)
        out = dis.encode(Value(np.ones((4, 6))), weights, "enc", rng=np.random.default_rng(42))
        expected = np.random.default_rng(42).standard_normal((4, 3))
        np.testing.assert_array_equal(out.z1.data, expected)

    def test_deterministic_path_repeatable(self):
        rng = np.random.default_rng(0)
        weights = ad.Params(rng, 0.01)
        dis.init_disentangle_weights(weights, "enc", 6, 3)
        e = Value(rng.standard_normal((4, 6)))
        o1 = dis.encode(e, weights, "enc")
        o2 = dis.encode(e, weights, "enc")
        assert np.array_equal(o1.z1.data, o2.z1.data)
        assert np.array_equal(o1.z2.data, o2.z2.data)

    def test_noise_free_pass_forms_no_log_sigma(self):
        weights = zero_weights(6, 3)
        out = dis.encode(Value(np.ones((4, 6))), weights, "enc")
        assert out.log_sigma1 is None and out.log_sigma2 is None
        assert out.z1 is out.mu1 and out.z2 is out.mu2

    def test_monte_carlo_mean_matches_mu(self):
        rng = np.random.default_rng(1)
        weights = ad.Params(rng, 0.5)
        dis.init_disentangle_weights(weights, "enc", 4, 2)
        e = Value(rng.standard_normal((1, 4)))
        det = dis.encode(e, weights, "enc", rng=np.random.default_rng(0))
        draws = 10_000
        noise_rng = np.random.default_rng(2)
        acc = np.zeros((1, 2))
        for _ in range(draws):
            acc += dis.encode(e, weights, "enc", rng=noise_rng).z1.data
        sigma = np.exp(det.log_sigma1.data)
        err = np.abs(acc / draws - det.mu1.data)
        assert (err < 3 * sigma / math.sqrt(draws) + 1e-12).all()

    def test_log_sigma_clamped(self):
        weights = zero_weights(4, 2)
        weights["enc.b0"].data[:] = 0.0
        weights["enc.h1.b_sigma"].data[:] = 50.0
        out = dis.encode(Value(np.zeros((2, 4))), weights, "enc", rng=np.random.default_rng(0))
        assert (out.log_sigma1.data == ad.LOG_SIGMA_BOUND).all()


class TestClassifyDomain:
    def test_zero_weights_uniform(self):
        p = dis.classify_domain(Value(np.ones((3, 4))), zero_classifier(4), "clf")
        np.testing.assert_array_equal(p.data, np.full((3, 2), 0.5))

    def test_bias_saturation(self):
        clf = classifier(np.zeros((4, 2)), np.array([[10.0, -10.0]]))
        p = dis.classify_domain(Value(np.zeros((2, 4))), clf, "clf")
        np.testing.assert_allclose(p.data[:, 0], 1.0, atol=1e-8)

    def test_matches_affine_softmax_oracle(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((5, 4))
        w = rng.standard_normal((4, 2))
        b = rng.standard_normal((1, 2))
        p = dis.classify_domain(Value(z), classifier(w, b), "clf")
        logits = z @ w + b
        exp = np.exp(logits - logits.max(axis=1, keepdims=True))
        np.testing.assert_allclose(p.data, exp / exp.sum(axis=1, keepdims=True), atol=1e-12)


class TestLossCls1:
    def test_uniform_classifier_gives_ln2(self):
        z = Value(np.zeros((4, 3)))
        loss = dis.loss_cls1(z, z, z, lam=0.7, params=zero_classifier(3), name="clf")
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_hand_value_for_perfect_classifier(self):
        # codes are +/- e1 scaled so the classifier saturates; the augmented
        # code sits at zero where the classifier is exactly uniform
        c = 40.0
        clf = classifier(np.array([[c, 0.0], [0.0, c]]), np.zeros((1, 2)))
        z_a = Value(np.tile([1.0, 0.0], (3, 1)))
        z_b = Value(np.tile([0.0, 1.0], (3, 1)))
        z_aug = Value(np.zeros((3, 2)))
        loss = dis.loss_cls1(z_a, z_b, z_aug, lam=0.5, params=clf, name="clf")
        assert loss.item() == pytest.approx(math.log(2.0) / 3.0, abs=1e-6)
        assert loss.item() == pytest.approx(0.2310, abs=1e-3)

    def test_lambda_one_collapses_to_domain_a_label(self):
        rng = np.random.default_rng(4)
        clf = classifier(rng.standard_normal((3, 2)), rng.standard_normal((1, 2)))
        z = [Value(rng.standard_normal((4, 3))) for _ in range(3)]
        full = dis.loss_cls1(*z, lam=1.0, params=clf, name="clf").item()
        p_a, p_b, p_aug = (dis.classify_domain(code, clf, "clf") for code in z)
        manual = (
            ad.cross_entropy(p_a, np.tile([1.0, 0.0], (4, 1))).item()
            + ad.cross_entropy(p_b, np.tile([0.0, 1.0], (4, 1))).item()
            + ad.cross_entropy(p_aug, np.tile([1.0, 0.0], (4, 1))).item()
        ) / 3.0
        assert full == pytest.approx(manual, abs=1e-12)

    def test_lambda_out_of_range(self):
        z = Value(np.zeros((2, 3)))
        with pytest.raises(ad.ContractError, match=r"lambda must lie in \[0, 1\]"):
            dis.loss_cls1(z, z, z, lam=1.5, params=zero_classifier(3), name="clf")


class TestLossCls2:
    def test_uniform_classifier_gives_zero(self):
        z = Value(np.zeros((5, 3)))
        loss = dis.loss_cls2(z, z, z, params=zero_classifier(3), name="clf")
        assert loss.item() == 0.0

    def test_quarter_three_quarter_hand_value(self):
        # zero codes + bias [0, ln 3] make every classifier row [0.25, 0.75]
        clf = classifier(np.zeros((3, 2)), np.array([[0.0, math.log(3.0)]]))
        z = Value(np.zeros((4, 3)))
        loss = dis.loss_cls2(z, z, z, params=clf, name="clf")
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert loss.item() == pytest.approx(expected, abs=1e-12)
        assert loss.item() == pytest.approx(0.14384, abs=1e-5)

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            clf = classifier(rng.standard_normal((3, 2)), rng.standard_normal((1, 2)))
            zs = [Value(rng.standard_normal((4, 3))) for _ in range(3)]
            assert dis.loss_cls2(*zs, params=clf, name="clf").item() >= -1e-12


class TestGradients:
    def test_both_losses_pass_finite_diff(self):
        rng = np.random.default_rng(6)
        in_width, k, m = 5, 3, 4
        inputs = [rng.standard_normal((m, in_width)) for _ in range(3)]

        params = ad.Params(rng, 0.3)
        for i in range(3):
            dis.init_disentangle_weights(params, f"enc{i}", in_width, k)
        dis.init_domain_classifier(params, "clf", k)

        def fn(_):
            outs = [dis.encode(Value(inp), params, f"enc{i}") for i, inp in enumerate(inputs)]
            l1 = dis.loss_cls1(outs[0].z2, outs[1].z2, outs[2].z2, 0.6, params, "clf")
            l2 = dis.loss_cls2(outs[0].z1, outs[1].z1, outs[2].z1, params, "clf")
            return ad.add(l1, l2)

        assert ad.finite_diff_check(fn, list(params.values())) < 1e-4

    def test_classifier_learns_separable_codes(self):
        # frozen, linearly separable codes; only the classifier trains
        rng = np.random.default_rng(7)
        k, m = 4, 30
        z_a = Value(rng.standard_normal((m, k)) + 1.2)
        z_b = Value(rng.standard_normal((m, k)) - 1.2)
        z_aug = Value(0.5 * (z_a.data + z_b.data))
        clf = ad.Params(rng, 0.01)
        dis.init_domain_classifier(clf, "clf", k)
        opt = Adam(clf, lr=0.05)
        for _ in range(200):
            opt.zero_grad()
            loss = dis.loss_cls1(z_a, z_b, z_aug, 0.5, clf, "clf")
            ad.backward(loss)
            opt.step()
        pred_a = dis.classify_domain(z_a, clf, "clf").data.argmax(axis=1)
        pred_b = dis.classify_domain(z_b, clf, "clf").data.argmax(axis=1)
        accuracy = ((pred_a == 0).sum() + (pred_b == 1).sum()) / (2 * m)
        assert accuracy > 0.95
