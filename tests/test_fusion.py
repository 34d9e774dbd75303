"""Tests for fusion strategies, towers, cosine prediction, and loss."""

import math

import numpy as np
import pytest

from dualrec import autodiff as ad
from dualrec import fusion as fu
from dualrec.autodiff import Value
from dualrec.config import ConfigError


def rand_codes(rng, m=4, k=3, count=3):
    return [Value(rng.standard_normal((m, k))) for _ in range(count)]


class TestFuse:
    def test_sum_with_two_zero_codes(self):
        rng = np.random.default_rng(0)
        z_spe = Value(rng.standard_normal((4, 3)))
        zero = Value(np.zeros((4, 3)))
        out = fu.fuse([z_spe, zero, zero], "sum")
        np.testing.assert_array_equal(out.data, z_spe.data)

    def test_concat_width(self):
        rng = np.random.default_rng(1)
        out = fu.fuse(rand_codes(rng), "concat")
        assert out.shape == (4, 9)

    def test_attention_uniform_at_zero_weights(self):
        rng = np.random.default_rng(2)
        codes = rand_codes(rng)
        weights = {f"fus.c{idx}": Value(np.zeros((3, 3))) for idx in range(3)}
        weights["fus.ws"] = Value(np.zeros((3, 3)))
        attn = fu.attention_weights(codes, weights, "fus")
        np.testing.assert_allclose(attn.data, np.full((4, 3), 1 / 3), atol=1e-15)
        out = fu.fuse(codes, "attention", weights, "fus")
        mean = (codes[0].data + codes[1].data + codes[2].data) / 3
        np.testing.assert_allclose(out.data, mean, atol=1e-12)

    def test_attention_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        codes = rand_codes(rng)
        weights = ad.Params(rng, 0.5)
        fu.init_fusion_weights(weights, "fus", 3, 3)
        attn = fu.attention_weights(codes, weights, "fus")
        assert (attn.data >= 0).all()
        np.testing.assert_allclose(attn.data.sum(axis=1), 1.0, atol=1e-12)

    def test_attention_output_is_convex_combination(self):
        rng = np.random.default_rng(4)
        codes = rand_codes(rng)
        weights = ad.Params(rng, 0.5)
        fu.init_fusion_weights(weights, "fus", 3, 3)
        out = fu.fuse(codes, "attention", weights, "fus").data
        stacked = np.stack([c.data for c in codes])
        lo, hi = stacked.min(axis=0), stacked.max(axis=0)
        assert ((out >= lo - 1e-12) & (out <= hi + 1e-12)).all()

    def test_two_component_attention(self):
        rng = np.random.default_rng(5)
        codes = rand_codes(rng, count=2)
        weights = ad.Params(rng, 0.01)
        fu.init_fusion_weights(weights, "fus", 3, 2)
        attn = fu.attention_weights(codes, weights, "fus")
        assert attn.shape == (4, 2)
        np.testing.assert_allclose(attn.data.sum(axis=1), 1.0, atol=1e-12)

    def test_attention_code_count_is_checked_against_ws(self):
        rng = np.random.default_rng(15)
        weights = ad.Params(rng, 0.1)
        fu.init_fusion_weights(weights, "fus", 3, 3)
        with pytest.raises(ad.ContractError, match="2 codes for 3"):
            fu.fuse(rand_codes(rng, count=2), "attention", weights, "fus")

    def test_attention_without_fusion_weights(self):
        rng = np.random.default_rng(16)
        codes = rand_codes(rng)
        weights = ad.Params(rng, 0.1)
        fu.init_fusion_weights(weights, "fus_a", 3, 3)
        with pytest.raises(ConfigError, match="requires fusion weights"):
            fu.fuse(codes, "attention")
        with pytest.raises(ConfigError, match="requires fusion weights"):
            fu.fuse(codes, "attention", weights, "fus_b")

    def test_sum_scaling_equivariance(self):
        rng = np.random.default_rng(6)
        codes = rand_codes(rng)
        base = fu.fuse(codes, "sum").data
        scaled = fu.fuse([Value(3.0 * c.data) for c in codes], "sum").data
        np.testing.assert_allclose(scaled, 3.0 * base, atol=1e-12)

    def test_unknown_strategy(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ConfigError):
            fu.fuse(rand_codes(rng), "gating")
        with pytest.raises(ConfigError):
            fu.fused_width("gating", 3, 3)

    def test_fused_width(self):
        assert fu.fused_width("concat", 4, 3) == 12
        assert fu.fused_width("sum", 4, 3) == 4
        assert fu.fused_width("attention", 4, 2) == 4


class TestTowers:
    def test_zero_weights_zero_output(self):
        rng = np.random.default_rng(8)
        tower = {"tow.0": Value(np.zeros((3, 6))), "tow.1": Value(np.zeros((6, 3)))}
        out = fu.tower_forward(Value(rng.standard_normal((4, 3))), tower, "tow")
        np.testing.assert_array_equal(out.data, np.zeros((4, 3)))

    def test_identity_single_stage(self, monkeypatch):
        # the forward reads its stage count from TOWER_STAGES
        monkeypatch.setattr(fu, "TOWER_STAGES", (1,))
        x = np.array([[1.0, -2.0]])
        tower = {"tow.0": Value(np.eye(2))}
        out = fu.tower_forward(Value(x), tower, "tow")
        np.testing.assert_array_equal(out.data, [[1.0, -0.02]])

    def test_matches_composition_oracle(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((5, 4))
        w1 = rng.standard_normal((4, 8))
        w2 = rng.standard_normal((8, 4))
        tower = {"tow.0": Value(w1), "tow.1": Value(w2)}
        out = fu.tower_forward(Value(x), tower, "tow")

        def leaky(v):
            return np.where(v > 0, v, 0.01 * v)

        np.testing.assert_allclose(out.data, leaky(leaky(x @ w1) @ w2), atol=1e-12)

    def test_init_widths(self):
        rng = np.random.default_rng(10)
        tower = ad.Params(rng, 0.01)
        fu.init_tower_weights(tower, "tow", 12, 4)
        assert {name: w.shape for name, w in tower.items()} == {"tow.0": (12, 8), "tow.1": (8, 4)}

    def test_init_and_forward_follow_tower_stages(self, monkeypatch):
        monkeypatch.setattr(fu, "TOWER_STAGES", (3, 2, 1))
        rng = np.random.default_rng(17)
        tower = ad.Params(rng, 0.1)
        fu.init_tower_weights(tower, "tow", 5, 2)
        assert [w.shape for w in tower.values()] == [(5, 6), (6, 4), (4, 2)]
        assert fu.tower_forward(Value(np.ones((3, 5))), tower, "tow").shape == (3, 2)


class TestPredict:
    def test_identical_rows_score_one(self):
        rng = np.random.default_rng(11)
        s = rng.standard_normal((3, 4))
        out = fu.predict(Value(s), Value(s.copy()))
        np.testing.assert_allclose(out.data, np.ones((3, 1)), atol=1e-12)

    def test_orthogonal_rows_score_zero(self):
        s = Value([[1.0, 0.0]])
        t = Value([[0.0, 1.0]])
        np.testing.assert_allclose(fu.predict(s, t).data, [[0.0]], atol=1e-15)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(12)
        s = rng.standard_normal((6, 5))
        t = rng.standard_normal((6, 5))
        out = fu.predict(Value(s), Value(t)).data
        for i in range(6):
            expected = s[i] @ t[i] / (np.linalg.norm(s[i]) * np.linalg.norm(t[i]))
            assert abs(out[i, 0] - expected) < 1e-12

    def test_antisymmetric_in_one_argument(self):
        rng = np.random.default_rng(13)
        s = rng.standard_normal((4, 3))
        t = rng.standard_normal((4, 3))
        pos = fu.predict(Value(s), Value(t)).data
        neg = fu.predict(Value(-s), Value(t)).data
        np.testing.assert_allclose(neg, -pos, atol=1e-15)


class TestLossPrd:
    def test_perfect_positive_score(self):
        y_hat = Value(np.ones((1, 1)))
        s = Value([[1.0, 0.0]])
        loss = fu.loss_prd(y_hat, [1.0], s, s, gamma=0.0)
        assert loss.item() == pytest.approx(0.0, abs=1e-10)

    def test_zero_cosine_gives_ln2(self):
        y_hat = Value(np.zeros((2, 1)))
        s = Value(np.ones((2, 2)))
        loss = fu.loss_prd(y_hat, [1.0, 0.0], s, s, gamma=0.0)
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_regularizer_hand_value(self):
        y_hat = Value(np.zeros((1, 1)))
        s = Value([[1.0, 0.0]])
        t = Value([[1.0, 0.0]])
        with_reg = fu.loss_prd(y_hat, [1.0], s, t, gamma=0.001).item()
        without = fu.loss_prd(y_hat, [1.0], s, t, gamma=0.0).item()
        assert with_reg - without == pytest.approx(0.002, abs=1e-15)

    def test_regularizer_batch_size_invariant(self):
        # duplicating every pair leaves the loss unchanged
        rng = np.random.default_rng(14)
        s = rng.standard_normal((3, 4))
        t = rng.standard_normal((3, 4))
        y = fu.predict(Value(s), Value(t))
        labels = [1.0, 0.0, 1.0]
        single = fu.loss_prd(y, labels, Value(s), Value(t), gamma=0.01).item()
        y2 = fu.predict(Value(np.tile(s, (2, 1))), Value(np.tile(t, (2, 1))))
        double = fu.loss_prd(
            y2, labels * 2, Value(np.tile(s, (2, 1))), Value(np.tile(t, (2, 1))), gamma=0.01
        ).item()
        assert single == pytest.approx(double, abs=1e-12)

    def test_label_count_mismatch(self):
        y_hat = Value(np.zeros((2, 1)))
        s = Value(np.ones((2, 2)))
        with pytest.raises(ad.ContractError, match="1 labels for 2 predictions"):
            fu.loss_prd(y_hat, [1.0], s, s, gamma=0.0)

    def test_end_to_end_finite_diff(self):
        rng = np.random.default_rng(0)
        m, k = 4, 3
        item_width = 6
        item_emb = rng.standard_normal((m, item_width))
        labels = np.array([1.0, 0.0, 1.0, 0.0])

        codes = [Value(rng.standard_normal((m, k))) for _ in range(3)]
        params = ad.Params(rng, 0.3)
        fu.init_fusion_weights(params, "fus", k, 3)
        fu.init_tower_weights(params, "tow.user", k, k)
        fu.init_tower_weights(params, "tow.item", item_width, k)
        leaves = codes + list(params.values())

        def fn(_):
            fused = fu.fuse(codes, "attention", params, "fus")
            s = fu.tower_forward(fused, params, "tow.user")
            t = fu.tower_forward(Value(item_emb), params, "tow.item")
            y_hat = fu.predict(s, t)
            return fu.loss_prd(y_hat, labels, s, t, gamma=0.01)

        assert ad.finite_diff_check(fn, leaves) < 1e-4
