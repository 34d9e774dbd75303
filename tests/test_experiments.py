"""Tests for the ablation matrix and hyperparameter sweep drivers."""

import numpy as np
import pytest

from dualrec import experiments as ex
from dualrec.config import VARIANTS, ConfigError, RunConfig
from dualrec.data import InteractionSet, freeze_splits
from dualrec.evaluation import evaluate_model
from dualrec.training import train_model


def make_set(num_users, num_items, per_user, seed):
    rng = np.random.default_rng(seed)
    pairs = set()
    for u in range(num_users):
        for i in rng.choice(num_items, size=per_user, replace=False):
            pairs.add((u, int(i)))
    return InteractionSet.from_pairs(num_users, num_items, pairs)


def tiny_splits():
    return freeze_splits(make_set(8, 14, 5, seed=100),
                         make_set(8, 12, 4, seed=200),
                         seed=0, n_candidates=3)


def config(**kw):
    base = dict(k=4, l=1, epochs=2, lr=0.02, batch_size=32, neg_ratio=2,
                eval_negatives=3, top_k=3, seed=0, init_std=0.2)
    base.update(kw)
    return RunConfig(**base)


class TestAblate:
    def test_rows_match_one_run_per_variant(self):
        split_a, split_b = tiny_splits()
        rows, _ = ex.ablate(split_a, split_b, config(variant="wo_spe"))
        expected = []
        for variant in VARIANTS:
            model = train_model(split_a, split_b, config(variant=variant)).model
            report = evaluate_model(model, split_a, split_b)
            expected.append({"tag": variant,
                             "hr_a": report.domain_a.hr, "ndcg_a": report.domain_a.ndcg,
                             "hr_b": report.domain_b.hr, "ndcg_b": report.domain_b.ndcg})
        assert rows == expected

    def test_eight_rows_in_variant_order(self):
        split_a, split_b = tiny_splits()
        rows, table = ex.ablate(split_a, split_b, config())
        assert len(rows) == len(VARIANTS) == 8
        assert [row["tag"] for row in rows] == list(VARIANTS)
        lines = table.strip().split("\n")
        assert lines[0] == "variant\thr_a\tndcg_a\thr_b\tndcg_b"
        assert len(lines) == 1 + 8
        for row, line in zip(rows, lines[1:]):
            fields = line.split("\t")
            assert fields[0] == row["tag"]
            np.testing.assert_allclose(float(fields[1]), row["hr_a"], atol=5e-7)
            assert 0.0 <= row["hr_a"] <= 1.0 and 0.0 <= row["hr_b"] <= 1.0


class TestSweep:
    def test_grid_rows_and_header(self):
        split_a, split_b = tiny_splits()
        rows, table = ex.sweep("lr", [0.01, 0.02], split_a, split_b, config())
        assert [row["tag"] for row in rows] == ["0.01", "0.02"]
        assert table.startswith("lr\thr_a\tndcg_a\thr_b\tndcg_b\n")

    def test_l_grid_changes_architecture(self):
        split_a, split_b = tiny_splits()
        rows, _ = ex.sweep("l", [1, 2], split_a, split_b, config())
        assert [row["tag"] for row in rows] == ["1", "2"]

    def test_fusion_grid(self):
        split_a, split_b = tiny_splits()
        rows, _ = ex.sweep("fusion", ["concat", "sum", "attention"],
                           split_a, split_b, config())
        assert [row["tag"] for row in rows] == ["concat", "sum", "attention"]

    def test_unknown_param_rejected(self):
        split_a, split_b = tiny_splits()
        with pytest.raises(ConfigError):
            ex.sweep("k", [4], split_a, split_b, config())

    def test_empty_grid_rejected(self):
        split_a, split_b = tiny_splits()
        with pytest.raises(ConfigError):
            ex.sweep("lr", [], split_a, split_b, config())

    def test_invalid_value_rejected(self):
        split_a, split_b = tiny_splits()
        with pytest.raises(ConfigError):
            ex.sweep("l", [1.5], split_a, split_b, config())
        with pytest.raises(ConfigError):
            ex.sweep("fusion", ["stack"], split_a, split_b, config())

