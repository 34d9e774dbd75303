"""Tests for the ablation matrix and hyperparameter sweep drivers."""

import numpy as np
import pytest

from dualrec import experiments as ex
from dualrec.config import VARIANTS, ConfigError
from dualrec.evaluation import evaluate_model
from dualrec.training import train_model
from toy import config, tiny_splits


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

