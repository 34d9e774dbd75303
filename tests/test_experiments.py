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
        reports, _ = ex.ablate(split_a, split_b, config(variant="wo_spe"))
        assert len(reports) == len(VARIANTS)
        for report, variant in zip(reports, VARIANTS):
            model = train_model(split_a, split_b, config(variant=variant)).model
            expected = evaluate_model(model, split_a, split_b)
            assert report.config == expected.config == config(variant=variant)
            # whole DomainMetrics, per-user ranks included
            assert report.domain_a == expected.domain_a
            assert report.domain_b == expected.domain_b

    def test_eight_rows_in_variant_order(self):
        split_a, split_b = tiny_splits()
        reports, table = ex.ablate(split_a, split_b, config())
        assert len(reports) == len(VARIANTS) == 8
        assert [report.config.variant for report in reports] == list(VARIANTS)
        lines = table.strip().split("\n")
        assert lines[0] == "variant\thr_a\tndcg_a\thr_b\tndcg_b"
        assert len(lines) == 1 + 8
        for report, line in zip(reports, lines[1:]):
            fields = line.split("\t")
            a, b = report.domain_a, report.domain_b
            assert fields[0] == report.config.variant
            np.testing.assert_allclose([float(f) for f in fields[1:]],
                                       [a.hr, a.ndcg, b.hr, b.ndcg], rtol=0, atol=5e-7)
            assert 0.0 <= a.hr <= 1.0 and 0.0 <= b.hr <= 1.0


class TestSweep:
    def test_grid_rows_and_header(self):
        split_a, split_b = tiny_splits()
        reports, table = ex.sweep("lr", [0.01, 0.02], split_a, split_b, config())
        assert [report.config.lr for report in reports] == [0.01, 0.02]
        assert table.startswith("lr\thr_a\tndcg_a\thr_b\tndcg_b\n")
        assert [line.split("\t")[0] for line in table.splitlines()[1:]] == ["0.01", "0.02"]

    def test_l_grid_changes_architecture(self):
        split_a, split_b = tiny_splits()
        reports, _ = ex.sweep("l", [1, 2], split_a, split_b, config())
        assert [report.config.l for report in reports] == [1, 2]

    def test_fusion_grid(self):
        split_a, split_b = tiny_splits()
        reports, _ = ex.sweep("fusion", ["concat", "sum", "attention"],
                              split_a, split_b, config())
        assert [report.config.fusion for report in reports] == ["concat", "sum", "attention"]

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

