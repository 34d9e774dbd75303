"""Tests for the built-in integrity checks and their fault injection."""

import numpy as np

from dualrec import autodiff as ad
from dualrec import selfcheck as sc
from faults import faulty_affine, faulty_matmul, transposeless_spmm, untaped_drift_exp


class TestIndividualChecks:
    def test_gradients_pass(self):
        ok, detail = sc.check_gradients()
        assert ok, detail

    def test_mixing_moments_pass(self):
        ok, detail = sc.check_mixing_moments()
        assert ok, detail

    def test_metrics_pass(self):
        ok, detail = sc.check_metrics()
        assert ok, detail

    def test_adjacency_pass(self):
        ok, detail = sc.check_adjacency()
        assert ok, detail

    def test_gradients_catch_missing_spmm_transpose(self, monkeypatch):
        monkeypatch.setattr(ad, "spmm", transposeless_spmm)
        ok, detail = sc.check_gradients()
        assert not ok
        assert detail.endswith("(spmm), tolerance 1e-04"), detail

    def test_gradients_catch_a_wrong_affine_weight_gradient(self, monkeypatch):
        monkeypatch.setattr(ad, "affine", faulty_affine)
        ok, detail = sc.check_gradients()
        assert not ok
        assert detail.endswith("(affine), tolerance 1e-04"), detail

    def test_gradients_catch_an_untaped_branch_that_differs(self, monkeypatch):
        monkeypatch.setattr(ad, "exp", untaped_drift_exp)
        ok, detail = sc.check_gradients()
        assert not ok
        assert detail.endswith("(exp), tolerance 1e-04"), detail


class TestRankOracle:
    def test_oracles_agree_with_ties(self):
        rng = np.random.default_rng(0)
        from dualrec.evaluation import rank_with_ties

        for _ in range(50):
            scores = rng.integers(0, 4, size=25).astype(float)
            pos = float(rng.integers(0, 4))
            assert sc.rank_by_sorting(scores, pos) == rank_with_ties(scores, pos)


class TestRunSelfcheck:
    def test_full_run_passes(self):
        ok, lines = sc.run_selfcheck()
        assert ok
        assert lines[-1] == "selfcheck passed"
        assert len(lines) == 5
        assert all(line.startswith("ok  ") for line in lines[:-1])

    def test_injected_gradient_fault_is_detected(self, monkeypatch):
        monkeypatch.setattr(ad, "matmul", faulty_matmul)
        ok, lines = sc.run_selfcheck()
        assert not ok
        assert lines[-1] == "selfcheck FAILED"
        assert any(line.startswith("FAIL gradients") for line in lines)

    def test_fault_flag_is_always_reset(self, monkeypatch):
        monkeypatch.setattr(ad, "matmul", faulty_matmul)
        sc.run_selfcheck()
        monkeypatch.undo()
        ok, _ = sc.run_selfcheck()
        assert ok

    def test_fault_does_not_break_oracle_checks(self, monkeypatch):
        monkeypatch.setattr(ad, "matmul", faulty_matmul)
        _, lines = sc.run_selfcheck()
        for line in lines[:-1]:
            if "gradients" not in line:
                assert line.startswith("ok  ")
