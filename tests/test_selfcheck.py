"""Tests of the built-in integrity checks and of the sort oracle.

The suite runs each check of ``selfcheck`` once: the conftest fixtures hold
one passing ``dualrec selfcheck`` and one that fails on ``faulty_matmul``,
and the tests here read each check's figures from those runs. The other
faults are checked here, at the ``check_gradients`` level.
"""

import re

import numpy as np

from dualrec import autodiff as ad
from dualrec import selfcheck as sc
from faults import faulty_affine, transposeless_spmm, untaped_drift_exp

FLOAT = r"(\d+\.\d+(?:e[+-]\d+)?)"


def figures(line, pattern):
    """The numbers that ``pattern``'s groups pick out of a report line."""
    return [float(x) for x in re.fullmatch(pattern, line).groups()]


class TestGradientFaults:
    """Each wrong gradient rule of ``faults`` fails ``check_gradients`` and
    is named as its worst case."""

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


class TestIndividualChecks:
    """Each line of the passing run reads ``ok`` and its figures are inside
    the check's bounds."""

    def test_gradients_pass(self, selfcheck_run):
        line = selfcheck_run[2][0]
        [error] = figures(line, rf"ok   gradients: max relative FD error {FLOAT} "
                                r"\(\w+\), tolerance 1e-04")
        assert error < sc.GRAD_TOL

    def test_mixing_moments_pass(self, selfcheck_run):
        line = selfcheck_run[2][1]
        part = rf"alpha=(?:0\.5|1\.0|5\.0): \|dmean\|={FLOAT} \|dvar\|={FLOAT}"
        errors = figures(line, rf"ok   mixing_moments: {part}; {part}; {part}")
        assert max(errors[0::2]) < 0.005 and max(errors[1::2]) < 0.002

    def test_metrics_pass(self, selfcheck_run):
        assert selfcheck_run[2][2] == "ok   ranking_metrics: 200 cases, 0 oracle mismatches"

    def test_adjacency_pass(self, selfcheck_run):
        line = selfcheck_run[2][3]
        worst, asymmetry, radius = figures(
            line, rf"ok   adjacency: 50 graphs: max\|sparse-dense\|={FLOAT}, "
                  rf"max asymmetry={FLOAT}, max spectral radius={FLOAT}")
        assert worst <= 1e-12 and asymmetry == 0.0 and radius <= 1.0 + 1e-10


class TestRunSelfcheck:
    """The run with ``faulty_matmul`` bound."""

    def test_injected_gradient_fault_is_detected(self, faulty_selfcheck_run):
        line = faulty_selfcheck_run[2][0]
        [error] = figures(line, rf"FAIL gradients: max relative FD error {FLOAT} "
                                r"\(\w+\), tolerance 1e-04")
        assert error >= sc.GRAD_TOL

    def test_fault_does_not_break_oracle_checks(self, faulty_selfcheck_run, selfcheck_run):
        # the three oracle checks print the passing run's lines, figures and all
        lines = faulty_selfcheck_run[2]
        assert all(line.startswith("ok  ") for line in lines[1:-1]), lines
        assert lines[1:-1] == selfcheck_run[2][1:-1]


class TestRankOracle:
    def test_held_out_item_loses_every_tie(self):
        assert sc.rank_by_sorting(np.array([0.1, 0.5, -0.2]), 0.9) == 1
        assert sc.rank_by_sorting(np.array([0.3, 0.1]), 0.2) == 2
        assert sc.rank_by_sorting(np.array([0.2, 0.1, 0.2]), 0.2) == 3
        assert sc.rank_by_sorting(np.zeros(999), 0.0) == 1000
        assert sc.rank_by_sorting(np.array([], dtype=float), 0.0) == 1
