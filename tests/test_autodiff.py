"""Tests for the autodiff primitives.

Expected values come from independent oracles: a triple-loop matmul, a
densify-then-multiply check for sparse products, scalar hand evaluations
for the losses, and a five-point central finite-difference stencil for every
gradient rule. A sweep must consume its graph without leaving cyclic
garbage, which the collector-off tape-release tests check.
"""

import gc
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dualrec import autodiff as ad
from dualrec.autodiff import Value


def matmul_oracle(x, w):
    """Naive triple-loop matrix product."""
    n, a = x.shape
    a2, b = w.shape
    assert a == a2
    out = np.zeros((n, b))
    for i in range(n):
        for j in range(b):
            for k in range(a):
                out[i, j] += x[i, k] * w[k, j]
    return out


class TestAffine:
    def test_identity_left_factor(self):
        x = Value(np.eye(2))
        w = Value([[1.0, 2.0], [3.0, 4.0]])
        b = Value([[0.0, 0.0]])
        out = ad.affine(x, w, b)
        np.testing.assert_array_equal(out.data, [[1, 2], [3, 4]])

    def test_bias_broadcast(self):
        x = Value([[1.0, 1.0]])
        w = Value(np.eye(2))
        b = Value([[5.0, 5.0]])
        out = ad.affine(x, w, b)
        np.testing.assert_array_equal(out.data, [[6.0, 6.0]])

    def test_against_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 4))
        w = rng.standard_normal((4, 2))
        b = rng.standard_normal((1, 2))
        out = ad.affine(Value(x), Value(w), Value(b))
        expected = matmul_oracle(x, w) + b
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ad.ShapeError):
            ad.matmul(Value(np.ones((2, 3))), Value(np.ones((2, 3))))


class TestSpmm:
    def test_sparse_identity(self):
        a = sp.identity(3, format="csr")
        x = np.random.default_rng(1).standard_normal((3, 4))
        out = ad.spmm(a, Value(x))
        np.testing.assert_array_equal(out.data, x)

    def test_selector_row(self):
        a = sp.csr_matrix(([1.0], ([0], [2])), shape=(3, 3))
        x = Value([[1.0], [2.0], [3.0]])
        out = ad.spmm(a, x)
        np.testing.assert_array_equal(out.data, [[3.0], [0.0], [0.0]])

    def test_against_densified_oracle(self):
        rng = np.random.default_rng(2)
        dense = rng.standard_normal((5, 5)) * (rng.random((5, 5)) < 0.3)
        a = sp.csr_matrix(dense)
        x = rng.standard_normal((5, 3))
        out = ad.spmm(a, Value(x))
        np.testing.assert_allclose(out.data, dense @ x, atol=1e-12)

    def test_gradient_is_transpose_product(self):
        rng = np.random.default_rng(3)
        dense = rng.standard_normal((4, 3))
        a = sp.csr_matrix(dense)
        x = Value(rng.standard_normal((3, 2)))
        out = ad.spmm(a, x)
        loss = ad.mean_all(out)
        ad.backward(loss)
        g_out = np.full((4, 2), 1.0 / 8)
        np.testing.assert_allclose(x.grad, dense.T @ g_out, atol=1e-12)


class TestActivations:
    def test_relu_values(self):
        out = ad.relu(Value([[-1.0, 0.0, 2.0]]))
        np.testing.assert_array_equal(out.data, [[0.0, 0.0, 2.0]])

    def test_leaky_relu_slope(self):
        out = ad.leaky_relu(Value([[-1.0]]))
        assert out.data[0, 0] == -0.01

    def test_relu_subgradient(self):
        x = Value([[2.0, -1.0, 0.0]])
        loss = ad.mean_all(ad.relu(x))
        ad.backward(loss)
        np.testing.assert_allclose(x.grad * 3, [[1.0, 0.0, 0.0]])


class TestSoftmaxRows:
    def test_uniform_on_constant_row(self):
        out = ad.softmax_rows(Value([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)

    def test_no_overflow_on_extreme_logits(self):
        out = ad.softmax_rows(Value([[1000.0, 0.0]]))
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data[0, 0], 1.0, atol=1e-12)

    def test_known_row(self):
        # scalar exp/sum oracle: exp([1,2,3]) / sum
        e = [math.exp(v) for v in (1.0, 2.0, 3.0)]
        expected = [v / sum(e) for v in e]
        out = ad.softmax_rows(Value([[1.0, 2.0, 3.0]]))
        np.testing.assert_allclose(out.data[0], expected, atol=1e-12)
        np.testing.assert_allclose(out.data[0], [0.09003, 0.24473, 0.66524], atol=1e-5)

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, (3, 4), elements=st.floats(-1e3, 1e3)))
    def test_rows_sum_to_one(self, x):
        out = ad.softmax_rows(Value(x))
        assert (out.data >= 0).all()
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)


class TestRowCosine:
    def test_self_similarity(self):
        v = Value([[1.0, 2.0, 3.0]])
        out = ad.row_cosine(v, Value([[1.0, 2.0, 3.0]]))
        np.testing.assert_allclose(out.data, [[1.0]], atol=1e-15)

    def test_orthogonal(self):
        out = ad.row_cosine(Value([[1.0, 0.0]]), Value([[0.0, 1.0]]))
        np.testing.assert_allclose(out.data, [[0.0]], atol=1e-15)

    def test_scalar_formula_oracle(self):
        out = ad.row_cosine(Value([[1.0, 1.0]]), Value([[1.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[1.0 / math.sqrt(2.0)]], atol=1e-12)
        np.testing.assert_allclose(out.data, [[0.70711]], atol=1e-5)

    def test_zero_norm_clamped_and_counted(self):
        ad.reset_cosine_clamp_events()
        out = ad.row_cosine(Value([[0.0, 0.0]]), Value([[1.0, 0.0]]))
        assert np.isfinite(out.data).all()
        assert ad.cosine_clamp_events() == 1
        ad.reset_cosine_clamp_events()

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, (4, 3), elements=st.floats(-100, 100)),
           arrays(np.float64, (4, 3), elements=st.floats(-100, 100)))
    def test_bounded(self, s, t):
        out = ad.row_cosine(Value(s), Value(t))
        assert (out.data >= -1 - 1e-12).all()
        assert (out.data <= 1 + 1e-12).all()

    def test_antisymmetric_under_negation(self):
        rng = np.random.default_rng(7)
        s = rng.standard_normal((5, 4))
        t = rng.standard_normal((5, 4))
        pos = ad.row_cosine(Value(s), Value(t))
        neg = ad.row_cosine(Value(-s), Value(t))
        np.testing.assert_allclose(neg.data, -pos.data, atol=1e-15)


class TestCrossEntropy:
    def test_perfect_prediction(self):
        out = ad.cross_entropy(Value([[1.0, 0.0]]), [[1.0, 0.0]])
        assert out.item() == pytest.approx(-math.log(1 - 1e-12), abs=1e-15)

    def test_uniform_prediction_is_ln2(self):
        out = ad.cross_entropy(Value([[0.5, 0.5]]), [[1.0, 0.0]])
        assert out.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_soft_labels(self):
        out = ad.cross_entropy(Value([[0.5, 0.5]]), [[0.5, 0.5]])
        assert out.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_gradient_flows_to_p_only(self):
        p = ad.softmax_rows(Value([[0.3, 0.9]]))
        loss = ad.cross_entropy(p, [[1.0, 0.0]])
        ad.backward(loss)
        assert p.grad is not None


class TestKlDiv:
    def test_identical_distributions(self):
        out = ad.kl_div([[0.5, 0.5]], Value([[0.5, 0.5]]))
        assert out.item() == 0.0

    def test_hand_value(self):
        # 0.5*ln 2 + 0.5*ln(2/3)
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        out = ad.kl_div([[0.5, 0.5]], Value([[0.25, 0.75]]))
        assert out.item() == pytest.approx(expected, abs=1e-12)
        assert out.item() == pytest.approx(0.14384, abs=1e-5)

    def test_batch_of_identical_rows(self):
        o = np.full((4, 2), 0.5)
        out = ad.kl_div(o, Value(o.copy()))
        assert out.item() == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            o = rng.dirichlet(np.ones(3), size=5)
            p = rng.dirichlet(np.ones(3), size=5)
            assert ad.kl_div(o, Value(p)).item() >= -1e-12


class TestFrobenius:
    def test_zero(self):
        assert ad.frobenius_sq(Value(np.zeros((3, 2)))).item() == 0.0

    def test_hand_value(self):
        assert ad.frobenius_sq(Value([[1.0, 2.0], [3.0, 4.0]])).item() == 30.0

    def test_gradient_is_2x(self):
        x = Value([[1.0, 2.0]])
        ad.backward(ad.frobenius_sq(x))
        np.testing.assert_array_equal(x.grad, [[2.0, 4.0]])


class TestBackward:
    def test_frobenius_leaf(self):
        w = Value([[3.0]])
        ad.backward(ad.frobenius_sq(w))
        np.testing.assert_array_equal(w.grad, [[6.0]])

    def test_softmax_ce_closed_form(self):
        rng = np.random.default_rng(5)
        x = Value(rng.standard_normal((4, 3)))
        w = Value(rng.standard_normal((3, 3)))
        b = Value(rng.standard_normal((1, 3)))
        onehot = np.eye(3)[rng.integers(0, 3, size=4)]
        logits = ad.affine(x, w, b)
        p = ad.softmax_rows(logits)
        loss = ad.cross_entropy(p, onehot)
        ad.backward(loss)
        # closed form: d loss / d logits = (p - o) / n
        expected = (p.data - onehot) / 4
        np.testing.assert_allclose(x.grad, expected @ w.data.T, atol=1e-12)

    def test_fanout_sums_contributions(self):
        # loss = 2*f(x) + 3*f(x) must give gradient 5*f'(x)
        x = Value([[1.5]])
        f = ad.square(x)
        loss = ad.add(ad.mul_const(f, 2.0), ad.mul_const(f, 3.0))
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, [[5 * 2 * 1.5]], atol=1e-12)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ad.ContractError):
            ad.backward(Value(np.ones((2, 2))))


class TestGatherConcatSlice:
    def test_gather_duplicates_accumulate(self):
        x = Value(np.arange(6.0).reshape(3, 2))
        out = ad.gather_rows(x, [1, 1, 0])
        loss = ad.mul_const(ad.mean_all(out), 6.0)  # grad 1 per output entry
        ad.backward(loss)
        np.testing.assert_array_equal(x.grad, [[1, 1], [2, 2], [0, 0]])

    def test_concat_slice_roundtrip(self):
        a = Value(np.ones((2, 2)))
        b = Value(np.full((2, 3), 2.0))
        cat = ad.concat_cols([a, b])
        assert cat.shape == (2, 5)
        right = ad.slice_cols(cat, 2, 5)
        np.testing.assert_array_equal(right.data, b.data)
        ad.backward(ad.mean_all(right))
        assert not a.grad.any()
        np.testing.assert_allclose(b.grad, np.full((2, 3), 1.0 / 6))


def _random_leaves(rng, shapes):
    return [Value(rng.standard_normal(s)) for s in shapes]


# (name, scalar loss over the leaves, leaf shapes): one graph per primitive
PRIMITIVE_CASES = [
    ("matmul", lambda ls: ad.mean_all(ad.matmul(*ls)), [(3, 4), (4, 2)]),
    ("add", lambda ls: ad.mean_all(ad.add(*ls)), [(3, 3), (3, 3)]),
    ("add_rowvec", lambda ls: ad.mean_all(ad.add_rowvec(*ls)), [(3, 4), (1, 4)]),
    ("leaky_relu", lambda ls: ad.mean_all(ad.leaky_relu(ls[0])), [(3, 4)]),
    ("exp", lambda ls: ad.mean_all(ad.exp(ls[0])), [(3, 3)]),
    ("square", lambda ls: ad.mean_all(ad.square(ls[0])), [(3, 3)]),
    ("softmax", lambda ls: ad.mean_all(ad.square(ad.softmax_rows(ls[0]))), [(3, 4)]),
    ("frobenius", lambda ls: ad.frobenius_sq(ls[0]), [(3, 3)]),
    ("scale_rows", lambda ls: ad.mean_all(ad.scale_rows(*ls)), [(3, 4), (3, 1)]),
    ("slice_cols", lambda ls: ad.mean_all(ad.slice_cols(ls[0], 1, 3)), [(3, 4)]),
    ("mse", lambda ls: ad.mse(ls[0], np.full((3, 3), 0.25)), [(3, 3)]),
    ("mul_const", lambda ls: ad.mean_all(ad.mul_const(ls[0], 1.7)), [(3, 3)]),
    ("affine_const", lambda ls: ad.mean_all(ad.affine_const(ls[0], 0.5, 0.5)), [(3, 3)]),
]


class TestTapeRelease:
    """A swept graph frees itself by reference counting, with no cycles left."""

    @pytest.mark.parametrize("name,fn,shapes", PRIMITIVE_CASES)
    def test_sweep_leaves_no_cyclic_garbage(self, name, fn, shapes):
        leaves = _random_leaves(np.random.default_rng(list(name.encode())), shapes)
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            ad.backward(fn(leaves))
            unreachable = gc.collect()
        finally:
            if was_enabled:
                gc.enable()
        assert unreachable == 0, name
        assert all(leaf.grad is not None for leaf in leaves), name

    def test_held_interior_node_is_cut_but_keeps_grad(self):
        x = Value([[0.5, -1.0]])
        hidden = ad.exp(x)
        loss = ad.mean_all(ad.square(hidden))
        ad.backward(loss)
        np.testing.assert_allclose(hidden.grad, hidden.data)  # d/dh mean(h^2) = 2h/2
        np.testing.assert_allclose(x.grad, hidden.data * hidden.data)
        assert hidden._parents == () and hidden._backward is None
        assert loss._parents == ()


class TestFiniteDiffCheck:
    """The finite-difference suite is the oracle for every gradient rule."""

    def test_affine_relu_chain(self):
        rng = np.random.default_rng(21)
        leaves = _random_leaves(rng, [(3, 4), (4, 2), (1, 2)])

        def fn(ls):
            return ad.mean_all(ad.relu(ad.affine(*ls)))

        assert ad.finite_diff_check(fn, leaves) < 1e-4

    def test_row_cosine(self):
        rng = np.random.default_rng(22)
        leaves = _random_leaves(rng, [(4, 3), (4, 3)])

        def fn(ls):
            return ad.mean_all(ad.row_cosine(*ls))

        assert ad.finite_diff_check(fn, leaves) < 1e-4

    def test_constant_subgraph(self):
        leaves = [Value(np.ones((2, 2)))]

        def fn(ls):
            return Value([[1.0]])

        assert ad.finite_diff_check(fn, leaves) == 0.0

    @pytest.mark.parametrize("name,fn,shapes", PRIMITIVE_CASES)
    def test_each_primitive(self, name, fn, shapes):
        rng = np.random.default_rng(list(name.encode()))
        for _ in range(3):
            leaves = _random_leaves(rng, shapes)
            assert ad.finite_diff_check(fn, leaves) < 1e-4, name

    def test_spmm_fd(self):
        rng = np.random.default_rng(30)
        dense = rng.standard_normal((4, 4)) * (rng.random((4, 4)) < 0.5)
        a = sp.csr_matrix(dense)
        leaves = _random_leaves(rng, [(4, 3)])

        def fn(ls):
            return ad.mean_all(ad.spmm(a, ls[0]))

        assert ad.finite_diff_check(fn, leaves) < 1e-4

    def test_cross_entropy_fd(self):
        rng = np.random.default_rng(31)
        onehot = np.eye(3)[[0, 2, 1, 0]]
        leaves = _random_leaves(rng, [(4, 3)])

        def fn(ls):
            return ad.cross_entropy(ad.softmax_rows(ls[0]), onehot)

        assert ad.finite_diff_check(fn, leaves) < 1e-4

    def test_kl_fd(self):
        rng = np.random.default_rng(32)
        target = np.full((4, 2), 0.5)
        leaves = _random_leaves(rng, [(4, 2)])

        def fn(ls):
            return ad.kl_div(target, ad.softmax_rows(ls[0]))

        assert ad.finite_diff_check(fn, leaves) < 1e-4

    def test_random_composed_chains(self):
        # 4-op chains sampled from the primitive pool, 20 random points.
        # Linear mixing between ops keeps the chain conditioned the way a
        # real network is; without it, stacked leaky slopes or repeated
        # squaring push true gradients below the roundoff floor of the
        # finite-difference stencil and the check stops being meaningful.
        rng = np.random.default_rng(33)
        unary = [
            lambda v: ad.relu(v),
            lambda v: ad.leaky_relu(v),
            lambda v: ad.square(v),
            lambda v: ad.softmax_rows(v),
            lambda v: ad.affine_const(v, 0.7, 0.1),
        ]
        for trial in range(20):
            ops = [unary[rng.integers(len(unary))] for _ in range(4)]
            leaves = _random_leaves(rng, [(3, 4), (4, 4), (4, 4), (4, 4)])
            readout = rng.standard_normal((3, 4)) + 0.5

            def fn(ls, ops=ops, readout=readout):
                v = ls[0]
                for i, op in enumerate(ops):
                    v = op(v)
                    if i < 3:
                        v = ad.matmul(v, ls[i + 1])
                return ad.mean_all(ad.mul_const(v, readout))

            assert ad.finite_diff_check(fn, leaves) < 1e-4

    def test_fault_injection_breaks_check(self):
        rng = np.random.default_rng(34)
        leaves = _random_leaves(rng, [(3, 4), (4, 2)])

        def fn(ls):
            return ad.mean_all(ad.matmul(*ls))

        ad.set_gradient_fault(True)
        try:
            err = ad.finite_diff_check(fn, leaves)
        finally:
            ad.set_gradient_fault(False)
        assert err > 1e-4
