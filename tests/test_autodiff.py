"""Tests for the autodiff primitives.

Expected values come from independent oracles: a triple-loop matmul, a
densify-then-multiply check for sparse products, scalar hand evaluations
for the losses, and a five-point central finite-difference stencil for every
gradient rule. The per-primitive stencil cases are the table
``selfcheck.PRIMITIVE_CASES``: ``dualrec selfcheck`` checks each on its
``case_leaves``, and this file on the next two draws of the same stream. A sweep
must consume its graph without leaving cyclic garbage, which the
collector-off tape-release tests check. Weak references on the arrays check
that the tape keeps only what a backward reads. Under ``no_grad`` every node
of every case must equal its taped counterpart bit for bit and record nothing.
"""

import gc
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dualrec import autodiff as ad
from dualrec.autodiff import Value
from dualrec.selfcheck import PRIMITIVE_CASES, case_leaves
from faults import faulty_matmul, untaped_drift_exp


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
        with pytest.raises(ad.ContractError, match=r"matmul: \(2, 3\) @ \(2, 3\)"):
            ad.matmul(Value(np.ones((2, 3))), Value(np.ones((2, 3))))


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


class TestFusedOpsEqualTheirComposition:
    """``affine`` and ``weighted_sum`` give, forward and backward, the bits of
    the compositions they replace, in numpy: a matmul plus a bias add, and
    per part a column slice, a row scale and an add."""

    @pytest.mark.parametrize("seed", range(4))
    def test_affine(self, seed):
        rng = np.random.default_rng([80, seed])
        m, n, k = rng.integers(1, 40, size=3)
        x, w, b = (rng.standard_normal(s) for s in [(m, n), (n, k), (1, k)])
        readout = rng.standard_normal((m, k))
        leaves = [Value(a.copy()) for a in (x, w, b)]
        out = ad.affine(*leaves)
        ad.backward(ad.mean_all(ad.mul_const(out, readout)))
        g = np.full((m, k), 1.0 / readout.size) * readout  # what reaches the affine
        want = [x @ w + b, g @ w.T, x.T @ g, g.sum(axis=0, keepdims=True)]
        got = [out.data] + [leaf.grad for leaf in leaves]
        assert [_bits(a) for a in got] == [_bits(a) for a in want]

    @pytest.mark.parametrize("num_parts", [1, 2, 3, 4])
    def test_weighted_sum(self, num_parts):
        rng = np.random.default_rng([81, num_parts])
        for _ in range(3):
            m, k = rng.integers(1, 40, size=2)
            parts = [rng.standard_normal((m, k)) for _ in range(num_parts)]
            weights = rng.standard_normal((m, num_parts))
            readout, side = rng.standard_normal((m, k)), rng.standard_normal((m, k))
            part_leaves = [Value(p.copy()) for p in parts]
            weight_leaf = Value(weights.copy())
            out = ad.weighted_sum(part_leaves, weight_leaf)
            # the first part feeds a second consumer, so its gradient is a sum
            ad.backward(ad.add(
                ad.mean_all(ad.mul_const(out, readout)),
                ad.mean_all(ad.mul_const(part_leaves[0], side)),
            ))
            g = np.full((m, k), 1.0 / readout.size) * readout
            columns = [weights[:, c:c + 1].copy() for c in range(num_parts)]
            want = parts[0] * columns[0]
            for part, column in zip(parts[1:], columns[1:]):
                want = want + part * column
            part_grads = [g * column for column in columns]
            part_grads[0] = part_grads[0] + np.full((m, k), 1.0 / side.size) * side
            weight_grad = np.zeros((m, num_parts))
            for c, part in enumerate(parts):
                weight_grad[:, c:c + 1] += (g * part).sum(axis=1, keepdims=True)
            got = [out.data, weight_leaf.grad] + [leaf.grad for leaf in part_leaves]
            assert [_bits(a) for a in got] == [_bits(a) for a in [want, weight_grad, *part_grads]]

    def test_shape_errors(self):
        x, w = Value(np.ones((2, 3))), Value(np.ones((3, 4)))
        with pytest.raises(ad.ContractError, match=r"affine: bias \(1, 3\) for width 4"):
            ad.affine(x, w, Value(np.ones((1, 3))))
        with pytest.raises(ad.ContractError, match=r"affine: bias \(2, 4\) for width 4"):
            ad.affine(x, w, Value(np.ones((2, 4))))
        with pytest.raises(ad.ContractError, match="weighted_sum: empty input"):
            ad.weighted_sum([], Value(np.ones((2, 0))))
        with pytest.raises(ad.ContractError, match=r"weighted_sum: parts \[\(2, 3\), \(3, 4\)\]"):
            ad.weighted_sum([x, w], Value(np.ones((2, 2))))
        with pytest.raises(ad.ContractError, match=r"\(2, 3\)\], weights \(2, 1\)"):
            ad.weighted_sum([x, x], Value(np.ones((2, 1))))


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

    def test_scalar_leaf_sweeps(self):
        w = Value([[2.0]])
        ad.backward(w)
        np.testing.assert_array_equal(w.grad, [[1.0]])

    def test_untaped_loss_rejected(self):
        x = Value([[0.5, -1.0]])
        with ad.no_grad():
            loss = ad.mean_all(ad.exp(x))
        with pytest.raises(ad.ContractError, match="mean_all loss has no tape"):
            ad.backward(loss)
        assert x.grad is None

    def test_second_sweep_rejected(self):
        x = Value([[0.5, -1.0]])
        loss = ad.mean_all(ad.exp(x))
        ad.backward(loss)
        first = x.grad.copy()
        with pytest.raises(ad.ContractError, match="already swept"):
            ad.backward(loss)
        np.testing.assert_array_equal(x.grad, first)


class TestAccumOwnership:
    """A node's first gradient is stored without a copy; ops that hand the
    same array (or a view of it) to more than one place copy it, so no two
    live gradients share memory and later sums cannot write through."""

    def test_fresh_gradient_stored_as_is(self):
        x = Value(np.zeros((2, 2)))
        g = np.ones((2, 2))
        ad._accum(x, g)
        assert x.grad is g
        ad._accum(x, g)
        np.testing.assert_array_equal(x.grad, 2.0 * np.ones((2, 2)))

    def test_shared_gradient_copied(self):
        x = Value(np.zeros((2, 2)))
        g = np.ones((2, 2))
        ad._accum(x, g, shared=True)
        assert not np.shares_memory(x.grad, g)

    def test_fanout_ops_leave_separate_grads(self):
        rng = np.random.default_rng(0)
        a = Value(rng.standard_normal((3, 4)))
        b = Value(rng.standard_normal((3, 4)))
        r = Value(rng.standard_normal((3, 4)))
        s = ad.add(a, b)            # same g to a and b
        t = ad.add(s, r)            # same g to s and r
        c = ad.concat_cols([t, a])  # column views of g to t and a
        u = ad.add(c, c)            # the same parent twice
        loss = ad.mean_all(ad.square(u))
        ad.backward(loss)
        grads = [v.grad for v in (a, b, r, s, t, c, u)]
        for i, gi in enumerate(grads):
            for gj in grads[i + 1:]:
                assert not np.shares_memory(gi, gj)
        # d loss / d c = 2 * 2u / size, with u = 2c
        dc = 8.0 * c.data / u.data.size
        np.testing.assert_allclose(c.grad, dc, rtol=1e-12)
        np.testing.assert_allclose(t.grad, dc[:, :4], rtol=1e-12)
        np.testing.assert_allclose(s.grad, dc[:, :4], rtol=1e-12)
        np.testing.assert_allclose(b.grad, dc[:, :4], rtol=1e-12)
        np.testing.assert_allclose(a.grad, dc[:, :4] + dc[:, 4:], rtol=1e-12)
        np.testing.assert_allclose(r.grad, dc[:, :4], rtol=1e-12)


class TestGatherConcatSlice:
    def test_gather_duplicates_accumulate(self):
        x = Value(np.arange(6.0).reshape(3, 2))
        out = ad.gather_rows(x, [1, 1, 0])
        loss = ad.mul_const(ad.mean_all(out), 6.0)  # grad 1 per output entry
        ad.backward(loss)
        np.testing.assert_array_equal(x.grad, [[1, 1], [2, 2], [0, 0]])

    def test_gather_sorted_duplicates_accumulate(self):
        x = Value(np.arange(6.0).reshape(3, 2))
        out = ad.gather_rows(x, [0, 1, 1])  # increasing, but not strictly
        ad.backward(ad.mul_const(ad.mean_all(out), 6.0))
        np.testing.assert_array_equal(x.grad, [[1, 1], [2, 2], [0, 0]])

    def test_concat_slice_roundtrip(self):
        a = Value(np.ones((2, 2)))
        b = Value(np.full((2, 3), 2.0))
        cat = ad.concat_cols([a, b])
        assert cat.shape == (2, 5)
        np.testing.assert_array_equal(cat.data[:, 2:], b.data)
        readout = np.arange(10.0).reshape(2, 5)
        ad.backward(ad.mean_all(ad.mul_const(cat, readout)))
        g = np.full((2, 5), 0.1) * readout  # what reaches the concat
        np.testing.assert_array_equal(a.grad, g[:, :2])
        np.testing.assert_array_equal(b.grad, g[:, 2:])

    def test_gather_backward_bitwise_equals_add_at(self):
        rng = np.random.default_rng(40)
        x = Value(rng.standard_normal((50, 8)))
        idx = rng.integers(0, 50, size=1024)  # about 20 repeats per row, unsorted
        readout = rng.standard_normal((1024, 8))
        ad.backward(ad.mean_all(ad.mul_const(ad.gather_rows(x, idx), readout)))
        g = np.full((1024, 8), 1.0 / readout.size) * readout  # what reaches the gather
        expected = np.zeros((50, 8))
        np.add.at(expected, idx, g)
        np.testing.assert_array_equal(x.grad, expected)

    def test_gather_backward_of_increasing_rows_adds_their_rows(self):
        rng = np.random.default_rng(41)
        x = Value(rng.standard_normal((50, 8)))
        idx = np.sort(rng.choice(50, 20, replace=False))  # what graph.node_rows passes
        readout = rng.standard_normal((20, 8))
        loss = ad.add(*(ad.mean_all(ad.mul_const(ad.gather_rows(x, idx), readout)) for _ in "ab"))
        ad.backward(loss)
        g = np.full((20, 8), 1.0 / readout.size) * readout
        expected = np.zeros((50, 8))
        np.add.at(expected, idx, g)
        np.add.at(expected, idx, g)  # the second gather adds onto the first
        np.testing.assert_array_equal(x.grad, expected)


class TestElementwiseOps:
    """Each op built on ``_elementwise``: forward data and ``x.grad`` under a
    random upstream gradient equal the numpy formula bit for bit. The inputs
    include the kinks, where the subgradient is 0."""

    X = np.append(np.random.default_rng(50).standard_normal(13), [0.0, -0.7, 0.7]).reshape(4, 4)
    G = np.random.default_rng(51).standard_normal((4, 4))

    def _run(self, op):
        x = Value(self.X.copy())
        out = op(x)
        out._backward(self.G)
        return out.data, x.grad

    def test_mul_const(self):
        c = np.random.default_rng(52).standard_normal((4, 4))
        data, grad = self._run(lambda v: ad.mul_const(v, c))
        np.testing.assert_array_equal(data, self.X * c)
        np.testing.assert_array_equal(grad, self.G * c)

    def test_affine_const(self):
        data, grad = self._run(lambda v: ad.affine_const(v, 0.8, -0.3))
        np.testing.assert_array_equal(data, 0.8 * self.X - 0.3)
        np.testing.assert_array_equal(grad, 0.8 * self.G)

    def test_relu(self):
        data, grad = self._run(ad.relu)
        np.testing.assert_array_equal(data, np.where(self.X > 0, self.X, 0.0))
        np.testing.assert_array_equal(grad, np.where(self.X > 0, self.G, 0.0))

    def test_leaky_relu(self):
        data, grad = self._run(ad.leaky_relu)
        np.testing.assert_array_equal(data, np.where(self.X > 0, self.X, 0.01 * self.X))
        np.testing.assert_array_equal(grad, np.where(self.X > 0, self.G, 0.01 * self.G))

    def test_leaky_relu_matches_scalar_where_at_the_edges(self):
        # signed zeros, subnormals, infinities and NaN: the mask-built factor
        # must equal the np.where factor it replaced bit for bit
        edges = [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan, 1.0, -1.0]
        x = np.array(edges * 2).reshape(3, 6)
        g = np.random.default_rng(53).standard_normal((3, 6))
        g[0, :2] = -0.0
        factor = np.where(x > 0, 1.0, ad.LEAKY_SLOPE)
        v = Value(x.copy())
        out = ad.leaky_relu(v)
        out._backward(g)
        assert out.data.tobytes() == (x * factor).tobytes()
        assert v.grad.tobytes() == (g * factor).tobytes()

    def test_exp(self):
        data, grad = self._run(ad.exp)
        np.testing.assert_array_equal(data, np.exp(self.X))
        np.testing.assert_array_equal(grad, self.G * np.exp(self.X))

    def test_square(self):
        data, grad = self._run(ad.square)
        np.testing.assert_array_equal(data, self.X * self.X)
        np.testing.assert_array_equal(grad, 2.0 * self.X * self.G)

    def test_clamp(self):
        data, grad = self._run(lambda v: ad.clamp(v, -0.7, 0.7))
        inside = (self.X > -0.7) & (self.X < 0.7)
        np.testing.assert_array_equal(data, np.minimum(np.maximum(self.X, -0.7), 0.7))
        np.testing.assert_array_equal(grad, np.where(inside, self.G, 0.0))

    def test_op_names(self):
        x = Value(self.X)
        ops = {
            "mul_const": ad.mul_const(x, 2.0),
            "affine_const": ad.affine_const(x, 2.0, 1.0),
            "relu": ad.relu(x),
            "leaky_relu": ad.leaky_relu(x),
            "exp": ad.exp(x),
            "square": ad.square(x),
            "clamp": ad.clamp(x, -1.0, 1.0),
        }
        for name, out in ops.items():
            assert out.op == name and out.node._parents == (x.node,)


# every op a benchmark trace times: the module's functions annotated to
# return a Value; helpers such as _elementwise must stay outside this set
TAPE_OPS = {
    "add", "affine", "affine_const", "clamp", "concat_cols", "cross_entropy",
    "exp", "frobenius_sq", "gather_rows", "kl_div", "leaky_relu", "matmul",
    "mean_all", "mul_const", "relu", "row_cosine", "softmax_rows", "spmm",
    "square", "sub", "weighted_sum",
}


def test_value_annotated_callables_are_the_tape_ops():
    found = {
        name for name, fn in vars(ad).items()
        if callable(fn) and getattr(fn, "__module__", "") == ad.__name__
        and getattr(fn, "__annotations__", {}).get("return") == "Value"
    }
    assert found == TAPE_OPS


def test_weight_past_the_address_space_is_a_memory_error():
    # numpy would raise a ValueError on a shape of more than 2**63 bytes
    params = ad.Params(np.random.default_rng(0), 0.1)
    with pytest.raises(MemoryError, match=r"'w' of shape \(90, 10+\) exceeds the address space"):
        params.new("w", (90, 10**18))
    assert "w" not in params


# a call, and the message, for each shape guard in autodiff that no other
# test trips; without add's guard, (3, 1) + (3, 4) would broadcast silently
SHAPE_GUARDS = {
    "as_matrix": (lambda: Value(np.ones((2, 2, 2))), "expected a 2-D matrix"),
    "add": (lambda: ad.add(Value(np.ones((3, 1))), Value(np.ones((3, 4)))), "add:"),
    "mul_const": (lambda: ad.mul_const(Value(np.ones((1, 3))), np.ones((2, 3))), "mul_const:"),
    "affine": (lambda: ad.affine(Value(np.ones((2, 3))), Value(np.ones((4, 2))),
                                 Value(np.ones((1, 2)))), r"affine: \(2, 3\) @"),
    "spmm": (lambda: ad.spmm(sp.csr_matrix((3, 4)), Value(np.ones((3, 2)))), "spmm:"),
    "gather_rows": (lambda: ad.gather_rows(Value(np.ones((3, 2))), [[0, 1]]), "gather_rows:"),
    "concat_empty": (lambda: ad.concat_cols([]), "concat_cols: empty"),
    "concat_rows": (lambda: ad.concat_cols([Value(np.ones((2, 1))), Value(np.ones((3, 1)))]),
                    "concat_cols: row counts"),
    "row_cosine": (lambda: ad.row_cosine(Value(np.ones((2, 3))), Value(np.ones((2, 4)))),
                   "row_cosine:"),
    "cross_entropy": (lambda: ad.cross_entropy(Value(np.full((2, 2), 0.5)), np.ones((2, 3))),
                      "cross_entropy:"),
    "kl_div": (lambda: ad.kl_div(np.ones((2, 3)), Value(np.full((2, 2), 0.5))), "kl_div:"),
}


@pytest.mark.parametrize("call,match", SHAPE_GUARDS.values(), ids=SHAPE_GUARDS)
def test_shape_guard_fires(call, match):
    with pytest.raises(ad.ContractError, match=match):
        call()


def _random_leaves(rng, shapes):
    return [Value(rng.standard_normal(s)) for s in shapes]


def test_primitive_cases_cover_every_primitive_op():
    # sub builds its graph from other ops
    ops = set()
    for name, fn, shapes in PRIMITIVE_CASES:
        ops.update(node.op for node in ad._toposort(fn(case_leaves(name, shapes)).node))
    assert TAPE_OPS - {"sub"} <= ops


class TestTapeRelease:
    """A swept graph frees itself by reference counting, with no cycles left."""

    @pytest.mark.parametrize("name,fn,shapes", PRIMITIVE_CASES)
    def test_sweep_leaves_no_cyclic_garbage(self, name, fn, shapes):
        leaves = case_leaves(name, shapes)
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
        assert hidden.node._parents == () and hidden._backward is None
        assert loss.node._parents == ()


_TAPE_RNG = np.random.default_rng(60)
_ADJACENCY = sp.csr_matrix(_TAPE_RNG.random((6, 6)) * (_TAPE_RNG.random((6, 6)) < 0.5))
_EPS = _TAPE_RNG.standard_normal((6, 3))

# (name, graph over the leaves, leaf shapes, per op: whether its output array
# outlives the forward while the caller holds only the graph's output)
HELD_ARRAY_CASES = [
    ("gcn_layer", lambda ls: ad.relu(ad.affine(ad.spmm(_ADJACENCY, ls[0]), ls[1], ls[2])),
     [(6, 4), (4, 3), (1, 3)],
     {"spmm": True, "affine": False, "relu": True}),
    ("reparameterised_head",
     lambda ls: ad.add(ls[0], ad.mul_const(ad.exp(ad.clamp(ls[1], -2.0, 2.0)), _EPS)),
     [(6, 3), (6, 3)],
     {"clamp": False, "exp": True, "mul_const": False, "add": True}),
]


def _record_made(monkeypatch, entry):
    """List of ``entry(value)`` for each non-leaf Value made from now on."""
    made = []
    init = Value.__init__

    def recording_init(self, data, op="leaf"):
        init(self, data, op)
        if op != "leaf":
            made.append(entry(self))

    monkeypatch.setattr(Value, "__init__", recording_init)
    return made


def _alive(made) -> dict[str, bool]:
    return {op: ref() is not None for op, ref in made}


class TestTapeKeepsOnlyWhatBackwardReads:
    """A node's parent links hold nodes, not arrays: an intermediate array is
    freed once the forward code drops it, unless a backward reads it; the
    arrays a backward reads live until the sweep, which frees them."""

    @pytest.mark.parametrize("name,fn,shapes,kept", HELD_ARRAY_CASES)
    def test_arrays_live_exactly_as_long_as_a_backward_reads_them(
            self, monkeypatch, name, fn, shapes, kept):
        leaves = _random_leaves(np.random.default_rng(61), shapes)
        made = _record_made(monkeypatch, lambda v: (v.op, weakref.ref(v.data)))
        out = fn(leaves)
        assert _alive(made) == kept, name
        loss = ad.mean_all(out)  # keeps only the shape of its input
        output_op = out.op
        del out
        assert _alive(made) == {**kept, output_op: False, "mean_all": True}, name
        ad.backward(loss)
        assert _alive(made) == {op: op == "mean_all" for op in _alive(made)}, name
        assert all(leaf.grad is not None for leaf in leaves), name

    @pytest.mark.parametrize("name,fn,shapes,kept", HELD_ARRAY_CASES)
    def test_gradients_equal_those_with_every_intermediate_held(
            self, monkeypatch, name, fn, shapes, kept):
        freed = _random_leaves(np.random.default_rng(62), shapes)
        held = _random_leaves(np.random.default_rng(62), shapes)
        ad.backward(ad.mean_all(fn(freed)))
        values = _record_made(monkeypatch, lambda v: v)
        ad.backward(ad.mean_all(fn(held)))
        assert {v.op for v in values} == {*kept, "mean_all"}
        for a, b in zip(freed, held):
            assert a.grad.tobytes() == b.grad.tobytes(), name

    def test_leaky_relu_keeps_a_bool_mask_only(self):
        x = Value(np.random.default_rng(63).standard_normal((6, 3)))
        out = ad.leaky_relu(x)
        kept = [
            cell.cell_contents
            for cell in out._backward.__closure__
            if isinstance(cell.cell_contents, np.ndarray)
        ]
        assert [(a.dtype, a.shape) for a in kept] == [(np.dtype(bool), x.shape)]


class TestNoGrad:
    """Under no_grad every op computes the taped output bits and records nothing."""

    @pytest.mark.parametrize("name,fn,shapes", PRIMITIVE_CASES)
    def test_every_node_equals_the_taped_one(self, monkeypatch, name, fn, shapes):
        made = []
        init = Value.__init__

        def recording_init(self, data, op="leaf"):
            init(self, data, op)
            made.append(self)

        leaves = case_leaves(name, shapes)
        monkeypatch.setattr(Value, "__init__", recording_init)
        taped_loss = fn(leaves)
        taped = made[:]
        made.clear()
        with ad.no_grad():
            fn(leaves)
        assert taped_loss._backward is not None
        assert [(v.op, v.shape, v.data.tobytes()) for v in made] == [
            (v.op, v.shape, v.data.tobytes()) for v in taped
        ], name
        assert all(v.node._parents == () and v._backward is None for v in made), name

    def test_nests_and_restores_taping(self):
        assert ad._taping
        with ad.no_grad():
            with ad.no_grad():
                assert not ad._taping
            assert not ad._taping
        assert ad._taping
        x = Value([[1.0]])
        assert ad.exp(x).node._parents == (x.node,)

    def test_restores_taping_after_an_exception(self):
        with pytest.raises(KeyError):
            with ad.no_grad():
                raise KeyError("inside")
        assert ad._taping


class TestFiniteDiffCheck:
    """The finite-difference suite is the oracle for every gradient rule."""

    def test_affine_relu_chain(self):
        rng = np.random.default_rng(21)
        leaves = _random_leaves(rng, [(3, 4), (4, 2), (1, 2)])

        def fn(ls):
            return ad.mean_all(ad.relu(ad.affine(*ls)))

        assert ad.finite_diff_check(fn, leaves) < 1e-4

    def test_constant_subgraph(self):
        leaves = [Value(np.ones((2, 2)))]

        def fn(ls):
            return Value([[1.0]])

        assert ad.finite_diff_check(fn, leaves) == 0.0

    @pytest.mark.parametrize("name,fn,shapes", PRIMITIVE_CASES)
    def test_each_primitive(self, name, fn, shapes):
        # the stream's first draw is case_leaves(name), which check_gradients checks
        rng = np.random.default_rng(list(name.encode()))
        _random_leaves(rng, shapes)
        for _ in range(2):
            leaves = _random_leaves(rng, shapes)
            assert ad.finite_diff_check(fn, leaves) < 1e-4, name

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

    def test_untaped_branch_fault_breaks_check(self, monkeypatch):
        # the taped graph and its gradient are right; only the probes see the fault
        leaves = case_leaves("exp", [(3, 3)])
        monkeypatch.setattr(ad, "exp", untaped_drift_exp)
        assert ad.finite_diff_check(lambda ls: ad.mean_all(ad.exp(ls[0])), leaves) > 1e-4

    def test_fault_injection_breaks_check(self, monkeypatch):
        rng = np.random.default_rng(34)
        leaves = _random_leaves(rng, [(3, 4), (4, 2)])

        def fn(ls):
            return ad.mean_all(ad.matmul(*ls))

        monkeypatch.setattr(ad, "matmul", faulty_matmul)
        err = ad.finite_diff_check(fn, leaves)
        assert err > 1e-4
