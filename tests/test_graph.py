"""Tests for adjacency construction and GCN propagation.

The normalization is checked on hand-picked graphs against
``selfcheck.adjacency_oracle``, the dense oracle that ``dualrec selfcheck``
runs on random graphs; symmetry and the spectral radius also on two random
graphs; and gradient flow through propagation against finite differences.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from dualrec import autodiff as ad
from dualrec import graph
from dualrec.autodiff import Value
from dualrec.selfcheck import adjacency_oracle
from toy import PAIRS_A, make_set


class TestBuildAdjacency:
    def test_single_pair_fully_forced(self):
        adj = graph.build_bipartite_adjacency(make_set([(0, 0)], 1, 1))
        np.testing.assert_allclose(adj.matrix.toarray(), [[0.5, 0.5], [0.5, 0.5]])

    @pytest.mark.parametrize("pairs, m, n", [
        ([(0, 0), (1, 0), (1, 2)], 3, 4),                      # an isolated user and item
        ([(u, i) for u in range(3) for i in range(4)], 3, 4),  # complete
        ([(0, i) for i in range(5)], 2, 5),                    # a star and an isolated user
        (PAIRS_A, 4, 6),
    ], ids=["isolated", "complete", "star", "toy"])
    def test_hand_graphs_match_the_dense_oracle(self, pairs, m, n):
        dense = graph.build_bipartite_adjacency(make_set(pairs, m, n)).matrix.toarray()
        np.testing.assert_allclose(dense, adjacency_oracle(pairs, m, n), rtol=0, atol=1e-12)
        assert np.array_equal(dense, dense.T)
        assert np.abs(np.linalg.eigvalsh(dense)).max() <= 1 + 1e-10

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(1)
        pairs = {(int(rng.integers(6)), int(rng.integers(8))) for _ in range(20)}
        adj = graph.build_bipartite_adjacency(make_set(pairs, 6, 8))
        diff = (adj.matrix - adj.matrix.T).tocoo()
        assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0

    def test_spectral_radius_at_most_one(self):
        rng = np.random.default_rng(2)
        pairs = {(int(rng.integers(5)), int(rng.integers(7))) for _ in range(15)}
        adj = graph.build_bipartite_adjacency(make_set(pairs, 5, 7))
        eigs = np.linalg.eigvalsh(adj.matrix.toarray())
        assert np.abs(eigs).max() <= 1 + 1e-10

    def test_diagonal_positive(self):
        pairs = {(0, 0), (0, 1), (1, 0)}
        adj = graph.build_bipartite_adjacency(make_set(pairs, 2, 2))
        assert (adj.matrix.diagonal() > 0).all()

    def test_isolated_item_gets_self_loop_only(self):
        # items can lose all interactions to the held-out split; they keep
        # a degree-1 self loop instead of breaking construction
        adj = graph.build_bipartite_adjacency(make_set({(0, 0), (1, 0)}, 2, 2))
        dense = adj.matrix.toarray()
        assert dense[3, 3] == 1.0
        assert dense[3, :3].sum() == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ad.ContractError):
            graph.build_bipartite_adjacency(make_set(set(), 2, 2))

    def test_untouched_entries_stable_under_new_interaction(self):
        rng = np.random.default_rng(3)
        m, n = 6, 8
        pairs = {(int(rng.integers(m)), int(rng.integers(n))) for _ in range(18)}
        new = (0, 7)
        pairs.discard(new)
        a1 = graph.build_bipartite_adjacency(make_set(pairs, m, n)).matrix.toarray()
        a2 = graph.build_bipartite_adjacency(make_set(pairs | {new}, m, n)).matrix.toarray()
        touched = {new[0], m + new[1]}
        keep = [i for i in range(m + n) if i not in touched]
        sub = np.ix_(keep, keep)
        assert np.array_equal(a1[sub], a2[sub])


def identity_adjacency(size, num_users):
    return graph.NormalizedAdjacency(
        num_users=num_users,
        num_items=size - num_users,
        matrix=sp.identity(size, format="csr"),
    )


def gcn_params(e0, layers, name="gcn"):
    """A name-keyed GCN weight dict: ``<name>.e0`` and a (w, b) pair per layer."""
    params = {f"{name}.e0": Value(e0)}
    for idx, (w, b) in enumerate(layers):
        params[f"{name}.w{idx}"] = Value(w)
        params[f"{name}.b{idx}"] = Value(b)
    return params


class TestPropagate:
    def test_identity_graph_identity_weights(self):
        e0 = np.array([[1.0, -2.0], [0.5, 3.0]])
        weights = gcn_params(e0, [(np.eye(2), np.zeros((1, 2)))] * 2)
        outs = graph.encode_graph(identity_adjacency(2, 1), weights, "gcn", 2)
        assert len(outs) == 3
        np.testing.assert_array_equal(outs[1].data, np.maximum(e0, 0))
        np.testing.assert_array_equal(outs[2].data, np.maximum(np.maximum(e0, 0), 0))

    def test_large_negative_bias_saturates(self):
        rng = np.random.default_rng(4)
        weights = gcn_params(
            rng.standard_normal((2, 3)), [(rng.standard_normal((3, 3)), np.full((1, 3), -100.0))]
        )
        outs = graph.encode_graph(identity_adjacency(2, 1), weights, "gcn", 1)
        np.testing.assert_array_equal(outs[1].data, np.zeros((2, 3)))

    def test_hand_recursion_on_single_pair_graph(self):
        adj = graph.build_bipartite_adjacency(make_set([(0, 0)], 1, 1))
        e0 = np.array([[1.0, 2.0], [3.0, -1.0]])
        w1 = np.array([[1.0, 0.5], [0.0, 1.0]])
        b1 = np.array([[0.1, -0.2]])
        w2 = np.array([[2.0, 0.0], [1.0, 1.0]])
        b2 = np.array([[0.0, 0.3]])
        weights = gcn_params(e0, [(w1, b1), (w2, b2)])
        outs = graph.encode_graph(adj, weights, "gcn", 2)
        a_hat = np.full((2, 2), 0.5)
        e1 = np.maximum(a_hat @ e0 @ w1 + b1, 0)
        e2 = np.maximum(a_hat @ e1 @ w2 + b2, 0)
        np.testing.assert_allclose(outs[1].data, e1, atol=1e-15)
        np.testing.assert_allclose(outs[2].data, e2, atol=1e-15)

    def test_no_layers_rejected(self):
        weights = gcn_params(np.ones((2, 2)), [])
        with pytest.raises(ad.ContractError):
            graph.encode_graph(identity_adjacency(2, 1), weights, "gcn", 0)


class TestAssemble:
    """``node_rows`` builds [E0 | E1 | ...] for the requested rows only."""

    def test_width_is_layers_times_k(self):
        layers = [Value(np.ones((5, 2))) for _ in range(2)]
        assert graph.node_rows(layers, np.arange(3)).shape == (3, 4)
        assert graph.node_rows(layers, np.array([3, 4])).shape == (2, 4)

    def test_width_with_defaults(self):
        layers = [Value(np.ones((4, 64))) for _ in range(3)]
        assert graph.node_rows(layers, np.array([0, 1])).shape[1] == 192

    def test_concatenation_order(self):
        l0 = Value(np.zeros((2, 1)))
        l1 = Value(np.ones((2, 1)))
        np.testing.assert_array_equal(graph.node_rows([l0, l1], np.array([0])).data, [[0.0, 1.0]])
        np.testing.assert_array_equal(graph.node_rows([l0, l1], np.array([1])).data, [[0.0, 1.0]])

    def test_slices_route_each_layer_gradient_to_its_rows(self):
        rng = np.random.default_rng(8)
        l0 = Value(rng.standard_normal((5, 2)))
        l1 = Value(rng.standard_normal((5, 3)))
        users = graph.node_rows([l0, l1], np.array([0, 1]))
        items = graph.node_rows([l0, l1], np.array([2, 3, 4]))
        r_users = rng.standard_normal((2, 5))
        r_items = rng.standard_normal((3, 5))
        loss = ad.add(ad.frobenius_sq(ad.mul_const(users, r_users)),
                      ad.frobenius_sq(ad.mul_const(items, r_items)))
        ad.backward(loss)
        # d/dx sum((r*x)^2) = 2 r^2 x, so every row gets its own readout
        readout = np.vstack([r_users, r_items])
        stacked = np.hstack([l0.data, l1.data])
        expected = 2.0 * readout * readout * stacked
        np.testing.assert_allclose(l0.grad, expected[:, :2], rtol=1e-14)
        np.testing.assert_allclose(l1.grad, expected[:, 2:], rtol=1e-14)

    def test_rows_come_in_request_order_with_repeats(self):
        rng = np.random.default_rng(10)
        layers = [Value(rng.standard_normal((6, w))) for w in (2, 3, 1)]
        rows = np.array([4, 0, 4, 2])
        stacked = np.hstack([layer.data for layer in layers])
        np.testing.assert_array_equal(graph.node_rows(layers, rows).data, stacked[rows])

    def test_unrequested_rows_get_zero_gradient_and_repeats_add(self):
        l0 = Value(np.ones((5, 2)))
        l1 = Value(np.ones((5, 3)))
        out = graph.node_rows([l0, l1], np.array([3, 1, 3]))
        ad.backward(ad.mul_const(ad.mean_all(out), float(out.data.size)))  # grad 1 per entry
        np.testing.assert_array_equal(l0.grad[:, 0], [0, 1, 0, 2, 0])
        np.testing.assert_array_equal(l1.grad[:, 0], [0, 1, 0, 2, 0])
        assert l0.grad.shape == (5, 2) and l1.grad.shape == (5, 3)

    def test_equals_gathering_the_whole_concat_bit_for_bit(self):
        # gathering each layer before the concat must not change a value or
        # a gradient against concatenating every node first
        rng = np.random.default_rng(11)
        data = [rng.standard_normal((7, w)) for w in (3, 2)]
        rows = np.array([6, 1, 1, 4, 0])
        readout = rng.standard_normal((rows.size, 5))

        def run(build):
            layers = [Value(d.copy()) for d in data]
            out = build(layers)
            ad.backward(ad.frobenius_sq(ad.mul_const(out, readout)))
            return out.data, [layer.grad for layer in layers]

        new_out, new_grads = run(lambda ls: graph.node_rows(ls, rows))
        old_out, old_grads = run(lambda ls: ad.gather_rows(ad.concat_cols(ls), rows))
        np.testing.assert_array_equal(new_out, old_out)
        for new, old in zip(new_grads, old_grads):
            np.testing.assert_array_equal(new, old)

    def test_no_rows_gives_an_empty_block_and_zero_gradient(self):
        layers = [Value(np.ones((4, 2))) for _ in range(2)]
        out = graph.node_rows(layers, np.array([], dtype=np.int64))
        assert out.shape == (0, 4)
        ad.backward(ad.frobenius_sq(out))
        for layer in layers:
            assert layer.grad is None or not layer.grad.any()


class TestEquivariance:
    def test_permuting_nodes_permutes_embeddings(self):
        rng = np.random.default_rng(7)
        m, n, k = 4, 5, 3
        pairs = {(int(rng.integers(m)), int(rng.integers(n))) for _ in range(10)}
        perm_u = rng.permutation(m)
        perm_i = rng.permutation(n)
        pairs_perm = {(int(perm_u[u]), int(perm_i[i])) for u, i in pairs}

        e0 = rng.standard_normal((m + n, k))
        e0_perm = np.empty_like(e0)
        e0_perm[perm_u] = e0[:m][np.arange(m)]
        e0_perm[m + perm_i] = e0[m:][np.arange(n)]
        w = rng.standard_normal((k, k))
        b = rng.standard_normal((1, k))

        def run(p, e):
            adj = graph.build_bipartite_adjacency(make_set(p, m, n))
            layers = graph.encode_graph(adj, gcn_params(e, [(w, b)]), "gcn", 1)
            return graph.node_rows(layers, np.arange(m + n)).data

        base = run(pairs, e0)
        perm = run(pairs_perm, e0_perm)
        np.testing.assert_allclose(perm[perm_u], base[:m], atol=1e-12)
        np.testing.assert_allclose(perm[m + perm_i], base[m:], atol=1e-12)


class TestGradientFlow:
    def test_finite_diff_through_propagation(self):
        rng = np.random.default_rng(8)
        pairs = {(0, 0), (0, 1), (1, 1), (2, 0)}
        adj = graph.build_bipartite_adjacency(make_set(pairs, 3, 2))
        weights = gcn_params(
            rng.standard_normal((5, 3)),
            [(rng.standard_normal((3, 3)), rng.standard_normal((1, 3))) for _ in range(2)],
        )

        def fn(_):
            layers = graph.encode_graph(adj, weights, "gcn", 2)
            users = graph.node_rows(layers, np.arange(3))
            items = graph.node_rows(layers, 3 + np.arange(2))
            return ad.add(ad.mean_all(ad.square(users)), ad.mean_all(ad.square(items)))

        assert ad.finite_diff_check(fn, list(weights.values())) < 1e-4

    def test_init_shapes(self):
        rng = np.random.default_rng(9)
        params = ad.Params(rng, 0.01)
        graph.init_gcn_weights(params, "gcn", size=7, k=4, num_layers=2)
        shapes = {name: value.shape for name, value in params.items()}
        assert shapes == {
            "gcn.e0": (7, 4),
            "gcn.w0": (4, 4), "gcn.b0": (1, 4),
            "gcn.w1": (4, 4), "gcn.b1": (1, 4),
        }
        assert list(params) == ["gcn.e0", "gcn.w0", "gcn.b0", "gcn.w1", "gcn.b1"]
