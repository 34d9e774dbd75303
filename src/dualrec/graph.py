"""Bipartite graph construction and graph-convolutional propagation.

The user-item matrix R becomes the square adjacency [[0, R], [R^T, 0]] plus
the identity, normalized symmetrically by inverse square-root degrees. The
normalization scales each stored entry by dinv[row]*dinv[col], a commutative
product, so the sparse matrix is exactly symmetric rather than symmetric up
to floating-point association order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .autodiff import Value
from .data import InteractionSet


@dataclass
class NormalizedAdjacency:
    size: int
    num_users: int
    num_items: int
    matrix: sp.csr_matrix


@dataclass
class GcnWeights:
    """Initial node embedding plus per-layer weight/bias pairs."""

    e0: Value
    layers: list[tuple[Value, Value]]

    @property
    def k(self) -> int:
        return self.e0.shape[1]

    @property
    def num_layers(self) -> int:
        return len(self.layers)


@dataclass
class NodeEmbeddings:
    users: Value
    items: Value


def build_bipartite_adjacency(train: InteractionSet) -> NormalizedAdjacency:
    """Self-looped, symmetrically normalized bipartite adjacency."""
    if not train.indices.size:
        raise ad.ContractError("cannot build adjacency from an empty interaction set")
    m, n = train.num_users, train.num_items
    size = m + n
    users, items = train.interactions.T

    rows = np.concatenate([users, items + m, np.arange(size)])
    cols = np.concatenate([items + m, users, np.arange(size)])

    degrees = np.bincount(rows, minlength=size).astype(np.float64)
    # self-loops guarantee degree >= 1 for every node
    dinv = 1.0 / np.sqrt(degrees)
    scaled = dinv[rows] * dinv[cols]
    matrix = sp.csr_matrix((scaled, (rows, cols)), shape=(size, size))
    return NormalizedAdjacency(size=size, num_users=m, num_items=n, matrix=matrix)


def init_gcn_weights(
    size: int, k: int, num_layers: int, rng: np.random.Generator, std: float = 0.01
) -> GcnWeights:
    e0 = Value(rng.normal(0.0, std, size=(size, k)))
    layers = [
        (
            Value(rng.normal(0.0, std, size=(k, k))),
            Value(rng.normal(0.0, std, size=(1, k))),
        )
        for _ in range(num_layers)
    ]
    return GcnWeights(e0=e0, layers=layers)


def propagate(adjacency: NormalizedAdjacency, weights: GcnWeights) -> list[Value]:
    """Return [E0, E1, ..., El] with El = ReLU(A_hat E_{l-1} W_l + b_l)."""
    if weights.num_layers < 1:
        raise ad.ContractError("propagation needs at least one layer")
    outs = [weights.e0]
    for w, b in weights.layers:
        agg = ad.spmm(adjacency.matrix, outs[-1])
        outs.append(ad.relu(ad.affine(agg, w, b)))
    return outs


def assemble_node_embeddings(layers: list[Value], num_users: int) -> NodeEmbeddings:
    """Concatenate all layers columnwise and split rows into users and items."""
    stacked = ad.concat_cols(layers)
    users = ad.slice_rows(stacked, 0, num_users)
    items = ad.slice_rows(stacked, num_users, stacked.shape[0])
    return NodeEmbeddings(users=users, items=items)


def encode_graph(adjacency: NormalizedAdjacency, weights: GcnWeights) -> NodeEmbeddings:
    return assemble_node_embeddings(propagate(adjacency, weights), adjacency.num_users)
