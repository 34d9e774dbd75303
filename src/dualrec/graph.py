"""Bipartite graph construction and graph-convolutional propagation.

The user-item matrix R becomes the square adjacency [[0, R], [R^T, 0]] plus
the identity, normalized symmetrically by inverse square-root degrees. The
normalization scales each stored entry by dinv[row]*dinv[col], a commutative
product, so the sparse matrix is exactly symmetric rather than symmetric up
to floating-point association order.

``encode_graph`` reads a domain's weights by name from a parameter dict
(``<name>.e0``, then ``<name>.w<i>`` and ``<name>.b<i>`` per layer) and
returns the layer list [E0, ..., El] over every node (users first, then items
offset by the user count). A node's embedding is its row of every layer,
concatenated columnwise; ``node_rows`` builds it for just the rows a pass
reads, gathering each layer before the concat, so the backward never forms a
gradient the size of the whole concat.
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


def init_gcn_weights(params: ad.Params, name: str, size: int, k: int, num_layers: int) -> None:
    params.new(f"{name}.e0", (size, k))
    for idx in range(num_layers):
        params.new(f"{name}.w{idx}", (k, k))
        params.new(f"{name}.b{idx}", (1, k))


def encode_graph(
    adjacency: NormalizedAdjacency, params: dict[str, Value], name: str, num_layers: int
) -> list[Value]:
    """Return [E0, E1, ..., El] with El = ReLU(A_hat E_{l-1} W_l + b_l)."""
    if num_layers < 1:
        raise ad.ContractError("propagation needs at least one layer")
    outs = [params[f"{name}.e0"]]
    for idx in range(num_layers):
        agg = ad.spmm(adjacency.matrix, outs[-1])
        outs.append(ad.relu(ad.affine(agg, params[f"{name}.w{idx}"], params[f"{name}.b{idx}"])))
    return outs


def node_rows(layers: list[Value], rows: np.ndarray) -> Value:
    """Node embeddings [E0 | E1 | ... | El] of ``rows`` only."""
    return ad.concat_cols([ad.gather_rows(layer, rows) for layer in layers])
