"""Toy inputs shared by the tests: interaction sets, splits, adjacencies and a
small run config.

Every helper builds the same inputs on every call, so tests that pin bits
can use them.
"""

import functools

import numpy as np

from dualrec.config import RunConfig
from dualrec.data import InteractionSet, freeze_splits
from dualrec.graph import build_bipartite_adjacency

# a RunConfig that trains ``tiny_splits`` in milliseconds; a test passes the
# fields it changes, and a file with other base values makes its own partial
config = functools.partial(RunConfig, k=4, l=1, epochs=2, lr=0.02, batch_size=32,
                           neg_ratio=2, eval_negatives=3, top_k=3, seed=0, init_std=0.2)


def make_set(pairs, num_users, num_items) -> InteractionSet:
    return InteractionSet.from_pairs(num_users, num_items, pairs)


def random_set(num_users, num_items, per_user, seed) -> InteractionSet:
    """Every user with ``per_user`` distinct items drawn from stream ``seed``."""
    rng = np.random.default_rng(seed)
    pairs = set()
    for u in range(num_users):
        for i in rng.choice(num_items, size=per_user, replace=False):
            pairs.add((u, int(i)))
    return make_set(pairs, num_users, num_items)


def tiny_splits(seed=0):
    """Frozen splits of 8 users over 14 and 12 items, 3 candidates per test user."""
    set_a = random_set(8, 14, 5, seed=seed + 100)
    set_b = random_set(8, 12, 4, seed=seed + 200)
    return freeze_splits(set_a, set_b, seed=seed, n_candidates=3)


PAIRS_A = [(0, 0), (0, 1), (1, 2), (1, 3), (2, 4), (2, 0), (3, 5), (3, 1)]
PAIRS_B = [(0, 5), (0, 4), (1, 0), (1, 1), (2, 2), (2, 3), (3, 4), (3, 2)]


def toy_adjacencies():
    """Adjacencies of two domains of 4 users and 6 items, two items per user."""
    return (
        build_bipartite_adjacency(make_set(PAIRS_A, 4, 6)),
        build_bipartite_adjacency(make_set(PAIRS_B, 4, 6)),
    )
