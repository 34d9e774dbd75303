"""Interaction pairs as Python sets, for tests that check by membership.

``InteractionSet.interactions`` is an (n, 2) array, on which ``in`` and
``==`` act elementwise; tests compare these sets instead.
"""


def pair_set(iset) -> set[tuple[int, int]]:
    """The ``(user, item)`` pairs of an InteractionSet as a set of int tuples."""
    return set(map(tuple, iset.interactions.tolist()))


def items_by_user(iset) -> dict[int, set[int]]:
    """Each user's items as a set; a user without interactions maps to an empty set."""
    out: dict[int, set[int]] = {u: set() for u in range(iset.num_users)}
    for u, i in iset.interactions.tolist():
        out[u].add(i)
    return out
