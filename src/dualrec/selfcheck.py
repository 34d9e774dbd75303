"""Built-in integrity checks, runnable from the CLI in under a minute.

Four groups: finite-difference gradient checks over every primitive plus a
composed loss graph, mixing-coefficient moment checks, ranking-metric checks
against an independent sort-based oracle, and normalized-adjacency checks
against a dense linear-algebra oracle. This module is the one home of each
oracle: the test suite imports ``PRIMITIVE_CASES``, ``case_leaves``,
``rank_by_sorting`` and ``adjacency_oracle`` from here, and runs each check
once, through ``dualrec selfcheck``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from . import fusion as fu
from .data import InteractionSet
from .evaluation import metrics_at_k, rank_with_ties
from .graph import build_bipartite_adjacency
from .mixup import sample_lambda

GRAD_TOL = 1e-4
MOMENT_DRAWS = 100_000  # lambda draws per alpha
METRIC_CASES, METRIC_CANDIDATES = 200, 999  # one ranking block, as eval ranks it
ADJACENCY_GRAPHS = 50


def _rng(tag: str) -> np.random.Generator:
    return np.random.default_rng(list(tag.encode()))


# a small constant CSR that is not symmetric, so a backward that multiplies
# by a instead of a.T gives wrong values, not just a shape error
_SPMM_A = sp.csr_matrix(np.array([
    [1.0, 0.0, 2.0, 0.0],
    [0.0, 0.0, 0.0, -1.0],
    [3.0, 0.0, 0.0, 0.5],
    [0.0, 1.5, 0.0, 0.0],
]))
_ONEHOT = np.eye(3)[[0, 2, 1, 0]]
_UNIFORM = np.full((4, 2), 0.5)

# (name, scalar loss over the leaves, leaf shapes): one graph per primitive.
# Every op is looked up on the module at call time, so a rebound op is checked.
PRIMITIVE_CASES = [
    ("matmul", lambda ls: ad.mean_all(ad.matmul(*ls)), [(3, 4), (4, 2)]),
    ("add", lambda ls: ad.mean_all(ad.add(*ls)), [(3, 3), (3, 3)]),
    ("affine", lambda ls: ad.mean_all(ad.square(ad.affine(*ls))), [(3, 4), (4, 2), (1, 2)]),
    ("leaky_relu", lambda ls: ad.mean_all(ad.leaky_relu(ls[0])), [(3, 4)]),
    ("exp", lambda ls: ad.mean_all(ad.exp(ls[0])), [(3, 3)]),
    ("square", lambda ls: ad.mean_all(ad.square(ls[0])), [(3, 3)]),
    ("softmax", lambda ls: ad.mean_all(ad.square(ad.softmax_rows(ls[0]))), [(3, 4)]),
    ("frobenius", lambda ls: ad.frobenius_sq(ls[0]), [(3, 3)]),
    ("weighted_sum",
     lambda ls: ad.mean_all(ad.square(ad.weighted_sum(ls[:3], ls[3]))),
     [(3, 4), (3, 4), (3, 4), (3, 3)]),
    ("weighted_sum_one_part",
     lambda ls: ad.mean_all(ad.square(ad.weighted_sum(ls[:1], ls[1]))), [(3, 4), (3, 1)]),
    # the elbo reconstruction's form: mean((x - target)^2)
    ("mse", lambda ls: ad.mean_all(ad.square(ad.affine_const(ls[0], 1.0, -0.25))), [(3, 3)]),
    ("mul_const", lambda ls: ad.mean_all(ad.mul_const(ls[0], 1.7)), [(3, 3)]),
    ("affine_const", lambda ls: ad.mean_all(ad.affine_const(ls[0], 0.5, 0.5)), [(3, 3)]),
    ("kl_div", lambda ls: ad.kl_div(_UNIFORM, ad.softmax_rows(ls[0])), [(4, 2)]),
    ("gather_rows",
     lambda ls: ad.mean_all(ad.square(ad.gather_rows(ls[0], [2, 0, 2, 1]))), [(3, 4)]),
    ("concat_cols", lambda ls: ad.mean_all(ad.square(ad.concat_cols(ls))), [(3, 2), (3, 3)]),
    ("spmm", lambda ls: ad.mean_all(ad.square(ad.spmm(_SPMM_A, ls[0]))), [(4, 3)]),
    # relu's input is shifted; the seeded draws of relu and clamp lie at
    # least 5e-3 from a kink, beyond the stencil's reach of 2h = 6e-4
    ("relu", lambda ls: ad.mean_all(ad.relu(ad.affine_const(ls[0], 1.0, 0.9))), [(3, 4)]),
    ("clamp", lambda ls: ad.mean_all(ad.clamp(ls[0], -0.7, 0.7)), [(3, 4)]),
    ("sub", lambda ls: ad.mean_all(ad.square(ad.sub(*ls))), [(3, 3), (3, 3)]),
    ("row_cosine", lambda ls: ad.mean_all(ad.row_cosine(*ls)), [(4, 3), (4, 3)]),
    ("cross_entropy", lambda ls: ad.cross_entropy(ad.softmax_rows(ls[0]), _ONEHOT), [(4, 3)]),
    # a strictly increasing index writes its gradient by rows, as every
    # graph.node_rows call does; the index above takes the selector product
    ("gather_rows_increasing",
     lambda ls: ad.mean_all(ad.square(ad.gather_rows(ls[0], [0, 2]))), [(3, 4)]),
]


def case_leaves(name: str, shapes) -> list[ad.Value]:
    """Standard-normal leaves for case ``name``, seeded by the name."""
    rng = _rng(name)
    return [ad.Value(rng.standard_normal(s)) for s in shapes]


def _composite_case() -> float:
    """FD over a small fused scoring loss, touching most ops at once."""
    rng = _rng("selfcheck.composite")
    k, m = 3, 4
    inputs, weights = ad.Params(rng, 0.4), ad.Params(rng, 0.3)
    codes = [inputs.new(f"code{c}", (m, k)) for c in range(3)]
    fu.init_fusion_weights(weights, "fus", k, 3)
    fu.init_tower_weights(weights, "tow", k, k)
    items = inputs.new("items", (m, k))
    labels = np.array([1.0, 0.0, 1.0, 0.0])
    leaves = list(inputs.values()) + list(weights.values())

    def fn(_):
        fused = fu.fuse(codes, "attention", weights, "fus")
        s = fu.tower_forward(fused, weights, "tow")
        y = fu.predict(s, items)
        return fu.loss_prd(y, labels, s, items, gamma=0.01)

    return ad.finite_diff_check(fn, leaves)


def check_gradients() -> tuple[bool, str]:
    errors = [(name, ad.finite_diff_check(fn, case_leaves(name, shapes)))
              for name, fn, shapes in PRIMITIVE_CASES]
    errors.append(("composite_loss", _composite_case()))
    worst_name, worst = max(errors, key=lambda case: case[1])
    ok = worst < GRAD_TOL
    return ok, f"max relative FD error {worst:.3e} ({worst_name}), tolerance {GRAD_TOL:.0e}"


def check_mixing_moments() -> tuple[bool, str]:
    details = []
    ok = True
    for alpha in (0.5, 1.0, 5.0):
        rng = _rng(f"selfcheck.beta.{alpha}")
        samples = np.array([sample_lambda(alpha, rng) for _ in range(MOMENT_DRAWS)])
        mean_err = abs(samples.mean() - 0.5)
        var_err = abs(samples.var() - 1.0 / (4.0 * (2.0 * alpha + 1.0)))
        ok = ok and mean_err < 0.005 and var_err < 0.002
        details.append(f"alpha={alpha}: |dmean|={mean_err:.4f} |dvar|={var_err:.4f}")
    return ok, "; ".join(details)


def rank_by_sorting(neg_scores: np.ndarray, pos_score: float) -> int:
    """Independent rank oracle: explicit sort with the held-out item last
    inside its tie class."""
    keyed = sorted([(-float(s), 0) for s in neg_scores] + [(-float(pos_score), 1)])
    return 1 + [tag for _, tag in keyed].index(1)


def check_metrics() -> tuple[bool, str]:
    """Rank every case as one block, as eval does, against the sort oracle."""
    rng = _rng("selfcheck.metrics")
    scores = np.empty((METRIC_CASES, METRIC_CANDIDATES))
    pos = np.empty(METRIC_CASES)
    for case in range(METRIC_CASES):
        if case % 2 == 0:
            scores[case] = rng.normal(size=METRIC_CANDIDATES)
            pos[case] = rng.normal()
        else:  # coarse grid forces ties, including at the held-out score
            scores[case] = rng.integers(0, 40, size=METRIC_CANDIDATES) / 10.0
            pos[case] = rng.integers(0, 40) / 10.0
    ranks = rank_with_ties(scores, pos)
    hr, ndcg = metrics_at_k(ranks, 10)
    oracle = [rank_by_sorting(row, p) for row, p in zip(scores, pos)]
    mismatches = int(np.count_nonzero((ranks != oracle) | (ndcg > hr)))
    return mismatches == 0, f"{METRIC_CASES} cases, {mismatches} oracle mismatches"


def adjacency_oracle(pairs, num_users: int, num_items: int) -> np.ndarray:
    """Dense ``D^-1/2 (A + I) D^-1/2`` of the user-item graph of ``pairs``."""
    m, n = num_users, num_items
    a_tilde = np.eye(m + n)
    for u, i in pairs:
        a_tilde[u, m + i] = a_tilde[m + i, u] = 1.0
    d_inv_sqrt = 1.0 / np.sqrt(a_tilde.sum(axis=1))
    return a_tilde * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]


def check_adjacency() -> tuple[bool, str]:
    rng = _rng("selfcheck.adjacency")
    worst = 0.0
    worst_sym = 0.0
    worst_rho = 0.0
    for _ in range(ADJACENCY_GRAPHS):
        m = int(rng.integers(2, 21))
        n = int(rng.integers(2, 21))
        interactions = {(u, i) for u in range(m) for i in range(n) if rng.random() < 0.3}
        interactions.add((0, 0))
        adj = build_bipartite_adjacency(InteractionSet.from_pairs(m, n, interactions))
        dense = adj.matrix.toarray()
        oracle = adjacency_oracle(interactions, m, n)
        worst = max(worst, float(np.abs(dense - oracle).max()))
        worst_sym = max(worst_sym, float(np.abs(dense - dense.T).max()))
        worst_rho = max(worst_rho, float(np.abs(np.linalg.eigvalsh(dense)).max()))
    ok = worst <= 1e-12 and worst_sym == 0.0 and worst_rho <= 1.0 + 1e-10
    return ok, (
        f"{ADJACENCY_GRAPHS} graphs: max|sparse-dense|={worst:.2e}, "
        f"max asymmetry={worst_sym:.1e}, max spectral radius={worst_rho:.12f}"
    )


def run_selfcheck() -> tuple[bool, list[str]]:
    """Run all checks; returns overall pass flag and printable report lines."""
    checks = [
        ("gradients", check_gradients),
        ("mixing_moments", check_mixing_moments),
        ("ranking_metrics", check_metrics),
        ("adjacency", check_adjacency),
    ]
    lines = []
    all_ok = True
    for name, fn in checks:
        ok, detail = fn()
        all_ok = all_ok and ok
        lines.append(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    lines.append("selfcheck " + ("passed" if all_ok else "FAILED"))
    return all_ok, lines
