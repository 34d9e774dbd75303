"""Built-in integrity checks, runnable from the CLI in under a minute.

Four groups: finite-difference gradient checks over every primitive plus a
composed loss graph, mixing-coefficient moment checks, ranking-metric checks
against an independent sort-based oracle, and normalized-adjacency checks
against a dense linear-algebra oracle.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import fusion as fu
from .data import InteractionSet
from .evaluation import metrics_at_k, rank_with_ties
from .graph import build_bipartite_adjacency
from .mixup import sample_lambda

GRAD_TOL = 1e-4


def _rng(tag: str) -> np.random.Generator:
    return np.random.default_rng(list(tag.encode()))


def _leaf(rng: np.random.Generator, shape, scale: float = 1.0) -> ad.Value:
    return ad.Value(rng.normal(0.0, scale, size=shape))


def _mix(value: ad.Value, weights: np.ndarray) -> ad.Value:
    # random linear readout keeps the check well conditioned
    return ad.mul_const(value, weights)


def _fd(fn, leaves) -> float:
    return ad.finite_diff_check(fn, leaves)


def _primitive_cases() -> list[tuple[str, float]]:
    """(name, max relative FD error) for each differentiable primitive.

    Every readout weight matrix is frozen at build time; redrawing it per
    evaluation would break the finite-difference comparison.
    """
    cases: list[tuple[str, float]] = []

    def check(name: str, leaves: list[ad.Value], fn) -> None:
        cases.append((name, _fd(fn, leaves)))

    def simple(name: str, op) -> None:
        rng = _rng("selfcheck." + name)
        x = _leaf(rng, (3, 4))
        w = rng.normal(size=(3, 4))
        check(name, [x], lambda _: ad.mean_all(_mix(op(x), w)))

    def binary(name: str, op, shape_b=(3, 4)) -> None:
        rng = _rng("selfcheck." + name)
        a = _leaf(rng, (3, 4))
        b = _leaf(rng, shape_b)
        w = rng.normal(size=op(a, b).data.shape)
        check(name, [a, b], lambda _: ad.mean_all(_mix(op(a, b), w)))

    binary("add", ad.add)
    binary("sub", ad.sub)
    simple("mul_const", lambda x: ad.mul_const(x, 1.7))
    simple("affine_const", lambda x: ad.affine_const(x, 0.8, -0.3))
    simple("relu", lambda x: ad.relu(ad.affine_const(x, 1.0, 0.9)))
    simple("leaky_relu", lambda x: ad.leaky_relu(ad.affine_const(x, 1.0, 0.9)))
    simple("exp", ad.exp)
    simple("square", lambda x: ad.square(ad.affine_const(x, 1.0, 1.5)))
    simple("clamp", lambda x: ad.clamp(x, -0.7, 0.7))
    simple("softmax_rows", ad.softmax_rows)
    binary("matmul", ad.matmul, shape_b=(4, 2))
    binary("add_rowvec", ad.add_rowvec, shape_b=(1, 4))
    binary("scale_rows", ad.scale_rows, shape_b=(3, 1))

    rng = _rng("selfcheck.spmm")
    interactions = {(u, i) for u in range(3) for i in range(4) if rng.random() < 0.6}
    interactions.add((0, 0))
    adj = build_bipartite_adjacency(InteractionSet.from_pairs(3, 4, interactions))
    x = _leaf(rng, (7, 3))
    w = rng.normal(size=(7, 3))
    check("spmm", [x], lambda _: ad.mean_all(_mix(ad.spmm(adj.matrix, x), w)))

    rng = _rng("selfcheck.gather_rows")
    x = _leaf(rng, (5, 3))
    idx = np.array([0, 2, 2, 4])
    w = rng.normal(size=(4, 3))
    check("gather_rows", [x], lambda _: ad.mean_all(_mix(ad.gather_rows(x, idx), w)))

    rng = _rng("selfcheck.concat_cols")
    a = _leaf(rng, (3, 2))
    b = _leaf(rng, (3, 3))
    w = rng.normal(size=(3, 5))
    check("concat_cols", [a, b], lambda _: ad.mean_all(_mix(ad.concat_cols([a, b]), w)))

    rng = _rng("selfcheck.slice_cols")
    x = _leaf(rng, (3, 5))
    w = rng.normal(size=(3, 3))
    check("slice_cols", [x], lambda _: ad.mean_all(_mix(ad.slice_cols(x, 1, 4), w)))

    rng = _rng("selfcheck.slice_rows")
    x = _leaf(rng, (5, 3))
    w = rng.normal(size=(3, 3))
    check("slice_rows", [x], lambda _: ad.mean_all(_mix(ad.slice_rows(x, 1, 4), w)))

    rng = _rng("selfcheck.row_cosine")
    s = _leaf(rng, (4, 3))
    t = _leaf(rng, (4, 3))
    w = rng.normal(size=(4, 1))
    check("row_cosine", [s, t], lambda _: ad.mean_all(_mix(ad.row_cosine(s, t), w)))

    rng = _rng("selfcheck.cross_entropy")
    x = _leaf(rng, (4, 2))
    onehot = np.zeros((4, 2))
    onehot[np.arange(4), rng.integers(0, 2, size=4)] = 1.0
    check("cross_entropy", [x], lambda _: ad.cross_entropy(ad.softmax_rows(x), onehot))

    rng = _rng("selfcheck.kl_div")
    x = _leaf(rng, (4, 2))
    check("kl_div", [x], lambda _: ad.kl_div(np.full((4, 2), 0.5), ad.softmax_rows(x)))

    rng = _rng("selfcheck.frobenius_sq")
    x = _leaf(rng, (3, 4))
    check("frobenius_sq", [x], lambda _: ad.frobenius_sq(x))

    rng = _rng("selfcheck.mean_all")
    x = _leaf(rng, (3, 4))
    check("mean_all", [x], lambda _: ad.mean_all(x))
    return cases


def _composite_case() -> float:
    """FD over a small fused scoring loss, touching most ops at once."""
    rng = _rng("selfcheck.composite")
    k, m = 3, 4
    codes = [_leaf(rng, (m, k), 0.4) for _ in range(3)]
    fw = fu.init_fusion_weights(k, 3, rng, std=0.3)
    tower = fu.init_tower_weights(k, k, rng, std=0.3)
    items = _leaf(rng, (m, k), 0.4)
    labels = np.array([1.0, 0.0, 1.0, 0.0])
    leaves = codes + [items] + fw.w_components + [fw.w_s] + tower.weights

    def fn(_):
        fused = fu.fuse(codes, "attention", fw)
        s = fu.tower_forward(fused, tower)
        y = fu.predict(s, items)
        return fu.loss_prd(y, labels, s, items, gamma=0.01)

    return _fd(fn, leaves)


def check_gradients() -> tuple[bool, str]:
    worst_name, worst = "", 0.0
    for name, err in _primitive_cases() + [("composite_loss", _composite_case())]:
        if err > worst:
            worst_name, worst = name, err
    ok = worst < GRAD_TOL
    return ok, f"max relative FD error {worst:.3e} ({worst_name}), tolerance {GRAD_TOL:.0e}"


def check_mixing_moments(draws: int = 100_000) -> tuple[bool, str]:
    details = []
    ok = True
    for alpha in (0.5, 1.0, 5.0):
        rng = _rng(f"selfcheck.beta.{alpha}")
        samples = np.array([sample_lambda(alpha, rng) for _ in range(draws)])
        mean_err = abs(samples.mean() - 0.5)
        var_err = abs(samples.var() - 1.0 / (4.0 * (2.0 * alpha + 1.0)))
        ok = ok and mean_err <= 0.005 and var_err <= 0.003
        details.append(f"alpha={alpha}: |dmean|={mean_err:.4f} |dvar|={var_err:.4f}")
    return ok, "; ".join(details)


def rank_by_sorting(neg_scores: np.ndarray, pos_score: float) -> int:
    """Independent rank oracle: explicit sort with the held-out item last
    inside its tie class."""
    entries = [(-float(s), 0, idx) for idx, s in enumerate(neg_scores)]
    entries.append((-float(pos_score), 1, -1))
    entries.sort()
    for position, entry in enumerate(entries):
        if entry[1] == 1:
            return position + 1
    raise AssertionError("held-out entry lost during sort")


def check_metrics(cases: int = 200, candidates: int = 999) -> tuple[bool, str]:
    """Rank every case as one block, as eval does, against the sort oracle."""
    rng = _rng("selfcheck.metrics")
    scores = np.empty((cases, candidates))
    pos = np.empty(cases)
    for case in range(cases):
        if case % 2 == 0:
            scores[case] = rng.normal(size=candidates)
            pos[case] = rng.normal()
        else:  # coarse grid forces ties, including at the held-out score
            scores[case] = rng.integers(0, 40, size=candidates) / 10.0
            pos[case] = rng.integers(0, 40) / 10.0
    ranks = rank_with_ties(scores, pos)
    hr, ndcg = metrics_at_k(ranks, 10)
    oracle = [rank_by_sorting(row, p) for row, p in zip(scores, pos)]
    mismatches = int(np.count_nonzero((ranks != oracle) | (ndcg > hr)))
    return mismatches == 0, f"{cases} cases, {mismatches} oracle mismatches"


def check_adjacency(graphs: int = 50) -> tuple[bool, str]:
    rng = _rng("selfcheck.adjacency")
    worst = 0.0
    worst_sym = 0.0
    worst_rho = 0.0
    for _ in range(graphs):
        m = int(rng.integers(2, 21))
        n = int(rng.integers(2, 21))
        interactions = {(u, i) for u in range(m) for i in range(n) if rng.random() < 0.3}
        interactions.add((0, 0))
        adj = build_bipartite_adjacency(InteractionSet.from_pairs(m, n, interactions))
        dense = adj.matrix.toarray()

        r = np.zeros((m, n))
        for u, i in interactions:
            r[u, i] = 1.0
        a_tilde = np.zeros((m + n, m + n))
        a_tilde[:m, m:] = r
        a_tilde[m:, :m] = r.T
        a_tilde += np.eye(m + n)
        d_inv_sqrt = 1.0 / np.sqrt(a_tilde.sum(axis=1))
        oracle = a_tilde * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]

        worst = max(worst, float(np.abs(dense - oracle).max()))
        worst_sym = max(worst_sym, float(np.abs(dense - dense.T).max()))
        worst_rho = max(worst_rho, float(np.abs(np.linalg.eigvalsh(dense)).max()))
    ok = worst <= 1e-12 and worst_sym == 0.0 and worst_rho <= 1.0 + 1e-10
    return ok, (
        f"{graphs} graphs: max|sparse-dense|={worst:.2e}, "
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
