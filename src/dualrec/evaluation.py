"""Leave-one-out ranking evaluation with pessimistic tie handling.

Every scorer is ranked by ``rank_domain(score_rows, split, top_k)``, where
``score_rows(users)`` returns the (users x items) float64 scores of a block
of test users. It scores consecutive test users in blocks of at most
``BLOCK_SCORES`` scores, so no users x items array is built, reads each
block's candidate and held-out scores out of them (a domain's frozen
candidates are int32 rows, stacked per block into one index array) and ranks
the block at once (on rung M, 6,000 items, domain A takes 6 blocks of 699
users). Ties rank the held-out item last within its tie class, so
a scorer that scores everything equally earns rank 1000, not rank 1. A
``top_k`` above the candidates per test user, which makes every rank a hit,
raises ``ProtocolError`` (CLI exit 2); a non-finite score raises
``ArtifactError`` (exit 3).

The model's scorer, ``evaluate_domain``, is the cosine of the (``s``, ``t``)
pair that ``model_representations`` returns per domain tag: the training
``model.forward`` over every user and item at lambda = 0.5, run under
``autodiff.no_grad`` so it records no tape. The items are row-normalised once
per domain and a block's users once; a row whose norm overflows raises
``ArtifactError``. A block's scores are one gemm, which over another row block
may round differently in the last bit; the default ``synth`` spec ranks each
domain in one block. ``popularity_scorer`` gives each item its train degree.
``item_knn_scorer`` gives ``R[users] @ S`` for the dense train matrix ``R`` and
``S = R^T R / (sqrt(d_i) sqrt(d_j))``, zero on the diagonal and for items of
degree 0; ``R`` and ``S`` take about 3 MB and 5 MB per domain on rung S and
190 MB and 290 MB on rung M.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .autodiff import NORM_EPS, no_grad
from .config import RunConfig, config_lines
from .data import ArtifactError, ProtocolError, SplitDataset
from .model import DOMAINS, ModelState, forward

EVAL_LAMBDA = 0.5  # midpoint interpolation for the deterministic eval path
BLOCK_SCORES = 1 << 22  # most scores of one ranking block: 32 MiB of float64


def rank_with_ties(neg_scores: np.ndarray, pos_scores: np.ndarray) -> np.ndarray:
    """1-based rank of each row's held-out item, placed last among equal scores.

    ``neg_scores`` is a block of candidate rows, ``pos_scores`` the held-out
    score of each row.
    """
    return 1 + (neg_scores >= pos_scores[:, None]).sum(axis=1)


def metrics_at_k(ranks: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(HR@k, NDCG@k) of each rank in ``ranks``."""
    hit = ranks <= k
    return hit.astype(np.float64), np.where(hit, 1.0 / np.log2(ranks + 1), 0.0)


@dataclass
class DomainMetrics:
    hr: float
    ndcg: float
    num_test: int
    ranks: dict[int, int]


@dataclass
class EvalReport:
    domain_a: DomainMetrics
    domain_b: DomainMetrics
    seed: int
    wallclock_s: float
    config: RunConfig

    def to_text(self) -> str:
        lines = [
            f"hr_a = {self.domain_a.hr:.6f}",
            f"ndcg_a = {self.domain_a.ndcg:.6f}",
            f"hr_b = {self.domain_b.hr:.6f}",
            f"ndcg_b = {self.domain_b.ndcg:.6f}",
            f"num_test_a = {self.domain_a.num_test}",
            f"num_test_b = {self.domain_b.num_test}",
            f"seed = {self.seed}",
            f"wallclock_s = {self.wallclock_s:.3f}",
        ]
        lines.extend(f"config.{line}" for line in config_lines(self.config))
        for tag, dm in (("a", self.domain_a), ("b", self.domain_b)):
            body = ",".join(f"{u}:{r}" for u, r in sorted(dm.ranks.items()))
            lines.append(f"ranks_{tag} = {body}")
        return "\n".join(lines) + "\n"


def _normalize_rows(x: np.ndarray, what: str) -> np.ndarray:
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(x, axis=1, keepdims=True)
    if not np.isfinite(norms).all():
        raise ArtifactError(f"a {what} representation has a non-finite norm")
    return x / np.maximum(norms, NORM_EPS)


def check_top_k(split: SplitDataset, top_k: int) -> None:
    """``ProtocolError`` unless every test user has at least ``top_k`` candidates."""
    if split.eval_candidates is None:
        raise ProtocolError("evaluation requires frozen candidate lists")
    fewest = min(map(len, split.eval_candidates.values()), default=top_k)
    if top_k > fewest:
        raise ProtocolError(f"top_k = {top_k} exceeds the {fewest} candidates per test user")


def rank_domain(
    score_rows: Callable[[np.ndarray], np.ndarray], split: SplitDataset, top_k: int
) -> DomainMetrics:
    """Rank every test user of one domain by ``score_rows``, a block of users at a time."""
    check_top_k(split, top_k)
    if not len(split.test):
        return DomainMetrics(hr=0.0, ndcg=0.0, num_test=0, ranks={})
    users, held = split.test.T
    rows = max(1, BLOCK_SCORES // split.train.num_items)
    ranks = np.empty(users.size, dtype=np.int64)
    for start in range(0, users.size, rows):
        block = slice(start, start + rows)
        cands = np.array([split.eval_candidates[u] for u in users[block].tolist()])
        with np.errstate(all="ignore"):
            scores = score_rows(users[block])
        neg = np.take_along_axis(scores, cands, axis=1)
        pos = np.take_along_axis(scores, held[block, None], axis=1)[:, 0]
        if not (np.isfinite(neg).all() and np.isfinite(pos).all()):
            raise ArtifactError("a scorer returned a non-finite score")
        ranks[block] = rank_with_ties(neg, pos)
        del scores, neg  # the next block's product must not meet this one
    hr, ndcg = metrics_at_k(ranks, top_k)
    # sequential sums in test order; np.sum's pairwise order can move ndcg by an ulp
    return DomainMetrics(
        hr=sum(hr.tolist()) / users.size,
        ndcg=sum(ndcg.tolist()) / users.size,
        num_test=users.size,
        ranks=dict(zip(users.tolist(), ranks.tolist())),
    )


def evaluate_domain(s: np.ndarray, t: np.ndarray, split: SplitDataset, top_k: int) -> DomainMetrics:
    """Rank one domain by the cosine of its user and item representations."""
    items = _normalize_rows(t, "item").T
    return rank_domain(lambda users: _normalize_rows(s[users], "user") @ items, split, top_k)


def popularity_scorer(split: SplitDataset) -> Callable[[np.ndarray], np.ndarray]:
    """Scores of every item by its train degree, the same for every user."""
    degree = np.bincount(split.train.indices, minlength=split.train.num_items).astype(np.float64)
    return lambda users: np.broadcast_to(degree, (len(users), degree.size))


def item_knn_scorer(split: SplitDataset) -> Callable[[np.ndarray], np.ndarray]:
    """Scores ``R[users] @ S``, ``S`` the cosine item-item matrix of the train set."""
    train = split.train
    r = np.zeros((train.num_users, train.num_items))
    r[tuple(train.interactions.T)] = 1.0
    degree = r.sum(axis=0)
    inv_root = np.divide(1.0, np.sqrt(degree), out=np.zeros_like(degree), where=degree > 0)
    sim = (r.T @ r) * inv_root[:, None] * inv_root[None, :]
    np.fill_diagonal(sim, 0.0)
    return lambda users: r[users] @ sim


def model_representations(model: ModelState) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Deterministic user/item representations ``{tag: (s, t)}``, untaped."""
    num_users = model.adjacency_a.num_users
    with no_grad():
        fwd = forward(model, np.arange(num_users), EVAL_LAMBDA)
        return {tag: (fwd.s[tag].data, fwd.t[tag].data) for tag in DOMAINS}


def evaluate_model(
    model: ModelState,
    split_a: SplitDataset,
    split_b: SplitDataset,
) -> EvalReport:
    start = time.perf_counter()
    cfg = model.config
    reps = model_representations(model)
    metrics = {
        tag: evaluate_domain(*reps[tag], split, cfg.top_k)
        for tag, split in zip(DOMAINS, (split_a, split_b))
    }
    return EvalReport(
        domain_a=metrics["a"],
        domain_b=metrics["b"],
        seed=cfg.seed,
        wallclock_s=time.perf_counter() - start,
        config=cfg,
    )
