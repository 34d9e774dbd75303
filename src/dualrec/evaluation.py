"""Leave-one-out ranking evaluation with pessimistic tie handling.

One deterministic forward pass freezes every user and item representation.
It is the training ``model.forward``, called without ``item_indices`` so it
covers every item of both domains, and run under ``autodiff.no_grad``, so it
records no tape and each intermediate is freed once the next layer no longer
needs it. ``model_representations`` returns its (``s``, ``t``) pair per
domain, keyed by domain tag. Each domain's item representations are then
row-normalised once, and its test users are scored in blocks of consecutive
users, each block one product of its row-normalised user representations
with the items, at most ``BLOCK_SCORES`` scores. A block's candidate scores
and held-out scores are read out of its product, and its users are ranked
at once; no users x items array is built. A domain's frozen candidates are
int32 rows (one per test user), stacked per block into one index array for
that read-out. The default ``synth`` spec fits each domain in one block, so
its scores are the single product's; a gemm over a different row block may
round differently in the last bit. Ties rank the held-out item last within
its tie class, so a degenerate model that scores everything equally earns
rank 1000, not rank 1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .autodiff import NORM_EPS, no_grad
from .config import RunConfig, config_lines
from .data import ProtocolError, SplitDataset
from .model import DOMAINS, ModelState, forward

EVAL_LAMBDA = 0.5  # midpoint interpolation for the deterministic eval path
BLOCK_SCORES = 1 << 22  # most scores of one ranking block: 32 MiB of float64


def rank_with_ties(neg_scores: np.ndarray, pos_score: float | np.ndarray) -> int | np.ndarray:
    """1-based rank of the held-out item, placed last among equal scores.

    Row-wise: ``neg_scores`` may be a block of rows with one ``pos_score``
    per row, giving one rank per row; a single row gives an ``int``.
    """
    neg = np.asarray(neg_scores, dtype=np.float64)
    pos = np.asarray(pos_score, dtype=np.float64)
    ranks = 1 + (neg >= pos[..., None]).sum(axis=-1)
    return int(ranks) if ranks.ndim == 0 else ranks


def metrics_at_k(rank: int | np.ndarray, k: int) -> tuple:
    """(HR@k, NDCG@k) of a rank, or of an array of ranks element-wise."""
    ranks = np.asarray(rank)
    hit = ranks <= k
    hr = hit.astype(np.float64)
    ndcg = np.where(hit, 1.0 / np.log2(ranks + 1), 0.0)
    if ranks.ndim == 0:
        return float(hr), float(ndcg)
    return hr, ndcg


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


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return x / np.maximum(norms, NORM_EPS)


def evaluate_domain(
    s: np.ndarray,
    t: np.ndarray,
    split: SplitDataset,
    top_k: int,
) -> DomainMetrics:
    """Rank every test user of one domain, a block of users at a time."""
    if split.eval_candidates is None:
        raise ProtocolError("evaluation requires frozen candidate lists")
    if not len(split.test):
        return DomainMetrics(hr=0.0, ndcg=0.0, num_test=0, ranks={})
    users, held = split.test.T
    items = _normalize_rows(t).T
    rows = max(1, BLOCK_SCORES // items.shape[1])
    ranks = np.empty(users.size, dtype=np.int64)
    for start in range(0, users.size, rows):
        block = slice(start, start + rows)
        cands = np.array([split.eval_candidates[u] for u in users[block].tolist()])
        scores = _normalize_rows(s[users[block]]) @ items
        pos = np.take_along_axis(scores, held[block, None], axis=1)[:, 0]
        ranks[block] = rank_with_ties(np.take_along_axis(scores, cands, axis=1), pos)
        del scores  # the next block's product must not meet this one
    hr, ndcg = metrics_at_k(ranks, top_k)
    # sequential sums in test order; np.sum's pairwise order can move ndcg by an ulp
    return DomainMetrics(
        hr=sum(hr.tolist()) / users.size,
        ndcg=sum(ndcg.tolist()) / users.size,
        num_test=users.size,
        ranks=dict(zip(users.tolist(), ranks.tolist())),
    )


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
