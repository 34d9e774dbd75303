"""Interaction data handling for the two-domain recommender.

Covers ingestion of rating files, binarization with iterative minimum-count
filtering, common-user alignment across the two domains, leave-one-out
splitting, cold-item filtering of the test set, negative sampling for
training, and frozen candidate sampling for ranking evaluation. All
operations are deterministic given their inputs and a seed.

Interactions are stored as a set of (user, item) pairs. The samplers work
on sorted CSR rows of that set (:func:`interaction_csr`) and take each
user's pool of unseen items from a boolean mask over all items, so the only
per-draw work left in Python is one ``Generator.choice`` call. Reading an
artifact parses its numbers in bulk and rejects out-of-range indices and
unusable candidate lists with :class:`ArtifactError`.
"""

from __future__ import annotations

import hashlib
import logging
import os
import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np

logger = logging.getLogger(__name__)


class DatasetError(Exception):
    """Base class for data pipeline failures."""


class ParseError(DatasetError):
    pass


class EmptyDatasetError(DatasetError):
    pass


class AlignmentError(DatasetError):
    pass


class ProtocolError(DatasetError):
    """The data cannot support the ranking protocol (candidate pool too small)."""


class ArtifactError(DatasetError):
    """A prepared-dataset artifact is missing, unreadable or inconsistent."""


@dataclass
class RawRating:
    user_key: str
    item_key: str
    rating: float
    timestamp: float | None = None


@dataclass
class InteractionSet:
    """Binary interactions over dense contiguous indices.

    ``timestamps`` is kept only when every source record carried one; it maps
    (user_index, item_index) to the record's timestamp and exists solely so
    the splitter can honor recency.
    """

    num_users: int
    num_items: int
    interactions: set[tuple[int, int]]
    user_map: dict[str, int]
    item_map: dict[str, int]
    timestamps: dict[tuple[int, int], float] | None = None

    def by_user(self) -> dict[int, set[int]]:
        out: dict[int, set[int]] = {u: set() for u in range(self.num_users)}
        for u, i in self.interactions:
            out[u].add(i)
        return out

    @property
    def density(self) -> float:
        return len(self.interactions) / (self.num_users * self.num_items)


@dataclass
class SplitDataset:
    train: InteractionSet
    test: list[tuple[int, int]]
    eval_candidates: dict[int, list[int]] | None = None


def _normalize_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def load_interactions(path: str) -> list[RawRating]:
    """Parse a tab-separated rating file.

    Format: ``user_key<TAB>item_key<TAB>rating[<TAB>timestamp]``. Lines
    starting with ``#`` and blank lines are skipped.
    """
    records: list[RawRating] = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) not in (3, 4):
                raise ParseError(f"{path}:{line_no}: expected 3 or 4 fields, got {len(parts)}")
            user_key, item_key = parts[0], parts[1]
            if not user_key or not item_key:
                raise ParseError(f"{path}:{line_no}: empty user or item key")
            try:
                rating = float(parts[2])
                timestamp = float(parts[3]) if len(parts) == 4 else None
            except ValueError as exc:
                raise ParseError(f"{path}:{line_no}: {exc}") from exc
            records.append(RawRating(user_key, item_key, rating, timestamp))
    return records


def binarize_and_filter(raw: list[RawRating], min_count: int = 5) -> InteractionSet:
    """Turn ratings into binary interactions and drop sparse users/items.

    Removal is iterated to a fixed point: deleting a user can push an item
    below the threshold and vice versa. Surviving keys are re-densified in
    first-appearance order.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    all_have_ts = bool(raw) and all(r.timestamp is not None for r in raw)
    order: list[tuple[str, str]] = []
    ts: dict[tuple[str, str], float | None] = {}
    for r in raw:
        key = (r.user_key, r.item_key)
        if key not in ts:
            order.append(key)
            ts[key] = r.timestamp
        elif r.timestamp is not None and (ts[key] is None or ts[key] < r.timestamp):
            ts[key] = r.timestamp

    active = set(ts)
    while True:
        user_deg: dict[str, int] = {}
        item_deg: dict[str, int] = {}
        for u, i in active:
            user_deg[u] = user_deg.get(u, 0) + 1
            item_deg[i] = item_deg.get(i, 0) + 1
        bad_users = {u for u, d in user_deg.items() if d < min_count}
        bad_items = {i for i, d in item_deg.items() if d < min_count}
        if not bad_users and not bad_items:
            break
        active = {(u, i) for u, i in active if u not in bad_users and i not in bad_items}
    if not active:
        raise EmptyDatasetError("no interactions survive the minimum-count filter")

    user_map: dict[str, int] = {}
    item_map: dict[str, int] = {}
    interactions: set[tuple[int, int]] = set()
    timestamps: dict[tuple[int, int], float] = {}
    for u, i in order:
        if (u, i) not in active:
            continue
        ui = user_map.setdefault(u, len(user_map))
        ii = item_map.setdefault(i, len(item_map))
        interactions.add((ui, ii))
        if all_have_ts:
            timestamps[(ui, ii)] = ts[(u, i)]
    return InteractionSet(
        num_users=len(user_map),
        num_items=len(item_map),
        interactions=interactions,
        user_map=user_map,
        item_map=item_map,
        timestamps=timestamps if all_have_ts else None,
    )


def _restrict_to_users(iset: InteractionSet, user_map: dict[str, int]) -> InteractionSet:
    old_to_new = {iset.user_map[k]: idx for k, idx in user_map.items()}
    kept = [(u, i) for u, i in iset.interactions if u in old_to_new]
    kept_items = sorted({i for _, i in kept})
    item_old_to_new = {old: new for new, old in enumerate(kept_items)}
    rev_items = {idx: key for key, idx in iset.item_map.items()}
    interactions = {(old_to_new[u], item_old_to_new[i]) for u, i in kept}
    timestamps = None
    if iset.timestamps is not None:
        timestamps = {
            (old_to_new[u], item_old_to_new[i]): iset.timestamps[(u, i)] for u, i in kept
        }
    return InteractionSet(
        num_users=len(user_map),
        num_items=len(kept_items),
        interactions=interactions,
        user_map=dict(user_map),
        item_map={rev_items[old]: new for old, new in item_old_to_new.items()},
        timestamps=timestamps,
    )


def align_common_users(a: InteractionSet, b: InteractionSet) -> tuple[InteractionSet, InteractionSet]:
    """Restrict both domains to users present in each, with one shared index space.

    Common users are ordered by their index in domain A; items are
    re-densified per domain in original index order.
    """
    if not a.interactions or not b.interactions:
        raise AlignmentError("cannot align an empty domain")
    common = [k for k in a.user_map if k in b.user_map]
    if not common:
        raise AlignmentError("no common users between the two domains")
    common.sort(key=lambda k: a.user_map[k])
    user_map = {k: idx for idx, k in enumerate(common)}
    return _restrict_to_users(a, user_map), _restrict_to_users(b, user_map)


def leave_one_out_split(iset: InteractionSet, rng) -> SplitDataset:
    """Withhold exactly one interaction per user as the test record.

    When every record carries a timestamp the most recent one is withheld
    (ties broken by the larger item index); otherwise the withheld record is
    drawn uniformly from the user's interactions under the given seed.
    """
    gen = _normalize_rng(rng)
    per_user = iset.by_user()
    test: list[tuple[int, int]] = []
    withheld: set[tuple[int, int]] = set()
    for u in range(iset.num_users):
        items = sorted(per_user[u])
        if len(items) < 2:
            raise DatasetError(f"user {u} has {len(items)} interaction(s); need >= 2 to split")
        if iset.timestamps is not None:
            held = max(items, key=lambda i: (iset.timestamps[(u, i)], i))
        else:
            held = items[int(gen.integers(len(items)))]
        test.append((u, held))
        withheld.add((u, held))
    train_inter = iset.interactions - withheld
    timestamps = None
    if iset.timestamps is not None:
        timestamps = {k: v for k, v in iset.timestamps.items() if k in train_inter}
    train = InteractionSet(
        num_users=iset.num_users,
        num_items=iset.num_items,
        interactions=train_inter,
        user_map=dict(iset.user_map),
        item_map=dict(iset.item_map),
        timestamps=timestamps,
    )
    return SplitDataset(train=train, test=test)


def filter_cold_items(split: SplitDataset) -> SplitDataset:
    """Drop test entries whose held-out item never occurs in train."""
    trained_items = {i for _, i in split.train.interactions}
    kept = [(u, i) for u, i in split.test if i in trained_items]
    candidates = split.eval_candidates
    if candidates is not None:
        kept_users = {u for u, _ in kept}
        candidates = {u: c for u, c in candidates.items() if u in kept_users}
    return SplitDataset(train=split.train, test=kept, eval_candidates=candidates)


def interaction_csr(iset: InteractionSet) -> tuple[np.ndarray, np.ndarray]:
    """Sorted CSR rows ``(indptr, indices)`` of the interactions.

    User ``u``'s items, in ascending order, are
    ``indices[indptr[u]:indptr[u + 1]]``; walking the rows in order visits
    the interactions in ``sorted(iset.interactions)`` order.
    """
    n = len(iset.interactions)
    pairs = np.fromiter(
        chain.from_iterable(iset.interactions), dtype=np.int64, count=2 * n
    ).reshape(n, 2)
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    indptr = np.zeros(iset.num_users + 1, dtype=np.int64)
    np.cumsum(np.bincount(pairs[:, 0], minlength=iset.num_users), out=indptr[1:])
    return indptr, pairs[:, 1].copy()


def sample_train_negatives(train: InteractionSet, ratio: int = 7, rng=None) -> np.ndarray:
    """Draw ``ratio`` unseen items per observed interaction, label 0.

    Returns an int64 array with one row ``(user, item, 0)`` per draw. The
    positives are visited by user, then item, with one draw each. Draws are
    without replacement within one positive's draw. A user whose unseen pool
    is smaller than ``ratio`` contributes the whole pool per positive, with
    one warning.
    """
    gen = _normalize_rng(rng)
    indptr, indices = interaction_csr(train)
    all_items = np.arange(train.num_items)
    unseen = np.ones(train.num_items, dtype=bool)
    users = np.flatnonzero(np.diff(indptr))
    per_user = np.zeros(users.size, dtype=np.int64)  # draws per user
    chunks: list[np.ndarray] = []
    for k, u in enumerate(users.tolist()):
        seen = indices[indptr[u] : indptr[u + 1]]
        unseen[seen] = False
        pool = all_items[unseen]
        unseen[seen] = True
        if pool.size < ratio:
            logger.warning(
                "user %d has only %d unseen items (< ratio %d); taking the whole pool",
                u, pool.size, ratio,
            )
            chunks.append(np.tile(pool, seen.size))
        else:
            chunks.extend(gen.choice(pool, size=ratio, replace=False) for _ in range(seen.size))
        per_user[k] = seen.size * min(pool.size, ratio)
    out = np.zeros((int(per_user.sum()), 3), dtype=np.int64)
    if chunks:
        out[:, 0] = np.repeat(users, per_user)
        out[:, 1] = np.concatenate(chunks)
    return out


def sample_eval_candidates(split: SplitDataset, n: int = 999, rng=None) -> SplitDataset:
    """Freeze ``n`` negative candidates per test user for ranking.

    A user's pool is every item outside their train positives and their
    held-out item, in ascending order.
    """
    gen = _normalize_rng(rng)
    indptr, indices = interaction_csr(split.train)
    all_items = np.arange(split.train.num_items)
    unseen = np.ones(split.train.num_items, dtype=bool)
    candidates: dict[int, list[int]] = {}
    for u, held in split.test:
        seen = indices[indptr[u] : indptr[u + 1]]
        unseen[seen] = False
        unseen[held] = False
        pool = all_items[unseen]
        unseen[seen] = True
        unseen[held] = True
        if pool.size < n:
            raise ProtocolError(
                f"user {u}: only {pool.size} unseen items, need {n} candidates"
            )
        candidates[u] = gen.choice(pool, size=n, replace=False).tolist()
    return SplitDataset(train=split.train, test=list(split.test), eval_candidates=candidates)


def file_checksum(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def freeze_splits(
    set_a: InteractionSet,
    set_b: InteractionSet,
    seed: int = 0,
    n_candidates: int = 999,
) -> tuple[SplitDataset, SplitDataset]:
    """Split both aligned domains and freeze their evaluation candidates."""
    split_a = leave_one_out_split(set_a, np.random.default_rng([seed, 10]))
    split_b = leave_one_out_split(set_b, np.random.default_rng([seed, 11]))
    split_a = filter_cold_items(split_a)
    split_b = filter_cold_items(split_b)
    split_a = sample_eval_candidates(split_a, n_candidates, np.random.default_rng([seed, 12]))
    split_b = sample_eval_candidates(split_b, n_candidates, np.random.default_rng([seed, 13]))
    return split_a, split_b


def prepare_datasets(
    path_a: str,
    path_b: str,
    min_count: int = 5,
    seed: int = 0,
    n_candidates: int = 999,
) -> tuple[SplitDataset, SplitDataset, dict[str, object]]:
    """Run the full two-domain preprocessing pipeline on two rating files."""
    raw_a = load_interactions(path_a)
    raw_b = load_interactions(path_b)
    set_a = binarize_and_filter(raw_a, min_count)
    set_b = binarize_and_filter(raw_b, min_count)
    set_a, set_b = align_common_users(set_a, set_b)
    split_a, split_b = freeze_splits(set_a, set_b, seed, n_candidates)
    meta: dict[str, object] = {
        "num_users": set_a.num_users,
        "num_items_a": set_a.num_items,
        "num_items_b": set_b.num_items,
        "interactions_a": len(set_a.interactions),
        "interactions_b": len(set_b.interactions),
        "density_a": set_a.density,
        "density_b": set_b.density,
        "min_count": min_count,
        "seed": seed,
        "n_candidates": n_candidates,
        "checksum_a": file_checksum(path_a),
        "checksum_b": file_checksum(path_b),
    }
    return split_a, split_b, meta


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def atomic_text_write(path: str, text: str) -> None:
    """Write text so the target path never holds a partial file."""
    _atomic_write(path, text)


def atomic_bytes_write(path: str, payload: bytes) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(payload)
    os.replace(tmp, path)


def write_split_artifact(dir_path: str, split: SplitDataset, meta: dict[str, object]) -> None:
    """Write train/test/candidates/meta files; each file lands atomically."""
    if split.eval_candidates is None:
        raise ValueError("artifact requires a completed split with eval candidates")
    os.makedirs(dir_path, exist_ok=True)
    train_lines = [f"{u}\t{i}" for u, i in sorted(split.train.interactions)]
    _atomic_write(os.path.join(dir_path, "train.tsv"), "\n".join(train_lines) + "\n")
    test_lines = [f"{u}\t{i}" for u, i in split.test]
    _atomic_write(os.path.join(dir_path, "test.tsv"), "\n".join(test_lines) + "\n")
    cand_lines = [
        f"{u}\t{','.join(map(str, split.eval_candidates[u]))}" for u, _ in split.test
    ]
    _atomic_write(os.path.join(dir_path, "candidates.tsv"), "\n".join(cand_lines) + "\n")
    full_meta = dict(meta)
    full_meta.setdefault("num_users", split.train.num_users)
    full_meta.setdefault("num_items", split.train.num_items)
    meta_lines = [f"{k} = {v}" for k, v in full_meta.items()]
    _atomic_write(os.path.join(dir_path, "meta"), "\n".join(meta_lines) + "\n")


def read_split_artifact(dir_path: str) -> tuple[SplitDataset, dict[str, str]]:
    """Load a prepared-dataset directory back into a SplitDataset.

    Opaque keys are not stored in artifacts; maps are rebuilt as the identity
    over string indices. Raises ArtifactError when a file is missing or
    malformed, when a train or test index lies outside the meta's
    ``num_users`` x ``num_items``, or when a candidate line would corrupt the
    ranking: a count other than the meta's ``n_candidates``, a repeated or
    out-of-range item, the user's held-out item or one of their train
    positives, or a test user without a line.
    """
    paths = {name: os.path.join(dir_path, name) for name in ("train.tsv", "test.tsv", "candidates.tsv", "meta")}
    for name, p in paths.items():
        if not os.path.isfile(p):
            raise ArtifactError(f"missing artifact file: {p}")
    meta: dict[str, str] = {}
    with open(paths["meta"], encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if " = " not in line:
                raise ArtifactError(f"malformed meta line: {line!r}")
            k, v = line.split(" = ", 1)
            meta[k] = v
    try:
        num_users = int(meta["num_users"])
        num_items = int(meta["num_items"])
        n_candidates = int(meta["n_candidates"]) if "n_candidates" in meta else None
    except (KeyError, ValueError) as exc:
        raise ArtifactError(f"meta lacks usable num_users/num_items/n_candidates: {exc}") from exc

    train_pairs = _read_pairs(paths["train.tsv"], num_users, num_items)
    test_pairs = _read_pairs(paths["test.tsv"], num_users, num_items)
    cand_users, cands = _read_candidates(paths["candidates.tsv"], n_candidates)
    _check_candidates(paths["candidates.tsv"], cand_users, cands, train_pairs, test_pairs, num_items)
    train = InteractionSet(
        num_users=num_users,
        num_items=num_items,
        interactions=set(zip(*train_pairs.T.tolist())),
        user_map={str(i): i for i in range(num_users)},
        item_map={str(i): i for i in range(num_items)},
    )
    test = list(zip(*test_pairs.T.tolist()))
    candidates = dict(zip(cand_users.tolist(), cands.tolist()))
    return SplitDataset(train=train, test=test, eval_candidates=candidates), meta


def _read_fields(path: str) -> list[list[str]]:
    """The tab-separated fields of each non-blank line of ``path``."""
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split("\t") for line in fh if line.strip()]


def _parse_ints(path: str, text: str, count: int) -> np.ndarray:
    """Exactly ``count`` comma-separated integers from ``text``."""
    with warnings.catch_warnings():
        # numpy < 2.3 warns instead of raising on text it cannot read to the end
        warnings.simplefilter("error", DeprecationWarning)
        try:
            values = np.fromstring(text, dtype=np.int64, sep=",")
        except (ValueError, DeprecationWarning) as exc:
            raise ArtifactError(f"{path}: malformed number: {exc}") from None
    if values.size != count:
        raise ArtifactError(f"{path}: expected {count} numbers, read {values.size}")
    return values


def _read_pairs(path: str, num_users: int, num_items: int) -> np.ndarray:
    """The ``user<TAB>item`` lines of ``path`` as an (n, 2) array, range-checked."""
    rows = _read_fields(path)
    if any(len(row) != 2 for row in rows):
        raise ArtifactError(f"{path}: every line must be user<TAB>item")
    pairs = _parse_ints(path, ",".join(chain.from_iterable(rows)), 2 * len(rows))
    pairs = pairs.reshape(len(rows), 2)
    outside = ((pairs < 0) | (pairs >= (num_users, num_items))).any(axis=1)
    if outside.any():
        u, i = pairs[outside.argmax()]
        raise ArtifactError(
            f"{path}: pair ({u}, {i}) is outside {num_users} users x {num_items} items"
        )
    return pairs


def _read_candidates(path: str, n_candidates: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Users and their (users x n_candidates) candidate rows from ``path``.

    Every line must hold ``n_candidates`` items, or, when the meta does not
    name that count, as many as the first line.
    """
    rows = _read_fields(path)
    if any(len(row) != 2 for row in rows):
        raise ArtifactError(f"{path}: every line must be user<TAB>item,item,...")
    users = _parse_ints(path, ",".join(row[0] for row in rows), len(rows))
    widths = [row[1].count(",") + 1 for row in rows]
    width = n_candidates if n_candidates is not None else (widths[0] if widths else 0)
    for u, n in zip(users.tolist(), widths):
        if n != width:
            raise ArtifactError(f"{path}: user {u} has {n} candidates, expected {width}")
    cands = _parse_ints(path, ",".join(row[1] for row in rows), len(rows) * width)
    return users, cands.reshape(len(rows), width)


def _check_candidates(
    path: str,
    users: np.ndarray,
    cands: np.ndarray,
    train_pairs: np.ndarray,
    test_pairs: np.ndarray,
    num_items: int,
) -> None:
    """Reject candidate rows a ranking protocol cannot use.

    There must be one row per test user; its items must be distinct, in
    range, and neither the user's held-out item nor a train positive.
    """
    if not np.array_equal(np.sort(users), np.sort(test_pairs[:, 0])):
        raise ArtifactError(f"{path}: candidate users differ from the test users")
    if cands.size == 0:
        return
    if cands.min() < 0 or cands.max() >= num_items:
        raise ArtifactError(f"{path}: candidate item outside 0..{num_items - 1}")
    ordered = np.sort(cands, axis=1)
    repeated = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    if repeated.any():
        raise ArtifactError(f"{path}: user {users[repeated.argmax()]} has a repeated candidate")
    keys = users[:, None] * num_items + cands
    for pairs, what in ((test_pairs, "held-out item"), (train_pairs, "train positive")):
        hit = np.isin(keys, pairs[:, 0] * num_items + pairs[:, 1]).any(axis=1)
        if hit.any():
            raise ArtifactError(f"{path}: user {users[hit.argmax()]} has their {what} as a candidate")
