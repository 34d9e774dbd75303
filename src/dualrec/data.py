"""Interaction data handling for the two-domain recommender.

Covers ingestion of rating files, binarization with iterative minimum-count
filtering, common-user alignment across the two domains, leave-one-out
splitting, cold-item filtering of the test set, negative sampling for
training, and frozen candidate sampling for ranking evaluation. All
operations are deterministic given their inputs and a seed.

String keys end at ingest: :func:`load_interactions` turns each rating line
into integer user and item codes, with user codes shared across the two
files so a code names the same user in both domains. Filtering returns the
code of each kept user, alignment matches the domains on those codes, and
no later stage holds a key. Interactions are stored as sorted CSR rows
(:class:`InteractionSet`), a split's test pairs as one (n, 2) int64 array,
and every stage works on those arrays. Training negatives are drawn for a
whole epoch at once with one ``Generator.integers`` call, as
``Generator.choice`` would draw them one positive at a time. Candidate
freezing takes each test user's pool from a boolean mask over all items and
makes one ``Generator.choice`` call per test user; a domain's frozen
candidates are one (n_test, n_candidates) int32 array, from freezing through
the artifact to ranking, so a domain has fewer than 2**31 items. Writing an artifact turns
index arrays into text through one table of decimal strings; reading one
parses its numbers in bulk and rejects out-of-range indices, repeated lines
and unusable candidate lists with :class:`ArtifactError`.
"""

from __future__ import annotations

import contextlib
import hashlib
import logging
import math
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .config import ConfigError, parse_key_values

logger = logging.getLogger(__name__)


class DatasetError(Exception):
    """Input data that cannot be parsed, filtered, aligned, split or ranked."""


class ArtifactError(Exception):
    """A prepared-dataset artifact is missing, unreadable or inconsistent."""


@dataclass(eq=False)
class InteractionSet:
    """Binary interactions over dense contiguous indices, as sorted CSR rows.

    User ``u``'s items, in ascending order, are
    ``indices[indptr[u]:indptr[u + 1]]``; both arrays are int64.
    ``timestamps`` is kept only when every source record carried one; it is
    a float array aligned with ``indices`` and exists solely so the splitter
    can honor recency.
    """

    num_users: int
    num_items: int
    indptr: np.ndarray
    indices: np.ndarray
    timestamps: np.ndarray | None = None

    @classmethod
    def from_pairs(
        cls,
        num_users: int,
        num_items: int,
        pairs,
        timestamps: np.ndarray | None = None,
    ) -> InteractionSet:
        """Build from ``(user, item)`` pairs in any order.

        ``timestamps``, if given, holds one per pair. A repeated pair counts
        once, with its first timestamp.
        """
        pairs = np.asarray(pairs if isinstance(pairs, np.ndarray) else list(pairs), dtype=np.int64)
        pairs = pairs.reshape(-1, 2)
        keys, first = np.unique(pairs[:, 0] * num_items + pairs[:, 1], return_index=True)
        users, items = np.divmod(keys, max(num_items, 1))
        indptr = np.zeros(num_users + 1, dtype=np.int64)
        np.cumsum(np.bincount(users, minlength=num_users), out=indptr[1:])
        return cls(
            num_users=num_users,
            num_items=num_items,
            indptr=indptr,
            indices=items,
            timestamps=None if timestamps is None else np.asarray(timestamps, float)[first],
        )

    @property
    def interactions(self) -> np.ndarray:
        """The ``(user, item)`` pairs as a sorted (n, 2) int64 array, derived from the rows."""
        users = np.repeat(np.arange(self.num_users, dtype=np.int64), np.diff(self.indptr))
        return np.column_stack([users, self.indices])

    @property
    def density(self) -> float:
        return self.indices.size / (self.num_users * self.num_items)


@dataclass
class SplitDataset:
    train: InteractionSet
    # one (user, held-out item) row per test user, an (n_test, 2) int64 array
    test: np.ndarray
    # each test user's frozen candidates: their row of one (n_test, n_cand) int32 array
    eval_candidates: dict[int, np.ndarray] | None = None


def read_text(path: str, error: type[Exception]) -> str:
    """The UTF-8 text of ``path``; a file that is not UTF-8 raises ``error``."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text: {exc}") from None


def load_interactions(
    path: str, user_codes: dict[str, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Parse a tab-separated rating file into integer codes.

    Format: ``user_key<TAB>item_key<TAB>rating[<TAB>timestamp]``. Lines
    starting with ``#`` and blank lines are skipped. Ratings and timestamps
    must be numbers, and a timestamp must not be NaN; the rating is checked
    and then dropped. Returns ``(users, items, timestamps)``, one entry per
    record: item keys are numbered in order of first appearance in this
    file, user keys through ``user_codes``, which grows with every new key,
    so calls that share it give a user the same code in each file.
    ``timestamps`` is ``None`` unless every record carries one.
    """
    item_codes: dict[str, int] = {}
    users: list[int] = []
    items: list[int] = []
    timestamps: list[float | None] = []
    for line_no, line in enumerate(read_text(path, DatasetError).split("\n"), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) not in (3, 4):
            raise DatasetError(f"{path}:{line_no}: expected 3 or 4 fields, got {len(parts)}")
        user_key, item_key = parts[0], parts[1]
        if not user_key or not item_key:
            raise DatasetError(f"{path}:{line_no}: empty user or item key")
        try:
            float(parts[2])  # checked, then dropped: every record is one interaction
            timestamp = float(parts[3]) if len(parts) == 4 else None
        except ValueError as exc:
            raise DatasetError(f"{path}:{line_no}: {exc}") from exc
        # NaN has no place in a recency order
        if timestamp is not None and math.isnan(timestamp):
            raise DatasetError(f"{path}:{line_no}: timestamp is NaN")
        users.append(user_codes.setdefault(user_key, len(user_codes)))
        items.append(item_codes.setdefault(item_key, len(item_codes)))
        timestamps.append(timestamp)
    if not timestamps or None in timestamps:
        timestamps = None
    users, items = np.array(users, dtype=np.int64), np.array(items, dtype=np.int64)
    return users, items, None if timestamps is None else np.array(timestamps, dtype=np.float64)


def _first_appearance(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct codes in order of first appearance, and each entry's rank in that order."""
    distinct, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size)
    return distinct[order], rank[inverse]


def binarize_and_filter(
    users: np.ndarray,
    items: np.ndarray,
    timestamps: np.ndarray | None = None,
    min_count: int = 5,
) -> tuple[InteractionSet, np.ndarray]:
    """Turn records into binary interactions and drop sparse users/items.

    Record ``r`` pairs user code ``users[r]`` with item code ``items[r]``
    (non-negative integers, as :func:`load_interactions` gives them);
    ``timestamps``, when given, holds one per record. A repeated pair is one
    interaction with the latest of its timestamps. Every record counts,
    whatever its rating. Removal is iterated to a fixed point: deleting a
    user can push an item below the threshold and vice versa. Surviving
    users and items are re-densified in the order they first appear in the
    records, so the code values never matter. Returns the set and the code
    of each of its users, in index order.
    """
    if min_count < 1:
        raise ConfigError("min_count must be >= 1")
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    num_user_codes = int(users.max(initial=-1)) + 1
    num_item_codes = int(items.max(initial=-1)) + 1
    keys, first, inverse = np.unique(
        users * num_item_codes + items, return_index=True, return_inverse=True
    )
    pair_users, pair_items = users[first], items[first]
    active = np.ones(keys.size, dtype=bool)
    while True:
        user_deg = np.bincount(pair_users[active], minlength=num_user_codes)
        item_deg = np.bincount(pair_items[active], minlength=num_item_codes)
        kept = active & (user_deg[pair_users] >= min_count) & (item_deg[pair_items] >= min_count)
        if np.array_equal(kept, active):
            break
        active = kept
    if not active.any():
        raise DatasetError("no interactions survive the minimum-count filter")

    survivors = np.flatnonzero(active)
    survivors = survivors[np.argsort(first[survivors])]  # record order
    user_codes, new_users = _first_appearance(pair_users[survivors])
    item_codes, new_items = _first_appearance(pair_items[survivors])
    latest = None
    if timestamps is not None:
        latest = np.full(keys.size, -np.inf)
        np.maximum.at(latest, inverse, np.asarray(timestamps, dtype=np.float64))
        latest = latest[survivors]
    iset = InteractionSet.from_pairs(
        user_codes.size, item_codes.size, np.column_stack([new_users, new_items]), timestamps=latest
    )
    return iset, user_codes


def _restrict_to_users(iset: InteractionSet, users: np.ndarray) -> InteractionSet:
    """The rows of the user indices ``users``, in that order, over the items they keep."""
    new_users = np.full(iset.num_users, -1, dtype=np.int64)
    new_users[users] = np.arange(users.size)
    pairs = iset.interactions
    kept = new_users[pairs[:, 0]] >= 0
    kept_items = np.unique(pairs[kept, 1])  # new item indices follow the old order
    return InteractionSet.from_pairs(
        users.size,
        kept_items.size,
        np.column_stack([new_users[pairs[kept, 0]], np.searchsorted(kept_items, pairs[kept, 1])]),
        timestamps=None if iset.timestamps is None else iset.timestamps[kept],
    )


def align_common_users(
    a: InteractionSet, users_a: np.ndarray, b: InteractionSet, users_b: np.ndarray
) -> tuple[InteractionSet, InteractionSet, np.ndarray]:
    """Restrict both domains to users present in each, with one shared index space.

    ``users_a`` and ``users_b`` hold the code of each domain's users, in
    index order, as :func:`binarize_and_filter` returns them; a code names
    the same user in both. Common users are ordered by their index in
    domain A; items are re-densified per domain in original index order.
    Returns both sets and the code of each common user, in index order.
    """
    if not a.indices.size or not b.indices.size:
        raise DatasetError("cannot align an empty domain")
    rows_a = np.flatnonzero(np.isin(users_a, users_b))
    if not rows_a.size:
        raise DatasetError("no common users between the two domains")
    common = users_a[rows_a]
    by_code = np.argsort(users_b)
    rows_b = by_code[np.searchsorted(users_b, common, sorter=by_code)]
    return _restrict_to_users(a, rows_a), _restrict_to_users(b, rows_b), common


def leave_one_out_split(iset: InteractionSet, rng) -> SplitDataset:
    """Withhold exactly one interaction per user as the test record.

    When every record carries a timestamp the most recent one is withheld
    (ties broken by the larger item index); otherwise the withheld record is
    drawn uniformly from the user's interactions under the given seed: one
    ``integers`` call over the count vector, which draws as one call per user
    in user order would.
    """
    gen = np.random.default_rng(rng)
    counts = np.diff(iset.indptr)
    if (counts < 2).any():
        u = int(np.argmax(counts < 2))
        raise DatasetError(f"user {u} has {counts[u]} interaction(s); need >= 2 to split")
    if iset.timestamps is not None:
        # within each row, sort by (timestamp, item): the last entry is withheld
        order = np.lexsort((iset.indices, iset.timestamps, iset.interactions[:, 0]))
        held = order[iset.indptr[1:] - 1]
    else:
        held = iset.indptr[:-1] + gen.integers(counts)
    kept = np.ones(iset.indices.size, dtype=bool)
    kept[held] = False
    train = replace(
        iset,
        indptr=iset.indptr - np.arange(iset.num_users + 1),
        indices=iset.indices[kept],
        timestamps=None if iset.timestamps is None else iset.timestamps[kept],
    )
    test = np.column_stack([np.arange(iset.num_users), iset.indices[held]])
    return SplitDataset(train=train, test=test)


def filter_cold_items(split: SplitDataset) -> SplitDataset:
    """Drop test entries whose held-out item never occurs in train.

    Runs before candidates are frozen, so the result carries none.
    """
    warm = np.bincount(split.train.indices, minlength=split.train.num_items) > 0
    return SplitDataset(train=split.train, test=split.test[warm[split.test[:, 1]]])


def sample_train_negatives(train: InteractionSet, ratio: int = 7, rng=None) -> np.ndarray:
    """Draw ``ratio`` unseen items per observed interaction.

    Returns an (N, 2) int64 array with one row ``(user, item)`` per draw. The
    positives are visited by user, then item. A user's pool is their unseen
    items, ascending. A user whose pool is smaller than ``ratio`` contributes
    the whole pool per positive, with one warning. Every other positive gets
    the ``ratio`` distinct items that ``choice(pool, ratio, replace=False)``
    on the generator would give, one call per positive in this order, and
    the generator is left where those calls would leave it.

    The whole epoch is drawn at once, as ``choice`` draws: Floyd's
    algorithm, then a shuffle of the picks, all of whose bounded draws are
    one ``Generator.integers`` call (see :func:`_floyd_picks`), on any bit
    generator. NumPy does otherwise in one regime, a pool of more than
    10,000 items with ``ratio > pool // 50`` (so ``ratio`` >= 201; the
    default is 7), where it shuffles the pool's tail; there the draws differ
    from ``choice``'s but are still ``ratio`` distinct unseen items, uniform
    over the pool. Like every other draw in the program, this rests on NumPy
    ``Generator`` methods, so a NumPy change to them moves the draws (NEP 19
    keeps only bit-generator streams fixed across versions). ``ratio < 1``
    raises ``ValueError``.
    """
    if ratio < 1:
        raise ValueError(f"negative ratio must be >= 1, got {ratio}")
    gen = np.random.default_rng(rng)
    indptr, indices = train.indptr, train.indices
    degree = np.diff(indptr)
    for u in np.flatnonzero(degree > max(train.num_items - ratio, 0)).tolist():
        logger.warning(
            "user %d has only %d unseen items (< ratio %d); taking the whole pool",
            u, train.num_items - degree[u], ratio,
        )
    pos_user = np.repeat(np.arange(train.num_users), degree)
    pos_pool = train.num_items - degree[pos_user]
    width = np.minimum(pos_pool, ratio)  # draws per positive
    # each draw's index into its user's pool: 0, 1, ... for a whole pool
    picks = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width, width)
    full = pos_pool >= ratio
    picks[np.repeat(full, width)] = _floyd_picks(pos_pool[full], ratio, gen).ravel()
    # pool index q of user u is item q + #(u's seen items at or below it): the
    # count of row u's ``indices - rank`` at or below q, each row offset to
    # its own stretch of one sorted array
    stride = train.num_items + 1
    keys = indices - (np.arange(indices.size) - indptr[pos_user]) + pos_user * stride
    row_user = np.repeat(pos_user, width)
    out = np.empty((picks.size, 2), dtype=np.int64)
    out[:, 0] = row_user
    seen = np.searchsorted(keys, picks + row_user * stride, side="right") - indptr[row_user]
    out[:, 1] = picks + seen
    return out


def _floyd_picks(pool: np.ndarray, ratio: int, gen: np.random.Generator) -> np.ndarray:
    """Pool indices of ``choice(pool[p], ratio, replace=False)`` for each row p, in order.

    Row p makes Floyd's draws, one in ``[0, j]`` for each ``j = pool[p] - ratio
    ... pool[p] - 1``, taking ``j`` itself when the draw repeats an earlier
    pick; then it swaps pick ``i`` with a draw in ``[0, i]`` for ``i = ratio -
    1 ... 1``. Every row's draws are one ``gen.integers(0, span)`` call, which
    makes each bounded draw as ``choice`` does, in row order (a span of 1
    draws 0 and consumes nothing, as ``choice`` does for ``j = 0``); the rules
    are then applied one column at a time, across all rows.
    """
    width = 2 * ratio - 1
    span = np.empty((pool.size, width), dtype=np.int64)  # each draw's j + 1
    span[:, :ratio] = (pool - ratio + 1)[:, None] + np.arange(ratio)
    span[:, ratio:] = np.arange(ratio, 1, -1)
    drawn = gen.integers(0, span)
    picks = drawn[:, :ratio]
    for t in range(1, ratio):
        pick = picks[:, t]
        repeat = picks[:, 0] == pick
        for s in range(1, t):
            repeat |= picks[:, s] == pick
        np.subtract(span[:, t], 1, out=pick, where=repeat)
    flat, row_start = drawn.reshape(-1), np.arange(0, drawn.size, width)
    for i in range(ratio - 1, 0, -1):
        at = row_start + drawn[:, width - i]
        swap = flat[at]
        flat[at] = picks[:, i]
        picks[:, i] = swap
    return picks


def sample_eval_candidates(split: SplitDataset, n: int = 999, rng=None) -> SplitDataset:
    """Freeze ``n`` negative candidates per test user for ranking.

    A user's pool is every item outside their train positives and their
    held-out item, in ascending order. The draws fill one (n_test, n) int32
    array in test order, and each test user maps to their row of it; 2**31
    items or more raise ``ValueError``.
    """
    if n < 1:
        raise ConfigError("candidates must be >= 1")
    if split.train.num_items >= 1 << 31:
        raise ValueError(
            f"candidates are int32 item indices, below 2**31 items, got {split.train.num_items}"
        )
    gen = np.random.default_rng(rng)
    indptr, indices = split.train.indptr, split.train.indices
    all_items = np.arange(split.train.num_items)
    unseen = np.ones(split.train.num_items, dtype=bool)
    rows = np.empty((len(split.test), n), dtype=np.int32)
    for row, (u, held) in zip(rows, split.test.tolist()):
        seen = indices[indptr[u] : indptr[u + 1]]
        unseen[seen] = False
        unseen[held] = False
        pool = all_items[unseen]
        unseen[seen] = True
        unseen[held] = True
        if pool.size < n:
            raise DatasetError(
                f"user {u}: only {pool.size} unseen items, need {n} candidates"
            )
        row[:] = gen.choice(pool, size=n, replace=False)
    candidates = dict(zip(split.test[:, 0].tolist(), rows))
    return SplitDataset(train=split.train, test=split.test, eval_candidates=candidates)


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
    if seed < 0:  # numpy rejects a negative seed entry with a bare ValueError
        raise ConfigError("seed must be >= 0")
    splits = [
        leave_one_out_split(iset, np.random.default_rng([seed, 10 + d]))
        for d, iset in enumerate((set_a, set_b))
    ]
    splits = [filter_cold_items(split) for split in splits]
    split_a, split_b = (
        sample_eval_candidates(split, n_candidates, np.random.default_rng([seed, 12 + d]))
        for d, split in enumerate(splits)
    )
    return split_a, split_b


def prepare_datasets(
    path_a: str,
    path_b: str,
    min_count: int = 5,
    seed: int = 0,
    n_candidates: int = 999,
) -> tuple[SplitDataset, SplitDataset, dict[str, object]]:
    """Run the full two-domain preprocessing pipeline on two rating files."""
    user_codes: dict[str, int] = {}  # one numbering of user keys across both files
    set_a, users_a = binarize_and_filter(*load_interactions(path_a, user_codes), min_count)
    set_b, users_b = binarize_and_filter(*load_interactions(path_b, user_codes), min_count)
    set_a, set_b, _ = align_common_users(set_a, users_a, set_b, users_b)
    split_a, split_b = freeze_splits(set_a, set_b, seed, n_candidates)
    meta: dict[str, object] = {
        "num_users": set_a.num_users,
        "num_items_a": set_a.num_items,
        "num_items_b": set_b.num_items,
        "interactions_a": set_a.indices.size,
        "interactions_b": set_b.indices.size,
        "density_a": set_a.density,
        "density_b": set_b.density,
        "min_count": min_count,
        "seed": seed,
        "n_candidates": n_candidates,
        "checksum_a": file_checksum(path_a),
        "checksum_b": file_checksum(path_b),
    }
    return split_a, split_b, meta


def atomic_write(path: str, payload: str | bytes) -> None:
    """Write ``payload`` (text as UTF-8) so ``path`` never holds a partial file."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload.encode("utf-8") if isinstance(payload, str) else payload)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_split_artifact(dir_path: str, split: SplitDataset, meta: dict[str, object]) -> None:
    """Write train/test/candidates/meta files; each file lands atomically.

    Every index is written as its entry in one table of the decimal strings
    of ``0 .. max(num_users, num_items) - 1``, so whole arrays turn into text
    by indexing, without formatting an integer per entry. Candidates keep
    the order in which they were drawn.
    """
    if split.eval_candidates is None:
        raise ValueError("artifact requires a completed split with eval candidates")
    os.makedirs(dir_path, exist_ok=True)
    train = split.train
    full_meta = dict(meta)
    full_meta.setdefault("num_users", train.num_users)
    full_meta.setdefault("num_items", train.num_items)
    decimal = np.array(list(map(str, range(max(train.num_users, train.num_items)))), dtype=object)
    files = {
        "train.tsv": map("\t".join, decimal[train.interactions].tolist()),
        "test.tsv": map("\t".join, decimal[split.test].tolist()),
        "candidates.tsv": (
            f"{decimal[u]}\t{','.join(decimal[split.eval_candidates[u]].tolist())}"
            for u in split.test[:, 0].tolist()
        ),
        "meta": (f"{k} = {v}" for k, v in full_meta.items()),
    }
    for name, lines in files.items():
        atomic_write(os.path.join(dir_path, name), "\n".join(lines) + "\n")


def read_split_artifact(dir_path: str) -> tuple[SplitDataset, dict[str, str]]:
    """Load a prepared-dataset directory back into a SplitDataset.

    Raises ArtifactError when a file is missing or malformed, when the
    meta's ``num_users``, ``num_items`` or stated ``n_candidates`` is below
    1, ``num_items`` or ``n_candidates`` reaches 2**31 or users x items
    reaches 2**63, when a train or test index lies outside the meta's
    ``num_users`` x ``num_items``, when ``num_users`` is not 1 + the
    largest train user or exceeds the train lines, when
    ``num_items`` exceeds the train lines plus ``num_users`` (every item was
    seen, and the split moves at most one pair per user out of train), or
    when a candidate line would corrupt the ranking: a count other than the
    meta's ``n_candidates``, a repeated or out-of-range item, the user's
    held-out item or one of their train positives, or a test user without a
    line. A train pair or a test user that appears on two lines is rejected
    too. Each test user's candidates are their row of one (n_test, n_cand)
    int32 array.
    """
    paths = {name: os.path.join(dir_path, name) for name in ("train.tsv", "test.tsv", "candidates.tsv", "meta")}
    for name, p in paths.items():
        if not os.path.isfile(p):
            raise ArtifactError(f"missing artifact file: {p}")
    try:
        meta = parse_key_values(read_text(paths["meta"], ArtifactError))
    except ConfigError as exc:
        raise ArtifactError(f"{paths['meta']}: {exc}") from None
    try:
        num_users = int(meta["num_users"])
        num_items = int(meta["num_items"])
        n_candidates = int(meta["n_candidates"]) if "n_candidates" in meta else None
    except (KeyError, ValueError) as exc:
        raise ArtifactError(f"meta lacks usable num_users/num_items/n_candidates: {exc}") from exc
    # candidates are int32 item indices, and every pair key
    # ``user * num_items + item`` must fit in int64
    if (
        num_users < 1
        or not 1 <= num_items < 1 << 31
        or num_users * num_items >= 1 << 63
    ):
        raise ArtifactError(
            f"{paths['meta']}: num_users = {num_users} and num_items = {num_items} must each "
            "be >= 1, with num_items below 2**31 and num_users x num_items below 2**63"
        )
    if n_candidates is not None and not 1 <= n_candidates < 1 << 31:
        raise ArtifactError(
            f"{paths['meta']}: n_candidates = {n_candidates} must be >= 1 and below 2**31"
        )

    train_pairs = _read_pairs(paths["train.tsv"], num_users, num_items)
    # a split leaves every user a train pair, so the largest train user is the last
    spanned = int(train_pairs[:, 0].max()) + 1 if train_pairs.size else 0
    if num_users != spanned:
        raise ArtifactError(
            f"{paths['meta']}: num_users = {num_users}, but {paths['train.tsv']} "
            f"spans {spanned} users"
        )
    # every user keeps a train pair, and every item was seen by some user,
    # of whom the split moved at most one pair each out of train
    if num_users > len(train_pairs):
        raise ArtifactError(
            f"{paths['meta']}: num_users = {num_users} exceeds the "
            f"{len(train_pairs)} lines of {paths['train.tsv']}"
        )
    if num_items > len(train_pairs) + num_users:
        raise ArtifactError(
            f"{paths['meta']}: num_items = {num_items} exceeds the {len(train_pairs)} lines "
            f"of {paths['train.tsv']} plus num_users = {num_users}"
        )
    test_pairs = _read_pairs(paths["test.tsv"], num_users, num_items)
    pair = _repeated(train_pairs[:, 0] * num_items + train_pairs[:, 1])
    if pair is not None:
        raise ArtifactError(f"{paths['train.tsv']}: pair {divmod(pair, num_items)} is on two lines")
    user = _repeated(test_pairs[:, 0])
    if user is not None:
        raise ArtifactError(f"{paths['test.tsv']}: user {user} is on two lines")
    cand_users, cands = _read_candidates(paths["candidates.tsv"], n_candidates)
    _check_candidates(
        paths["candidates.tsv"], cand_users, cands, train_pairs, test_pairs, num_users, num_items
    )
    train = InteractionSet.from_pairs(num_users, num_items, train_pairs)
    candidates = dict(zip(cand_users.tolist(), cands.astype(np.int32)))
    return SplitDataset(train=train, test=test_pairs, eval_candidates=candidates), meta


def _read_lines(path: str) -> list[str]:
    """The non-blank lines of ``path``, without their line ends."""
    return [line for line in read_text(path, ArtifactError).split("\n") if line.strip()]


def _one_tab_per_line(text: str, count: int) -> bool:
    """Whether each of the ``count`` newline-separated lines of ``text`` holds exactly one tab."""
    raw = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    tabs = np.flatnonzero(raw == ord("\t"))
    # one tab per line exactly when there are ``count`` tabs and the k-th lies on line k
    return np.array_equal(np.searchsorted(np.flatnonzero(raw == ord("\n")), tabs), np.arange(count))


def _repeated(keys: np.ndarray) -> int | None:
    """The smallest value that occurs more than once in ``keys``, if any."""
    ordered = np.sort(keys)
    twice = ordered[1:][ordered[1:] == ordered[:-1]]
    return int(twice[0]) if twice.size else None


def _parse_ints(path: str, text: str, count: int) -> np.ndarray:
    """Exactly ``count`` comma-separated integers from ``text``."""
    with warnings.catch_warnings():
        # numpy < 2.3 warns instead of raising on text it cannot read to the end
        warnings.simplefilter("error", DeprecationWarning)
        try:
            values = np.fromstring(text, dtype=np.int64, sep=",")
        except (ValueError, DeprecationWarning) as exc:
            raise ArtifactError(f"{path}: malformed number: {exc}") from None
    # fromstring saturates a number beyond int64 to a bound (numpy 2.4 reads
    # both signs as the maximum); no index reaches a bound, so one is rejected
    bounds = np.iinfo(np.int64)
    if values.size and (values.min() == bounds.min or values.max() == bounds.max):
        raise ArtifactError(f"{path}: number outside the int64 range")
    if values.size != count:
        raise ArtifactError(f"{path}: expected {count} numbers, read {values.size}")
    return values


def _read_pairs(path: str, num_users: int, num_items: int) -> np.ndarray:
    """The ``user<TAB>item`` lines of ``path`` as an (n, 2) array, range-checked."""
    lines = _read_lines(path)
    text = "\n".join(lines)
    if not _one_tab_per_line(text, len(lines)):
        raise ArtifactError(f"{path}: every line must be user<TAB>item")
    pairs = _parse_ints(path, text.replace("\t", ",").replace("\n", ","), 2 * len(lines))
    pairs = pairs.reshape(len(lines), 2)
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
    rows = [line.split("\t") for line in _read_lines(path)]
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
    num_users: int,
    num_items: int,
) -> None:
    """Reject candidate rows a ranking protocol cannot use.

    There must be one row per test user; its items must be distinct, in
    range, and neither the user's held-out item nor a train positive. What
    each (user, item) pair is comes from one byte table over all users and
    items, the only users x items array the pipeline still builds (24 MB for
    rung M's domain A).
    """
    if not np.array_equal(np.sort(users), np.sort(test_pairs[:, 0])):
        raise ArtifactError(f"{path}: candidate users differ from the test users")
    if cands.size == 0:
        return
    if cands.min() < 0 or cands.max() >= num_items:
        raise ArtifactError(f"{path}: candidate item outside 0..{num_items - 1}")
    ordered = np.sort(cands, axis=1)
    repeated = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    del ordered  # freed before the table and the keys are built
    if repeated.any():
        raise ArtifactError(f"{path}: user {users[repeated.argmax()]} has a repeated candidate")
    kind = np.zeros((num_users, num_items), dtype=np.uint8)
    kind[train_pairs[:, 0], train_pairs[:, 1]] = 1
    # a test pair also in train is held-out first, as the held-out check runs first
    kind[test_pairs[:, 0], test_pairs[:, 1]] = 2
    found = kind.ravel()[users[:, None] * num_items + cands]
    for code, what in ((2, "held-out item"), (1, "train positive")):
        hit = (found == code).any(axis=1)
        if hit.any():
            raise ArtifactError(f"{path}: user {users[hit.argmax()]} has their {what} as a candidate")
