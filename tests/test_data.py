"""Tests for ingestion, filtering, alignment, splitting, and sampling.

The filtering and cold-item tests compare against brute-force oracles that
re-scan the full record list instead of updating incrementally. The array
samplers are checked bit for bit against the per-positive loops over sets
they replaced, kept here as reference oracles. In the same way the artifact
writer is checked against per-integer formatting, the reader against the
per-line reader and the ``np.isin`` candidate check it replaced, and ingest,
filtering and alignment on integer codes against the keyed pipeline of
records and key maps they replaced.
"""

import logging
import math
import pathlib
import tempfile
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualrec import data as d
from pairsets import items_by_user, pair_set


def write_ratings(path, rows):
    lines = ["\t".join(str(x) for x in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestLoadInteractions:
    def test_single_row(self, tmp_path):
        p = write_ratings(tmp_path / "r.tsv", [("u1", "i9", 4.5)])
        users, items, timestamps = d.load_interactions(p, {})
        assert users.dtype == items.dtype == np.int64
        assert users.tolist() == [0] and items.tolist() == [0]
        assert timestamps is None

    def test_comment_and_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "r.tsv"
        p.write_text("# user item rating\nu1\ti1\t3\n\nu2\ti2\t5\n", encoding="utf-8")
        users, items, _ = d.load_interactions(str(p), {})
        assert users.tolist() == [0, 1] and items.tolist() == [0, 1]

    def test_timestamp_column(self, tmp_path):
        p = write_ratings(tmp_path / "r.tsv", [("u1", "i1", 3, 1000)])
        _, _, timestamps = d.load_interactions(p, {})
        assert timestamps.dtype == np.float64 and timestamps.tolist() == [1000.0]

    def test_timestamps_dropped_unless_universal(self, tmp_path):
        p = write_ratings(tmp_path / "r.tsv", [("u0", "i0", 3, 1000), ("u0", "i1", 3)])
        assert d.load_interactions(p, {})[2] is None

    def test_empty_file(self, tmp_path):
        p = tmp_path / "r.tsv"
        p.write_text("", encoding="utf-8")
        users, items, timestamps = d.load_interactions(str(p), {})
        assert users.shape == items.shape == (0,) and timestamps is None

    def test_keys_numbered_by_first_appearance(self, tmp_path):
        p = write_ratings(tmp_path / "r.tsv", [("x", "p", 1), ("y", "q", 1), ("x", "q", 1)])
        users, items, _ = d.load_interactions(p, {})
        assert users.tolist() == [0, 1, 0] and items.tolist() == [0, 1, 1]

    def test_user_codes_shared_across_files(self, tmp_path):
        # a shared user keeps its code in the second file; items are numbered per file
        pa = write_ratings(tmp_path / "a.tsv", [("x", "p", 1), ("y", "p", 1)])
        pb = write_ratings(tmp_path / "b.tsv", [("z", "p", 1), ("y", "q", 1)])
        user_codes = {}
        users_a, items_a, _ = d.load_interactions(pa, user_codes)
        users_b, items_b, _ = d.load_interactions(pb, user_codes)
        assert users_a.tolist() == [0, 1] and items_a.tolist() == [0, 0]
        assert users_b.tolist() == [2, 1] and items_b.tolist() == [0, 1]
        assert user_codes == {"x": 0, "y": 1, "z": 2}

    def test_malformed_line_reports_number(self, tmp_path):
        p = tmp_path / "r.tsv"
        p.write_text("u1\ti1\t3\nu2\ti2\n", encoding="utf-8")
        with pytest.raises(d.DatasetError, match=":2: expected 3 or 4 fields, got 2"):
            d.load_interactions(str(p), {})

    def test_nan_timestamp_rejected(self, tmp_path):
        p = write_ratings(tmp_path / "r.tsv", [("u1", "i1", 3, 1000), ("u1", "i2", 3, "nan")])
        with pytest.raises(d.DatasetError, match=":2: timestamp is NaN"):
            d.load_interactions(p, {})

    def test_non_numeric_rating(self, tmp_path):
        p = tmp_path / "r.tsv"
        p.write_text("u1\ti1\thigh\n", encoding="utf-8")
        with pytest.raises(d.DatasetError, match=":1: could not convert string to float: 'high'"):
            d.load_interactions(str(p), {})


def binarize(rows, min_count, user_codes=None):
    """``binarize_and_filter`` on a rating file of ``(user key, item key[, timestamp])``
    rows, rated 1, as ``prepare`` runs it: the set and its users' codes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = write_ratings(pathlib.Path(tmp) / "r.tsv", [(r[0], r[1], 1, *r[2:]) for r in rows])
        codes = d.load_interactions(path, {} if user_codes is None else user_codes)
    return d.binarize_and_filter(*codes, min_count=min_count)


def keys_of(user_codes, codes):
    """The keys that ``user_codes`` numbered as ``codes``."""
    keys = list(user_codes)
    return [keys[c] for c in codes.tolist()]


def brute_force_filter(pairs, min_count):
    """Repeatedly rescan and drop, recomputing degrees from scratch."""
    active = set(pairs)
    while True:
        users = {}
        items = {}
        for u, i in active:
            users[u] = users.get(u, 0) + 1
            items[i] = items.get(i, 0) + 1
        nxt = {
            (u, i) for u, i in active
            if users[u] >= min_count and items[i] >= min_count
        }
        if nxt == active:
            return active
        active = nxt


class TestBinarizeAndFilter:
    def test_exactly_at_threshold_retained(self):
        # 5 users x 5 items, fully crossed: every degree is exactly 5
        iset, _ = binarize(crossed(range(5), range(5)), 5)
        assert iset.num_users == 5 and iset.num_items == 5
        assert len(iset.interactions) == 25

    def test_below_threshold_cascades(self):
        # u0 fully crossed with 5 items shared by 4 other users; u5 has 4 of them
        rows = crossed(range(5), range(5)) + crossed([5], range(4))
        user_codes = {}
        _, kept = binarize(rows, 5, user_codes)
        assert keys_of(user_codes, kept) == [f"u{u}" for u in range(5)]

    def test_duplicates_collapse(self):
        iset, _ = binarize([("u", "i")] * 3, 1)
        assert len(iset.interactions) == 1

    def test_everything_filtered_raises(self):
        with pytest.raises(d.DatasetError, match="no interactions survive the minimum-count"):
            binarize([("u", "i")], 2)

    def test_no_records_raises(self):
        with pytest.raises(d.DatasetError, match="no interactions survive the minimum-count"):
            d.binarize_and_filter(np.array([], np.int64), np.array([], np.int64), min_count=1)

    def test_matches_brute_force_oracle(self):
        # a dense core plus a sparse tail, so filtering actually cascades
        rng = np.random.default_rng(42)
        pairs = {
            (f"u{rng.integers(30)}", f"i{rng.integers(30)}") for _ in range(900)
        }
        pairs |= {
            (f"u{rng.integers(100)}", f"i{rng.integers(100)}") for _ in range(900)
        }
        rows = sorted(pairs)
        user_codes = {}
        iset, kept = binarize(rows, 5, user_codes)
        expected = brute_force_filter(pairs, 5)
        assert expected  # sanity: the oracle keeps something
        assert len(expected) < len(pairs)  # and drops something
        # survivors are numbered in the order they first appear in the records
        users, items = {}, {}
        for u, i in (p for p in rows if p in expected):
            users.setdefault(u, len(users))
            items.setdefault(i, len(items))
        assert keys_of(user_codes, kept) == list(users)
        assert pair_set(iset) == {(users[u], items[i]) for u, i in expected}

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        pairs = {(f"u{rng.integers(40)}", f"i{rng.integers(40)}") for _ in range(400)}
        once, _ = binarize(sorted(pairs), 5)
        pairs = once.interactions
        again, kept = d.binarize_and_filter(pairs[:, 0], pairs[:, 1], min_count=5)
        assert len(again.interactions) == len(once.interactions)
        assert again.num_users == once.num_users
        assert again.num_items == once.num_items
        np.testing.assert_array_equal(kept, np.arange(once.num_users))

    def test_indices_dense(self):
        user_codes = {}
        iset, kept = binarize(crossed(range(6), range(6)), 5, user_codes)
        assert kept.dtype == np.int64
        assert keys_of(user_codes, kept) == [f"u{u}" for u in range(6)]
        np.testing.assert_array_equal(np.unique(iset.indices), np.arange(iset.num_items))

    def test_code_values_do_not_matter(self):
        # any injective renumbering of the codes gives the same set, and the
        # kept users' codes in the new numbering
        rng = np.random.default_rng(3)
        users, items = rng.integers(0, 12, 150), rng.integers(0, 15, 150)
        iset, kept = d.binarize_and_filter(users, items, min_count=3)
        user_perm, item_perm = rng.permutation(1000)[:12], rng.permutation(50)[:15]
        again, kept_again = d.binarize_and_filter(user_perm[users], item_perm[items], min_count=3)
        np.testing.assert_array_equal(again.indptr, iset.indptr)
        np.testing.assert_array_equal(again.indices, iset.indices)
        np.testing.assert_array_equal(kept_again, user_perm[kept])

    def test_timestamps_kept_when_given(self):
        rows = [(f"u{u}", f"i{i}", float(10 * u + i)) for u in range(5) for i in range(5)]
        iset, _ = binarize(rows, 5)
        assert iset.timestamps is not None
        assert len(iset.timestamps) == 25

    def test_repeated_pair_keeps_latest_timestamp(self):
        iset, _ = binarize([("u", "i", 3.0), ("u", "j", 1.0), ("u", "i", 7.0), ("u", "i", 5.0)], 1)
        assert iset.timestamps.tolist() == [7.0, 1.0]


def crossed(users, items, user_prefix="u", item_prefix="i"):
    return [(f"{user_prefix}{u}", f"{item_prefix}{i}") for u in users for i in items]


def align(rows_a, rows_b, min_count=1):
    """Both domains ingested with one user numbering, filtered and aligned.

    Returns the aligned sets and the keys of their users.
    """
    user_codes = {}
    a, users_a = binarize(rows_a, min_count, user_codes)
    b, users_b = binarize(rows_b, min_count, user_codes)
    a2, b2, common = d.align_common_users(a, users_a, b, users_b)
    return a2, b2, keys_of(user_codes, common)


class TestAlignCommonUsers:
    def test_partial_overlap(self):
        a2, b2, common = align(crossed(["x", "y"], range(5)),
                               crossed(["y", "z"], range(5), item_prefix="j"))
        assert common == ["uy"]
        assert a2.num_users == b2.num_users == 1

    def test_identity_when_user_sets_match(self):
        a, users_a = binarize(crossed(range(3), range(5)), 1)
        b, users_b = binarize(crossed(range(3), range(5), item_prefix="j"), 1)
        a2, b2, common = d.align_common_users(a, users_a, b, users_b)
        assert a2.num_users == 3
        assert len(a2.interactions) == len(a.interactions)
        np.testing.assert_array_equal(common, users_a)

    def test_common_users_follow_domain_a_index_order(self):
        # A's first record, r's, is filtered out, so r's code (0) is below p's
        # (1) while r's index (2) is above p's (0); B lists the shared users in
        # the other order and has one that A lacks
        user_codes = {}
        rows_a = [("r", "x")] + crossed(["p", "q", "r"], range(2), user_prefix="")
        rows_b = [("s", "j0"), ("r", "j1"), ("r", "j2"), ("p", "j2"), ("p", "j3")]
        a, users_a = binarize(rows_a, 2, user_codes)
        b, users_b = binarize(rows_b, 1, user_codes)
        a2, b2, common = d.align_common_users(a, users_a, b, users_b)
        assert keys_of(user_codes, users_a) == ["p", "q", "r"]
        assert users_a[0] > users_a[2]
        assert keys_of(user_codes, common) == ["p", "r"]
        assert items_by_user(a2) == {0: {0, 1}, 1: {0, 1}}
        # B's items j1, j2, j3 are its kept items 0, 1, 2
        assert items_by_user(b2) == {0: {1, 2}, 1: {0, 1}}

    def test_no_overlap_raises(self):
        with pytest.raises(d.DatasetError, match="no common users between the two domains"):
            align(crossed(["x"], range(5)), crossed(["z"], range(5)))

    def test_items_redensified(self):
        # user "a" is the only one touching items 5..9; dropping it must
        # compact domain-A item indices
        a2, _, _ = align(crossed(["a"], range(5, 10)) + crossed(["b"], range(5)),
                         crossed(["b"], range(5), item_prefix="j"))
        assert a2.num_items == 5
        np.testing.assert_array_equal(np.unique(a2.indices), np.arange(5))

    def test_pairs_keep_their_keys(self, tmp_path):
        # the keyed reference keeps each pair's keys; the code pipeline gives its arrays
        rows_a = crossed(["a"], range(5, 10)) + crossed(["b"], [8, 1]) + crossed(["c"], [6, 3, 1])
        rows_b = crossed(["c", "b"], range(3), item_prefix="j")
        paths = [write_ratings(tmp_path / f"{t}.tsv", [(*r, 1) for r in rows])
                 for t, rows in (("a", rows_a), ("b", rows_b))]
        sets = [reference_binarize(*reference_encode(reference_records(p)), min_count=1)
                for p in paths]
        ref_a2, ref_b2 = reference_align(*sets)
        assert keyed(ref_a2) == {(u, i) for u, i in keyed(sets[0]) if u != "ua"}
        assert keyed(ref_b2) == keyed(sets[1])
        a2, b2, common = align(rows_a, rows_b)
        assert common == list(ref_a2.user_map)
        for got, ref in ((a2, ref_a2), (b2, ref_b2)):
            np.testing.assert_array_equal(got.indptr, ref.iset.indptr)
            np.testing.assert_array_equal(got.indices, ref.iset.indices)


class TestLeaveOneOutSplit:
    def small_set(self, users=2, items=5):
        return binarize(crossed(range(users), range(items)), 1)[0]

    def test_cardinalities(self):
        split = d.leave_one_out_split(self.small_set(), rng=0)
        assert split.test.dtype == np.int64 and split.test.shape == (2, 2)
        assert len(split.train.interactions) == 8
        for u, i in split.test.tolist():
            assert (u, i) not in pair_set(split.train)

    def test_deterministic(self):
        s1 = d.leave_one_out_split(self.small_set(), rng=3)
        s2 = d.leave_one_out_split(self.small_set(), rng=3)
        np.testing.assert_array_equal(s1.test, s2.test)
        assert pair_set(s1.train) == pair_set(s2.train)

    def test_single_interaction_user_rejected(self):
        iset = d.InteractionSet.from_pairs(1, 1, {(0, 0)})
        with pytest.raises(d.DatasetError):
            d.leave_one_out_split(iset, rng=0)

    def test_timestamp_rule_picks_latest(self):
        iset, _ = binarize([("u", f"i{i}", float(100 - i)) for i in range(5)], 1)
        split = d.leave_one_out_split(iset, rng=0)
        # i0, the first item seen and so item 0, has the largest timestamp
        assert split.test.tolist() == [[0, 0]]

    def test_timestamp_tie_broken_by_larger_item_index(self):
        iset, _ = binarize([("u", f"i{i}", 7.0) for i in range(4)], 1)
        split = d.leave_one_out_split(iset, rng=0)
        assert split.test.tolist() == [[0, 3]]

    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_draws_match_per_user_loop(self, seed):
        shape = np.random.default_rng([seed, 99])
        num_users, num_items = int(shape.integers(1, 60)), 400
        pairs = {(u, int(i)) for u in range(num_users)
                 for i in shape.choice(num_items, size=int(shape.integers(2, 300)), replace=False)}
        iset = d.InteractionSet.from_pairs(num_users, num_items, pairs)
        gen = np.random.default_rng(seed)
        split = d.leave_one_out_split(iset, gen)
        # the reference: one integers draw per user, in user order
        ref = np.random.default_rng(seed)
        held = [iset.indptr[u] + ref.integers(n) for u, n in enumerate(np.diff(iset.indptr))]
        assert split.test.tolist() == [[u, int(iset.indices[h])] for u, h in enumerate(held)]
        assert gen.bit_generator.state == ref.bit_generator.state


class TestFilterColdItems:
    def test_shared_item_kept(self):
        # user 0 holds out item 2, which user 1 still trains on
        train = d.InteractionSet.from_pairs(2, 3, {(0, 0), (0, 1), (1, 1), (1, 2)})
        split = d.SplitDataset(train=train, test=np.array([[0, 2]]))
        assert d.filter_cold_items(split).test.tolist() == [[0, 2]]

    def test_unique_item_dropped(self):
        iset, _ = binarize(crossed(range(2), range(4)) + [("u0", "solo")], 1)
        solo = 4  # the last item to appear
        split = d.SplitDataset(
            train=d.InteractionSet.from_pairs(
                iset.num_users,
                iset.num_items,
                {(u, i) for u, i in pair_set(iset) if i != solo},
            ),
            test=np.array([[0, solo], [1, 0]]),
        )
        filtered = d.filter_cold_items(split)
        assert filtered.test.tolist() == [[1, 0]]

    def test_no_test_users(self):
        split = d.SplitDataset(train=d.InteractionSet.from_pairs(1, 2, [(0, 0)]),
                               test=np.empty((0, 2), dtype=np.int64))
        assert d.filter_cold_items(split).test.shape == (0, 2)

    def test_matches_membership_oracle(self):
        rng = np.random.default_rng(11)
        pairs = {(int(rng.integers(50)), int(rng.integers(80))) for _ in range(900)}
        for u in range(50):  # every user needs >= 2 interactions to split
            pairs.add((u, 0))
            pairs.add((u, 1))
        iset = d.InteractionSet.from_pairs(50, 80, pairs)
        split = d.leave_one_out_split(iset, rng=5)
        filtered = d.filter_cold_items(split)
        trained_items = {i for _, i in pair_set(split.train)}
        expected = [[u, i] for u, i in split.test.tolist() if i in trained_items]
        assert filtered.test.tolist() == expected


class TestSampleTrainNegatives:
    def base_train(self, num_items=100, seen=(0, 1, 2)):
        inter = {(0, i) for i in seen}
        return d.InteractionSet.from_pairs(1, num_items, inter)

    def test_excludes_seen(self):
        train = self.base_train()
        negs = d.sample_train_negatives(train, ratio=7, rng=0)
        assert negs.shape == (3 * 7, 2)
        for u, i in negs:
            assert (u, i) not in pair_set(train)

    def test_distinct_within_one_positive(self):
        train = self.base_train()
        negs = d.sample_train_negatives(train, ratio=7, rng=1)
        for start in range(0, len(negs), 7):
            block = [i for _, i in negs[start:start + 7]]
            assert len(set(block)) == 7

    def test_exhausted_pool_takes_all_and_warns(self, caplog):
        train = self.base_train(num_items=100, seen=range(95))
        with caplog.at_level("WARNING"):
            negs = d.sample_train_negatives(train, ratio=7, rng=2)
        assert "unseen" in caplog.text
        per_positive = len(negs) / 95
        assert per_positive == 5  # whole 5-item pool per positive

    def test_two_item_pool_frequencies(self):
        # 10k draws at ratio 1 over a 2-item unseen pool
        train = d.InteractionSet.from_pairs(1, 4, {(0, 0), (0, 1)})
        counts = {2: 0, 3: 0}
        rng = np.random.default_rng(123)
        for _ in range(5000):
            for _, i in d.sample_train_negatives(train, ratio=1, rng=rng):
                counts[i] += 1
        total = sum(counts.values())
        assert total == 10000
        assert abs(counts[2] / total - 0.5) < 0.02

    @pytest.mark.parametrize("ratio", [0, -1])
    def test_ratio_below_one_raises(self, ratio):
        with pytest.raises(ValueError, match="ratio must be >= 1"):
            d.sample_train_negatives(self.base_train(), ratio=ratio, rng=0)

    def test_more_than_2_to_the_32_items_draws_as_choice(self):
        # a pool of 2**32 + 1 items takes choice's 64-bit bounded draws
        train = d.InteractionSet.from_pairs(1, (1 << 32) + 2, [(0, 0)])
        gen, reference = np.random.default_rng(0), np.random.default_rng(0)
        negs = d.sample_train_negatives(train, ratio=7, rng=gen)
        np.testing.assert_array_equal(negs[:, 0], 0)
        np.testing.assert_array_equal(
            negs[:, 1], reference.choice((1 << 32) + 1, 7, replace=False) + 1
        )
        assert gen.bit_generator.state == reference.bit_generator.state

    def test_tail_shuffle_regime_draws_distinct_unseen_items(self):
        # a 10,001-item pool at ratio 201, where Generator.choice would shuffle
        # the pool's tail instead of running Floyd's algorithm
        seen = (0, 5000, 10003)
        train = self.base_train(num_items=10004, seen=seen)
        negs = d.sample_train_negatives(train, ratio=201, rng=3)
        assert negs.shape == (3 * 201, 2)
        for block in negs[:, 1].reshape(3, 201):
            assert len(set(block.tolist())) == 201
            assert not set(block.tolist()) & set(seen)
            assert block.min() >= 0 and block.max() < 10004

    def test_marginals_within_binomial_band(self):
        # each unseen item should appear ~ n_draws * ratio / pool_size times
        train = self.base_train(num_items=23, seen=(0, 1, 2))
        pool = 20
        epochs = 400
        counts = np.zeros(23)
        rng = np.random.default_rng(99)
        for _ in range(epochs):
            for _, i in d.sample_train_negatives(train, ratio=7, rng=rng):
                counts[i] += 1
        draws = epochs * 3 * 7
        p = 1 / pool
        sigma = np.sqrt(draws * p * (1 - p))
        for item in range(3, 23):
            assert abs(counts[item] - draws * p) < 3 * sigma


class TestSampleEvalCandidates:
    def make_split(self, num_items=30):
        iset, _ = binarize(crossed(range(2), range(5)), 1)
        iset.num_items = num_items
        return d.leave_one_out_split(iset, rng=0)

    def test_counts_and_exclusions(self):
        split = self.make_split()
        done = d.sample_eval_candidates(split, n=10, rng=0)
        per_user = items_by_user(done.train)
        held = dict(done.test.tolist())
        for u, cands in done.eval_candidates.items():
            assert len(cands) == 10
            assert len(set(cands)) == 10
            for c in cands:
                assert c not in per_user[u]
                assert c != held[u]

    def test_deterministic(self):
        split = self.make_split()
        c1 = d.sample_eval_candidates(split, n=10, rng=4).eval_candidates
        c2 = d.sample_eval_candidates(split, n=10, rng=4).eval_candidates
        assert_same_candidates(c1, c2)

    def test_pool_too_small_raises(self):
        split = self.make_split(num_items=8)
        with pytest.raises(d.DatasetError, match="user 0: only 3 unseen items, need 10 candidates"):
            d.sample_eval_candidates(split, n=10, rng=0)

    def test_2_to_the_31_items_raises(self):
        # candidates are int32 item indices; the check comes before any array is made
        split = self.make_split(num_items=1 << 31)
        with pytest.raises(ValueError, match=r"2\*\*31"):
            d.sample_eval_candidates(split, n=10, rng=0)

    def test_single_candidate_pool(self):
        # user saw 3 of 5 items; after holding one out the unseen pool is 2
        iset = d.InteractionSet.from_pairs(1, 5, {(0, 0), (0, 1), (0, 2)})
        split = d.leave_one_out_split(iset, rng=0)
        done = d.sample_eval_candidates(split, n=1, rng=0)
        (u, held), = done.test.tolist()
        cand, = done.eval_candidates[u]
        assert cand in (3, 4)
        assert (u, cand) not in pair_set(done.train)
        assert cand != held


def assert_same_candidates(got, expected):
    """Two candidate dicts name the same users, each with the same items in the same order."""
    assert got.keys() == expected.keys()
    for u, row in expected.items():
        np.testing.assert_array_equal(got[u], row, err_msg=f"user {u}")


def reference_train_negatives(train, ratio, rng):
    """The set-based sampler: one setdiff1d pool per user, one draw per positive."""
    gen = np.random.default_rng(rng)  # a Generator passes through unaltered
    per_user = items_by_user(train)
    all_items = np.arange(train.num_items)
    pools, warned, out = {}, set(), []
    for u, i in sorted(pair_set(train)):
        pool = pools.get(u)
        if pool is None:
            pool = np.setdiff1d(all_items, np.fromiter(per_user[u], dtype=int))
            pools[u] = pool
        if pool.size < ratio:
            warned.add(u)
            chosen = pool
        else:
            chosen = gen.choice(pool, size=ratio, replace=False)
        out.extend((u, int(item)) for item in chosen)
    return out, warned


def assert_negatives_match_reference(train, ratio, make_rng):
    """The sampler gives the reference's rows and leaves its generator where the reference's is.

    ``make_rng`` makes a fresh generator, the same on every call.
    """
    ref_gen, gen = make_rng(), make_rng()
    expected, _ = reference_train_negatives(train, ratio, ref_gen)
    got = d.sample_train_negatives(train, ratio, gen)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, np.array(expected, dtype=np.int64).reshape(-1, 2))
    np.testing.assert_equal(gen.bit_generator.state, ref_gen.bit_generator.state)


def reference_eval_candidates(split, n, rng):
    """The set-based candidate freezer: one setdiff1d pool per test user."""
    gen = np.random.default_rng(rng)
    per_user = items_by_user(split.train)
    all_items = np.arange(split.train.num_items)
    candidates = {}
    for u, held in split.test.tolist():
        excluded = set(per_user[u]) | {held}
        pool = np.setdiff1d(all_items, np.fromiter(excluded, dtype=int))
        candidates[u] = [int(x) for x in gen.choice(pool, size=n, replace=False)]
    return candidates


def random_train(num_users, num_items, rng, max_per_user):
    """Users with 0..max_per_user positives each, some of them empty."""
    inter = set()
    for u in range(num_users):
        k = int(rng.integers(0, max_per_user + 1))
        inter.update((u, int(i)) for i in rng.choice(num_items, size=k, replace=False))
    return d.InteractionSet.from_pairs(num_users, num_items, inter)


class TestInteractionCsr:
    """``from_pairs`` stores sorted CSR rows of the pairs it is given."""

    def test_rows_are_sorted_interactions(self):
        rng = np.random.default_rng(0)
        pairs = [(int(rng.integers(30)), int(rng.integers(40))) for _ in range(300)]
        train = d.InteractionSet.from_pairs(30, 40, pairs)  # holds repeated pairs
        indptr, indices = train.indptr, train.indices
        assert indptr.dtype == indices.dtype == np.int64
        assert indptr.shape == (31,) and indptr[-1] == indices.size
        rows = [(u, int(i)) for u in range(30) for i in indices[indptr[u]:indptr[u + 1]]]
        assert rows == sorted(set(pairs))
        assert train.interactions.dtype == np.int64
        assert train.interactions.tolist() == [list(p) for p in sorted(set(pairs))]

    def test_empty_set(self):
        train = random_train(3, 5, np.random.default_rng(0), 0)
        np.testing.assert_array_equal(train.indptr, [0, 0, 0, 0])
        assert train.indices.shape == (0,) and train.indices.dtype == np.int64
        assert train.interactions.shape == (0, 2)


@pytest.mark.pins
class TestSamplersMatchReference:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("ratio", [1, 7])
    def test_train_negatives_bitwise(self, seed, ratio):
        rng = np.random.default_rng(seed)
        train = random_train(40, 60, rng, 25)
        expected, _ = reference_train_negatives(train, ratio, [seed, 7])
        got = d.sample_train_negatives(train, ratio, np.random.default_rng([seed, 7]))
        assert got.dtype == np.int64 and got.shape == (len(expected), 2)
        np.testing.assert_array_equal(got, np.array(expected, dtype=np.int64).reshape(-1, 2))

    def test_exhausted_pools_bitwise_and_warned_once_per_user(self, caplog):
        # users 0 and 2 leave fewer than 7 unseen items; user 1 does not
        inter = {(0, i) for i in range(15)} | {(1, i) for i in range(3)}
        inter |= {(2, i) for i in range(2, 20)}
        train = d.InteractionSet.from_pairs(4, 20, inter)
        expected, warned = reference_train_negatives(train, 7, 5)
        with caplog.at_level(logging.WARNING, logger="dualrec.data"):
            got = d.sample_train_negatives(train, 7, 5)
        np.testing.assert_array_equal(got, np.array(expected, dtype=np.int64).reshape(-1, 2))
        warnings = [r.getMessage() for r in caplog.records if "unseen" in r.getMessage()]
        assert warned == {0, 2}
        assert len(warnings) == 2
        assert warnings[0].startswith("user 0 ") and warnings[1].startswith("user 2 ")

    def test_no_positives_draws_nothing(self):
        train = random_train(3, 5, np.random.default_rng(0), 0)
        got = d.sample_train_negatives(train, 7, 0)
        assert got.shape == (0, 2) and got.dtype == np.int64

    def test_pool_exactly_ratio_wide(self):
        # user 0's pool is 7 items: its first Floyd bound is 0 and draws nothing
        inter = {(0, i) for i in range(13)} | {(1, 4), (1, 9)}
        train = d.InteractionSet.from_pairs(2, 20, inter)
        assert_negatives_match_reference(train, 7, lambda: np.random.default_rng(11))

    def test_ratio_one(self):
        # pools of 1 (no draw), 2 and 37 items
        inter = {(0, i) for i in range(39)} | {(1, i) for i in range(38)} | {(2, 0), (2, 7)}
        train = d.InteractionSet.from_pairs(3, 40, inter)
        assert_negatives_match_reference(train, 1, lambda: np.random.default_rng(12))

    def test_idle_users_between_drawing_users(self):
        # users 1 and 5 have no positives; users 2 (pool 3) and 4 (pool 0) are exhausted
        inter = {(0, 3), (0, 8)} | {(2, i) for i in range(17)} | {(3, 1)}
        inter |= {(4, i) for i in range(20)} | {(6, i) for i in range(0, 20, 3)}
        train = d.InteractionSet.from_pairs(7, 20, inter)
        assert_negatives_match_reference(train, 7, lambda: np.random.default_rng(13))

    @pytest.mark.parametrize(
        "bit_generator",
        [np.random.PCG64, np.random.Philox, np.random.SFC64],
        ids=lambda b: b.__name__,
    )
    @pytest.mark.parametrize("positives", [1, 2])
    def test_generator_holding_a_uint32_half(self, positives, bit_generator):
        # 13 or 26 draws after the held half: the call ends on a whole word or half of one
        def make_rng():
            gen = np.random.Generator(bit_generator(14))
            gen.integers(0, 10, dtype=np.uint32)
            assert gen.bit_generator.state["has_uint32"] == 1
            return gen

        train = d.InteractionSet.from_pairs(1, 30, {(0, i) for i in range(positives)})
        assert_negatives_match_reference(train, 7, make_rng)

    def test_rejected_draw_is_redrawn(self):
        # seed 3728's first uint32 fails Lemire's test for the first Floyd
        # draw, in [0, 2**20], so that draw takes the next uint32 and every
        # later draw one uint32 later
        seed, ratio, positives = 3728, 7, 40
        span = (1 << 20) + 1
        first = int(np.random.PCG64(seed).random_raw()) & 0xFFFFFFFF
        assert (first * span) & 0xFFFFFFFF < (1 << 32) % span
        num_items = span - 1 + ratio + positives  # pool of 2**20 + ratio items
        train = d.InteractionSet.from_pairs(1, num_items, {(0, i) for i in range(positives)})
        assert_negatives_match_reference(train, ratio, lambda: np.random.default_rng(seed))

    @given(
        num_items=st.integers(1, 60),
        degrees=st.lists(st.integers(0, 60), min_size=1, max_size=30),
        ratio=st.integers(1, 9),
        seed=st.integers(0, 2**64 - 1),
        held_half=st.booleans(),
        bit_generator=st.sampled_from(
            [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64]
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_csr_set_matches_reference(
        self, num_items, degrees, ratio, seed, held_half, bit_generator
    ):
        layout = np.random.default_rng(seed)
        pairs = [
            (u, int(i))
            for u, k in enumerate(degrees)
            for i in layout.choice(num_items, size=min(k, num_items), replace=False)
        ]
        train = d.InteractionSet.from_pairs(len(degrees), num_items, pairs)

        def make_rng():
            gen = np.random.Generator(bit_generator([seed, 1]))
            if held_half:
                gen.integers(0, 10, dtype=np.uint32)
            return gen

        assert_negatives_match_reference(train, ratio, make_rng)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_eval_candidates_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        train = random_train(30, 80, rng, 20)
        split = d.SplitDataset(
            train=train,
            test=np.array([(u, int(rng.integers(80))) for u in range(30) if u % 4]),
        )
        # a held-out item may be a train positive here; both are excluded
        got = d.sample_eval_candidates(split, n=25, rng=seed).eval_candidates
        expected = reference_eval_candidates(split, 25, seed)
        assert_same_candidates(got, expected)
        assert {row.dtype for row in got.values()} == {np.dtype(np.int32)}

    def test_default_spec_matches_reference(self):
        from dualrec.synthetic import SyntheticSpec, generate_synthetic

        set_a, _ = generate_synthetic(SyntheticSpec(seed=1))
        split = d.filter_cold_items(d.leave_one_out_split(set_a, np.random.default_rng([1, 10])))
        got = d.sample_eval_candidates(split, 400, np.random.default_rng([1, 12]))
        assert_same_candidates(got.eval_candidates, reference_eval_candidates(split, 400, [1, 12]))
        expected, _ = reference_train_negatives(split.train, 7, [1, 3])
        np.testing.assert_array_equal(
            d.sample_train_negatives(split.train, 7, np.random.default_rng([1, 3])),
            np.array(expected, dtype=np.int64),
        )


class TestArtifacts:
    def complete_split(self):
        # 3 users x 4 items inside a 12-item universe, leaving room for candidates
        inter = {(u, i) for u in range(3) for i in range(u, u + 4)}
        iset = d.InteractionSet.from_pairs(3, 12, inter)
        split = d.leave_one_out_split(iset, rng=0)
        return d.sample_eval_candidates(split, n=3, rng=0)

    def test_roundtrip(self, tmp_path):
        split = self.complete_split()
        out = tmp_path / "domain_a"
        d.write_split_artifact(str(out), split, {"seed": 0})
        loaded, meta = d.read_split_artifact(str(out))
        assert pair_set(loaded.train) == pair_set(split.train)
        assert loaded.test.dtype == np.int64
        np.testing.assert_array_equal(loaded.test, split.test)
        assert_same_candidates(loaded.eval_candidates, split.eval_candidates)
        assert meta["seed"] == "0"
        assert int(meta["num_users"]) == 3

    def test_candidate_rows_are_int32_rows_of_one_array(self, tmp_path):
        split = self.complete_split()
        out = tmp_path / "domain_a"
        d.write_split_artifact(str(out), split, {})
        loaded, _ = d.read_split_artifact(str(out))
        for cands in (split.eval_candidates, loaded.eval_candidates):
            rows = [cands[u] for u in split.test[:, 0].tolist()]
            assert all(row.dtype == np.int32 and row.shape == (3,) for row in rows)
            assert rows[0].base is not None
            assert all(row.base is rows[0].base for row in rows)

    def test_write_read_write_is_byte_identical(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        d.write_split_artifact(str(first), self.complete_split(), {"n_candidates": 3})
        loaded, meta = d.read_split_artifact(str(first))
        d.write_split_artifact(str(second), loaded, meta)
        for name in ("train.tsv", "test.tsv", "candidates.tsv", "meta"):
            assert (second / name).read_bytes() == (first / name).read_bytes(), name

    def test_no_temp_files_left(self, tmp_path):
        out = tmp_path / "domain_a"
        d.write_split_artifact(str(out), self.complete_split(), {})
        assert not [p for p in out.iterdir() if p.name.endswith(".tmp")]

    def test_missing_file_raises(self, tmp_path):
        out = tmp_path / "domain_a"
        d.write_split_artifact(str(out), self.complete_split(), {})
        (out / "candidates.tsv").unlink()
        with pytest.raises(d.ArtifactError):
            d.read_split_artifact(str(out))

    def test_incomplete_split_rejected(self, tmp_path):
        split = self.complete_split()
        bare = d.SplitDataset(train=split.train, test=split.test)
        with pytest.raises(ValueError):
            d.write_split_artifact(str(tmp_path / "x"), bare, {})


def reference_artifact_text(split):
    """The three index files as formatting each integer on its own writes them."""
    lines = {
        "train.tsv": [f"{u}\t{i}" for u, i in split.train.interactions.tolist()],
        "test.tsv": [f"{u}\t{i}" for u, i in split.test.tolist()],
        "candidates.tsv": [
            f"{u}\t{','.join(map(str, split.eval_candidates[u].tolist()))}"
            for u in split.test[:, 0].tolist()
        ],
    }
    return {name: "\n".join(rows) + "\n" for name, rows in lines.items()}


def spread_split(num_users, num_items, width, seed):
    """A split whose indices span both ranges, with candidates in drawn order."""
    rng = np.random.default_rng(seed)
    pairs = {(u, int(i)) for u in range(num_users) for i in rng.choice(num_items, 2, replace=False)}
    train = d.InteractionSet.from_pairs(num_users, num_items, pairs)
    test = np.column_stack([np.arange(num_users), rng.integers(num_items, size=num_users)])
    cands = {u: rng.choice(num_items, width, replace=False) for u in range(num_users)}
    return d.SplitDataset(train=train, test=test, eval_candidates=cands)


@st.composite
def artifact_splits(draw):
    num_users = draw(st.integers(1, 30))
    num_items = draw(st.integers(1, 130))
    user, item = st.integers(0, num_users - 1), st.integers(0, num_items - 1)
    pairs = draw(st.sets(st.tuples(user, item), max_size=40))
    test_users = draw(st.lists(user, unique=True, max_size=num_users))
    width = draw(st.integers(1, min(num_items, 5)))
    row = st.lists(item, min_size=width, max_size=width, unique=True)
    return d.SplitDataset(
        train=d.InteractionSet.from_pairs(num_users, num_items, sorted(pairs)),
        test=np.array([(u, draw(item)) for u in test_users], dtype=np.int64).reshape(-1, 2),
        eval_candidates={u: np.array(draw(row), dtype=np.int64) for u in test_users},
    )


class TestArtifactWriter:
    """The index files hold exactly what per-integer formatting writes."""

    def assert_reference_bytes(self, out, split):
        for name, text in reference_artifact_text(split).items():
            assert (out / name).read_bytes() == text.encode("utf-8"), name

    def test_no_test_users(self, tmp_path):
        split = TestArtifacts().complete_split()
        bare = d.SplitDataset(
            train=split.train, test=np.empty((0, 2), np.int64), eval_candidates={}
        )
        d.write_split_artifact(str(tmp_path), bare, {})
        assert (tmp_path / "test.tsv").read_bytes() == b"\n"
        assert (tmp_path / "candidates.tsv").read_bytes() == b"\n"
        self.assert_reference_bytes(tmp_path, bare)

    @pytest.mark.parametrize("num_users,num_items", [(150, 7), (4, 1200), (120, 120)])
    def test_users_and_items_of_any_width(self, tmp_path, num_users, num_items):
        split = spread_split(num_users, num_items, 5, seed=num_users)
        d.write_split_artifact(str(tmp_path), split, {})
        self.assert_reference_bytes(tmp_path, split)
        text = (tmp_path / "train.tsv").read_text()
        assert f"\n{num_users - 1}\t" in text  # multi-digit users are written whole

    def test_candidates_keep_their_drawn_order(self, tmp_path):
        split = TestArtifacts().complete_split()
        users = split.test[:, 0].tolist()
        split.eval_candidates = {u: np.array([11, 2, 7 + u]) for u in users}
        d.write_split_artifact(str(tmp_path), split, {})
        lines = (tmp_path / "candidates.tsv").read_text().splitlines()
        assert lines == [f"{u}\t11,2,{7 + u}" for u in users]

    @given(artifact_splits())
    @settings(max_examples=60, deadline=None)
    def test_bytes_equal_per_integer_formatting(self, split):
        with tempfile.TemporaryDirectory() as out:
            d.write_split_artifact(out, split, {})
            self.assert_reference_bytes(pathlib.Path(out), split)


class TestArtifactValidation:
    """Each bad artifact is rejected on load with ArtifactError; blank lines
    and CRLF line ends load as written."""

    @pytest.fixture()
    def art(self, tmp_path):
        split = TestArtifacts().complete_split()
        out = tmp_path / "domain_a"
        d.write_split_artifact(str(out), split, {"n_candidates": 3})
        return out, split

    def rewrite(self, path, edit):
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")

    def test_valid_artifact_loads(self, art):
        out, split = art
        loaded, _ = d.read_split_artifact(str(out))
        assert_same_candidates(loaded.eval_candidates, split.eval_candidates)

    @pytest.mark.parametrize("name,line,match", [
        ("train.tsv", "0\t12", "outside 3 users x 12 items"),
        ("train.tsv", "3\t0", "outside"),
        ("train.tsv", "-1\t0", "outside"),
        ("test.tsv", "0\t99", "outside"),
        ("train.tsv", "0\t1\t2", "user<TAB>item"),
        ("train.tsv", "0\tx", "malformed"),
    ])
    def test_bad_pair_line(self, art, name, line, match):
        out, _ = art
        self.rewrite(out / name, lambda lines: lines[:-1] + [line])
        with pytest.raises(d.ArtifactError, match=match):
            d.read_split_artifact(str(out))

    def candidate_edit(self, art, make):
        """Replace user 0's candidates with make(held item, train positives)."""
        out, split = art
        held = dict(split.test.tolist())[0]
        seen = sorted(i for u, i in pair_set(split.train) if u == 0)
        cands = make(held, seen)
        self.rewrite(out / "candidates.tsv", lambda lines: [
            f"0\t{','.join(map(str, cands))}" if line.startswith("0\t") else line
            for line in lines
        ])
        return out

    @pytest.mark.parametrize("make,match", [
        (lambda held, seen: [10, 11], "user 0 has 2 candidates, expected 3"),
        (lambda held, seen: [10, 11, 9, 8], "user 0 has 4 candidates"),
        (lambda held, seen: [5, 5, 5], "repeated candidate"),
        (lambda held, seen: [10, 11, 12], "outside"),
        (lambda held, seen: [10, 11, held], "held-out item"),
        (lambda held, seen: [10, 11, seen[0]], "train positive"),
    ])
    def test_bad_candidate_line(self, art, make, match):
        out = self.candidate_edit(art, make)
        with pytest.raises(d.ArtifactError, match=match):
            d.read_split_artifact(str(out))

    @pytest.mark.parametrize("names,match", [
        (("train.tsv",), r"pair \(\d+, \d+\) is on two lines"),
        (("test.tsv", "candidates.tsv"), r"user \d+ is on two lines"),
    ])
    def test_repeated_line(self, art, names, match):
        out, _ = art
        for name in names:
            self.rewrite(out / name, lambda lines: lines + lines[-1:])
        with pytest.raises(d.ArtifactError, match=match):
            d.read_split_artifact(str(out))

    def test_malformed_meta_line(self, art):
        out, _ = art
        self.rewrite(out / "meta", lambda lines: lines + ["num_users 3"])
        with pytest.raises(d.ArtifactError, match="expected 'key = value'"):
            d.read_split_artifact(str(out))

    def test_missing_candidate_line(self, art):
        out, _ = art
        self.rewrite(out / "candidates.tsv", lambda lines: lines[1:])
        with pytest.raises(d.ArtifactError, match="differ from the test users"):
            d.read_split_artifact(str(out))

    def test_uneven_lines_without_meta_count(self, tmp_path):
        out = tmp_path / "domain_a"
        d.write_split_artifact(str(out), TestArtifacts().complete_split(), {})
        self.rewrite(out / "candidates.tsv", lambda lines: lines[:-1] + [lines[-1] + ",11"])
        with pytest.raises(d.ArtifactError, match="candidates, expected 3"):
            d.read_split_artifact(str(out))

    def assert_loads_as_written(self, out, split):
        loaded, _ = d.read_split_artifact(str(out))
        assert pair_set(loaded.train) == pair_set(split.train)
        np.testing.assert_array_equal(loaded.test, split.test)
        assert_same_candidates(loaded.eval_candidates, split.eval_candidates)

    def test_blank_lines_between_rows_are_skipped(self, art):
        out, split = art
        for name in ("train.tsv", "test.tsv", "candidates.tsv"):
            self.rewrite(out / name, lambda lines: [x for line in lines for x in ("", line, " \t ")])
        self.assert_loads_as_written(out, split)

    def test_crlf_line_ends_read_as_newlines(self, art):
        out, split = art
        for name in ("train.tsv", "test.tsv", "candidates.tsv", "meta"):
            (out / name).write_bytes((out / name).read_bytes().replace(b"\n", b"\r\n"))
        self.assert_loads_as_written(out, split)

    @pytest.mark.parametrize("name,edit,message", [
        ("train.tsv", lambda line: line.replace("\t", " "), "every line must be user<TAB>item"),
        ("train.tsv", lambda line: line + "\t", "every line must be user<TAB>item"),
        ("test.tsv", lambda line: line + "\t", "every line must be user<TAB>item"),
        ("candidates.tsv", lambda line: line.replace("\t", " "),
         "every line must be user<TAB>item,item,..."),
        ("candidates.tsv", lambda line: line + "\t", "every line must be user<TAB>item,item,..."),
        ("candidates.tsv", lambda line: line.split("\t")[0] + "\t",
         "user {user} has 1 candidates, expected 3"),
        ("train.tsv", lambda line: line.split("\t")[0] + "\t",
         "expected {numbers} numbers, read {read}"),
    ])
    def test_malformed_last_line_message(self, art, name, edit, message):
        out, split = art
        path = out / name
        numbers = 2 * len(path.read_text(encoding="utf-8").splitlines())
        self.rewrite(path, lambda lines: lines[:-1] + [edit(lines[-1])])
        expected = message.format(user=split.test[-1, 0], numbers=numbers, read=numbers - 1)
        with pytest.raises(d.ArtifactError) as caught:
            d.read_split_artifact(str(out))
        assert str(caught.value) == f"{path}: {expected}"

    def test_empty_field_inside_the_file_is_malformed(self, art):
        out, _ = art
        self.rewrite(out / "train.tsv", lambda lines: [lines[0].split("\t")[0] + "\t"] + lines[1:])
        with pytest.raises(d.ArtifactError, match=r"train\.tsv: malformed number: "):
            d.read_split_artifact(str(out))


def reference_fields(path):
    """The tab-separated fields of each non-blank line, read line by line."""
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split("\t") for line in fh if line.strip()]


def reference_read_pairs(path, num_users, num_items):
    """``_read_pairs`` by per-line fields, the reader's reference."""
    rows = reference_fields(path)
    if any(len(row) != 2 for row in rows):
        raise d.ArtifactError(f"{path}: every line must be user<TAB>item")
    pairs = d._parse_ints(path, ",".join(x for row in rows for x in row), 2 * len(rows))
    pairs = pairs.reshape(len(rows), 2)
    outside = ((pairs < 0) | (pairs >= (num_users, num_items))).any(axis=1)
    if outside.any():
        u, i = pairs[outside.argmax()]
        raise d.ArtifactError(
            f"{path}: pair ({u}, {i}) is outside {num_users} users x {num_items} items"
        )
    return pairs


def reference_read_candidates(path, n_candidates):
    """``_read_candidates`` by per-line fields, the reader's reference."""
    rows = reference_fields(path)
    if any(len(row) != 2 for row in rows):
        raise d.ArtifactError(f"{path}: every line must be user<TAB>item,item,...")
    users = d._parse_ints(path, ",".join(row[0] for row in rows), len(rows))
    widths = [row[1].count(",") + 1 for row in rows]
    width = n_candidates if n_candidates is not None else (widths[0] if widths else 0)
    for u, n in zip(users.tolist(), widths):
        if n != width:
            raise d.ArtifactError(f"{path}: user {u} has {n} candidates, expected {width}")
    cands = d._parse_ints(path, ",".join(row[1] for row in rows), len(rows) * width)
    return users, cands.reshape(len(rows), width)


def reference_check_candidates(path, users, cands, train_pairs, test_pairs, num_users, num_items):
    """``_check_candidates`` with ``np.isin`` over pair keys, the reader's reference."""
    if not np.array_equal(np.sort(users), np.sort(test_pairs[:, 0])):
        raise d.ArtifactError(f"{path}: candidate users differ from the test users")
    if cands.size == 0:
        return
    if cands.min() < 0 or cands.max() >= num_items:
        raise d.ArtifactError(f"{path}: candidate item outside 0..{num_items - 1}")
    ordered = np.sort(cands, axis=1)
    repeated = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    if repeated.any():
        raise d.ArtifactError(f"{path}: user {users[repeated.argmax()]} has a repeated candidate")
    keys = users[:, None] * num_items + cands
    for pairs, what in ((test_pairs, "held-out item"), (train_pairs, "train positive")):
        hit = np.isin(keys, pairs[:, 0] * num_items + pairs[:, 1]).any(axis=1)
        if hit.any():
            raise d.ArtifactError(
                f"{path}: user {users[hit.argmax()]} has their {what} as a candidate"
            )


def read_outcome(dir_path):
    """What reading ``dir_path`` gives: the loaded values, or the exception's type and text."""
    try:
        split, meta = d.read_split_artifact(dir_path)
    except Exception as exc:  # any outcome is compared, not only ArtifactError
        return type(exc).__name__, str(exc)
    cands = {u: row.tolist() for u, row in split.eval_candidates.items()}
    train = split.train
    return train.indptr.tolist(), train.indices.tolist(), split.test.tolist(), cands, meta


def reference_read_outcome(dir_path):
    with mock.patch.multiple(
        d,
        _read_pairs=reference_read_pairs,
        _read_candidates=reference_read_candidates,
        _check_candidates=reference_check_candidates,
    ):
        return read_outcome(dir_path)


# numbers in and out of range, padded, empty or no number at all
NUMBER = st.sampled_from(["0", "1", "2", "5", "11", "12", "-1", "+3", "007", " 1", "1 ", "",
                          "x", "1.0"])
# a line shaped like an artifact line, or a soup of pieces with line ends and
# other whitespace in it
EDITED_LINE = st.one_of(
    st.tuples(
        NUMBER,
        st.sampled_from(["\t", "\t", "\t", " ", "\t\t"]),
        st.lists(NUMBER, min_size=1, max_size=4).map(",".join),
        st.sampled_from(["", "", "\r", "\t", " ", "\x0b"]),
    ).map("".join),
    st.lists(
        st.sampled_from(["0", "1", "12", "\t", ",", "\n", "\r\n", "\r", " ", "x", "\x0b",
                         "\x1c", "\x85", "\u3000"]),
        max_size=8,
    ).map("".join),
)


class TestReaderMatchesLineReference:
    """Reading edited artifacts gives what the per-line reader gives: the same
    values, or the same exception with the same text."""

    @given(
        edits=st.lists(
            st.tuples(
                st.sampled_from(["train.tsv", "test.tsv", "candidates.tsv"]),
                st.sampled_from(["replace", "insert", "append"]),
                st.integers(0, 20),
                EDITED_LINE,
            ),
            min_size=1, max_size=3,
        ),
        n_candidates=st.sampled_from([3, None]),
    )
    @settings(max_examples=300, deadline=None)
    def test_edited_artifact(self, edits, n_candidates):
        split = TestArtifacts().complete_split()
        with tempfile.TemporaryDirectory() as tmp:
            out = pathlib.Path(tmp)
            meta = {} if n_candidates is None else {"n_candidates": n_candidates}
            d.write_split_artifact(tmp, split, meta)
            for name, how, at, text in edits:
                lines = (out / name).read_bytes().decode("utf-8").split("\n")
                at %= len(lines)
                if how == "replace":
                    lines[at] = text
                elif how == "insert":
                    lines.insert(at, text)
                else:
                    lines[at] += text
                (out / name).write_bytes("\n".join(lines).encode("utf-8"))
            assert read_outcome(tmp) == reference_read_outcome(tmp)

    @given(
        num_users=st.integers(1, 6),
        num_items=st.integers(2, 9),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_candidate_check(self, num_users, num_items, data):
        pair = st.tuples(st.integers(0, num_users - 1), st.integers(0, num_items - 1))
        train = np.array(data.draw(st.lists(pair, max_size=12)), dtype=np.int64).reshape(-1, 2)
        test_users = data.draw(st.permutations(range(num_users)))
        test = np.array(
            [(u, data.draw(st.integers(0, num_items - 1))) for u in test_users], dtype=np.int64
        ).reshape(-1, 2)
        width = data.draw(st.integers(1, num_items))
        cands = np.array(
            [data.draw(st.permutations(range(num_items)))[:width] for _ in test_users],
            dtype=np.int64,
        ).reshape(len(test_users), width)
        # most rows stay distinct and in range, so the membership lookups run
        row, col = data.draw(st.integers(0, num_users - 1)), data.draw(st.integers(0, width - 1))
        edit = data.draw(st.sampled_from(["none", "none", "outside", "repeat"]))
        if edit == "outside":
            cands[row, col] = data.draw(st.sampled_from([-1, num_items]))
        elif edit == "repeat":
            cands[row, col] = cands[row, data.draw(st.integers(0, width - 1))]
        users = np.array(data.draw(st.permutations(test_users)), dtype=np.int64)
        args = ("c.tsv", users, cands, train, test, num_users, num_items)
        outcomes = []
        for check in (d._check_candidates, reference_check_candidates):
            try:
                check(*args)
                outcomes.append(None)
            except d.ArtifactError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]


class TestPrepareDatasets:
    def test_end_to_end(self, tmp_path):
        rng = np.random.default_rng(0)
        rows_a = [(f"u{u}", f"a{i}", 1.0) for u in range(15) for i in rng.choice(30, 15, replace=False)]
        rows_b = [(f"u{u}", f"b{i}", 1.0) for u in range(15) for i in rng.choice(30, 15, replace=False)]
        pa = write_ratings(tmp_path / "a.tsv", rows_a)
        pb = write_ratings(tmp_path / "b.tsv", rows_b)
        split_a, split_b, meta = d.prepare_datasets(pa, pb, min_count=5, seed=1, n_candidates=5)
        assert split_a.train.num_users == split_b.train.num_users
        assert meta["num_users"] == split_a.train.num_users
        for split in (split_a, split_b):
            per_user = items_by_user(split.train)
            held = dict(split.test.tolist())
            for u, cands in split.eval_candidates.items():
                assert len(cands) == 5
                assert not set(cands) & per_user[u]
                assert held[u] not in cands

    def test_density_matches_ratio(self):
        iset, _ = binarize(crossed(range(5), range(5)), 5)
        assert iset.density == 1.0


@dataclass
class RawRating:
    user_key: str
    item_key: str
    rating: float
    timestamp: float | None = None


@dataclass
class KeyedSet:
    """An InteractionSet with maps from each user's and item's key to its index."""

    iset: d.InteractionSet
    user_map: dict[str, int]
    item_map: dict[str, int]


def keyed(ks):
    """The ``(user key, item key)`` pairs of a KeyedSet."""
    rev_u = {v: k for k, v in ks.user_map.items()}
    rev_i = {v: k for k, v in ks.item_map.items()}
    return {(rev_u[u], rev_i[i]) for u, i in pair_set(ks.iset)}


def reference_records(path):
    """The keyed reader: one RawRating per rating line."""
    records = []
    for line_no, line in enumerate(d.read_text(path, d.DatasetError).split("\n"), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) not in (3, 4):
            raise d.DatasetError(f"{path}:{line_no}: expected 3 or 4 fields, got {len(parts)}")
        user_key, item_key = parts[0], parts[1]
        if not user_key or not item_key:
            raise d.DatasetError(f"{path}:{line_no}: empty user or item key")
        try:
            rating = float(parts[2])
            timestamp = float(parts[3]) if len(parts) == 4 else None
        except ValueError as exc:
            raise d.DatasetError(f"{path}:{line_no}: {exc}") from exc
        if timestamp is not None and math.isnan(timestamp):
            raise d.DatasetError(f"{path}:{line_no}: timestamp is NaN")
        records.append(RawRating(user_key, item_key, rating, timestamp))
    return records


def reference_encode(raw):
    """The records as per-file codes, with each code's key."""
    user_codes, item_codes = {}, {}
    users = np.array([user_codes.setdefault(r.user_key, len(user_codes)) for r in raw], np.int64)
    items = np.array([item_codes.setdefault(r.item_key, len(item_codes)) for r in raw], np.int64)
    timestamps = [r.timestamp for r in raw]
    if not raw or None in timestamps:
        timestamps = None
    return users, items, list(user_codes), list(item_codes), timestamps


def reference_first_appearance(codes):
    distinct, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size)
    return distinct[order], rank[inverse]


def reference_binarize(users, items, user_keys, item_keys, timestamps=None, min_count=5):
    """The keyed filter: survivors re-densified in record order, with their key maps."""
    if min_count < 1:
        raise d.ConfigError("min_count must be >= 1")
    keys, first, inverse = np.unique(
        users * len(item_keys) + items, return_index=True, return_inverse=True
    )
    pair_users, pair_items = users[first], items[first]
    active = np.ones(keys.size, dtype=bool)
    while True:
        user_deg = np.bincount(pair_users[active], minlength=len(user_keys))
        item_deg = np.bincount(pair_items[active], minlength=len(item_keys))
        kept = active & (user_deg[pair_users] >= min_count) & (item_deg[pair_items] >= min_count)
        if np.array_equal(kept, active):
            break
        active = kept
    if not active.any():
        raise d.DatasetError("no interactions survive the minimum-count filter")
    survivors = np.flatnonzero(active)
    survivors = survivors[np.argsort(first[survivors])]
    user_codes, new_users = reference_first_appearance(pair_users[survivors])
    item_codes, new_items = reference_first_appearance(pair_items[survivors])
    latest = None
    if timestamps is not None:
        latest = np.full(keys.size, -np.inf)
        np.maximum.at(latest, inverse, np.asarray(timestamps, dtype=np.float64))
        latest = latest[survivors]
    iset = d.InteractionSet.from_pairs(
        user_codes.size, item_codes.size, np.column_stack([new_users, new_items]), timestamps=latest
    )
    return KeyedSet(
        iset,
        {user_keys[c]: u for u, c in enumerate(user_codes.tolist())},
        {item_keys[c]: i for i, c in enumerate(item_codes.tolist())},
    )


def reference_restrict(ks, common):
    """The rows of the users ``common`` names, in that order, over the items they keep."""
    new_users = np.full(ks.iset.num_users, -1, dtype=np.int64)
    new_users[[ks.user_map[k] for k in common]] = np.arange(len(common))
    pairs = ks.iset.interactions
    kept = new_users[pairs[:, 0]] >= 0
    kept_items = np.unique(pairs[kept, 1])
    rev_items = {idx: key for key, idx in ks.item_map.items()}
    iset = d.InteractionSet.from_pairs(
        len(common),
        kept_items.size,
        np.column_stack([new_users[pairs[kept, 0]], np.searchsorted(kept_items, pairs[kept, 1])]),
        timestamps=None if ks.iset.timestamps is None else ks.iset.timestamps[kept],
    )
    return KeyedSet(
        iset,
        {k: idx for idx, k in enumerate(common)},
        {rev_items[old]: new for new, old in enumerate(kept_items.tolist())},
    )


def reference_align(a, b):
    """The keyed alignment: common user keys, in domain A's index order."""
    if not a.iset.indices.size or not b.iset.indices.size:
        raise d.DatasetError("cannot align an empty domain")
    common = [k for k in a.user_map if k in b.user_map]
    if not common:
        raise d.DatasetError("no common users between the two domains")
    common.sort(key=lambda k: a.user_map[k])
    return reference_restrict(a, common), reference_restrict(b, common)


def prepare_outcome(prepare, path_a, path_b, min_count, out):
    """``prepare`` on two files, with its splits written under ``out``: the
    arrays, or the exception's type and text."""
    try:
        splits = prepare(path_a, path_b, min_count=min_count, seed=1, n_candidates=1)
    except Exception as exc:  # any outcome is compared, not only DatasetError
        return type(exc).__name__, str(exc)
    outcome = []
    for tag, split in zip("ab", splits[:2]):
        d.write_split_artifact(str(out / tag), split, splits[2])
        train = split.train
        stamps = None if train.timestamps is None else train.timestamps.tolist()
        cands = {u: row.tolist() for u, row in split.eval_candidates.items()}
        files = {p.name: p.read_bytes() for p in sorted((out / tag).iterdir())}
        outcome.append((train.indptr.tolist(), train.indices.tolist(), stamps,
                        split.test.tolist(), cands, files))
    return outcome


def reference_prepare_datasets(path_a, path_b, min_count=5, seed=0, n_candidates=999):
    """``prepare_datasets`` on keyed records, key maps and key alignment.

    Also returns the aligned KeyedSets.
    """
    set_a = reference_binarize(*reference_encode(reference_records(path_a)), min_count=min_count)
    set_b = reference_binarize(*reference_encode(reference_records(path_b)), min_count=min_count)
    keyed_a, keyed_b = reference_align(set_a, set_b)
    set_a, set_b = keyed_a.iset, keyed_b.iset
    split_a, split_b = d.freeze_splits(set_a, set_b, seed, n_candidates)
    meta = {
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
        "checksum_a": d.file_checksum(path_a),
        "checksum_b": d.file_checksum(path_b),
    }
    return split_a, split_b, meta, (keyed_a, keyed_b)


# keys that a rating line can hold: no tab, no line end, not a comment
KEY = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"),
    min_size=1, max_size=3,
).filter(lambda key: not key.startswith("#"))


@st.composite
def rating_file_pair(draw):
    """Two rating files' rows over one pool of user keys, with repeated pairs,
    users in either domain only, and all, some or no timestamps, tied often."""
    users = draw(st.lists(KEY, min_size=3, max_size=6, unique=True))
    files = []
    for _ in "ab":
        items = draw(st.lists(KEY, min_size=4, max_size=10, unique=True))
        present = draw(st.lists(st.sampled_from(users), min_size=3, unique=True))
        stamped = draw(st.sampled_from(["all", "some", "none"]))
        rows = draw(st.lists(
            st.tuples(st.sampled_from(present), st.sampled_from(items),
                      st.sampled_from(["1", "4.5", "-2", "nan"]), st.integers(0, 3),
                      st.booleans() if stamped == "some" else st.just(stamped == "all")),
            min_size=10, max_size=35,
        ))
        files.append([(u, i, rating, t)[: 3 + with_t] for u, i, rating, t, with_t in rows])
    return files


class TestPrepareMatchesKeyedReference:
    """``prepare_datasets`` on integer codes gives what it gave with the keyed
    records, key maps and key alignment: the same arrays, test pairs,
    candidates and artifact bytes, or the same error."""

    @given(files=rating_file_pair(), min_count=st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_same_splits_and_bytes(self, files, min_count):
        with tempfile.TemporaryDirectory() as tmp:
            out = pathlib.Path(tmp)
            paths = [write_ratings(out / f"{tag}.tsv", rows) for tag, rows in zip("ab", files)]
            got = prepare_outcome(d.prepare_datasets, *paths, min_count, out / "got")
            expected = prepare_outcome(reference_prepare_datasets, *paths, min_count, out / "ref")
            assert got == expected
            if not isinstance(got, tuple):  # both prepared: each kept pair is a pair of its file
                keyed_sets = reference_prepare_datasets(*paths, min_count, 1, 1)[3]
                for ks, rows in zip(keyed_sets, files):
                    assert keyed(ks) <= {row[:2] for row in rows}
