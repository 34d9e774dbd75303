"""Tests for ingestion, filtering, alignment, splitting, and sampling.

The filtering and cold-item tests compare against brute-force oracles that
re-scan the full record list instead of updating incrementally. The array
samplers are checked bit for bit against the per-positive loops over sets
they replaced, kept here as reference oracles. In the same way the artifact
writer is checked against per-integer formatting, and the reader against the
per-line reader and the ``np.isin`` candidate check it replaced.
"""

import logging
import pathlib
import tempfile
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
        recs = d.load_interactions(p)
        assert len(recs) == 1
        assert (recs[0].user_key, recs[0].item_key, recs[0].rating) == ("u1", "i9", 4.5)
        assert recs[0].timestamp is None

    def test_comment_and_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "r.tsv"
        p.write_text("# user item rating\nu1\ti1\t3\n\nu2\ti2\t5\n", encoding="utf-8")
        recs = d.load_interactions(str(p))
        assert len(recs) == 2

    def test_timestamp_column(self, tmp_path):
        p = write_ratings(tmp_path / "r.tsv", [("u1", "i1", 3, 1000)])
        recs = d.load_interactions(p)
        assert recs[0].timestamp == 1000.0

    def test_empty_file(self, tmp_path):
        p = tmp_path / "r.tsv"
        p.write_text("", encoding="utf-8")
        assert d.load_interactions(str(p)) == []

    def test_malformed_line_reports_number(self, tmp_path):
        p = tmp_path / "r.tsv"
        p.write_text("u1\ti1\t3\nu2\ti2\n", encoding="utf-8")
        with pytest.raises(d.ParseError, match=":2:"):
            d.load_interactions(str(p))

    def test_nan_timestamp_rejected(self, tmp_path):
        p = write_ratings(tmp_path / "r.tsv", [("u1", "i1", 3, 1000), ("u1", "i2", 3, "nan")])
        with pytest.raises(d.ParseError, match=":2: timestamp is NaN"):
            d.load_interactions(p)

    def test_non_numeric_rating(self, tmp_path):
        p = tmp_path / "r.tsv"
        p.write_text("u1\ti1\thigh\n", encoding="utf-8")
        with pytest.raises(d.ParseError):
            d.load_interactions(str(p))


def binarize(raw, min_count):
    """``binarize_and_filter`` on the encoded records, as ``prepare`` runs it."""
    return d.binarize_and_filter(*d.encode_ratings(raw), min_count=min_count)


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
        raw = [d.RawRating(f"u{u}", f"i{i}", 1.0) for u in range(5) for i in range(5)]
        iset = binarize(raw, 5)
        assert iset.num_users == 5 and iset.num_items == 5
        assert len(iset.interactions) == 25

    def test_below_threshold_cascades(self):
        # u0 fully crossed with 5 items shared by 4 other users; u5 has 4 of them
        raw = [d.RawRating(f"u{u}", f"i{i}", 1.0) for u in range(5) for i in range(5)]
        raw += [d.RawRating("u5", f"i{i}", 1.0) for i in range(4)]
        iset = binarize(raw, 5)
        assert "u5" not in iset.user_map

    def test_duplicates_collapse(self):
        raw = [d.RawRating("u", "i", 1.0)] * 3
        iset = binarize(raw, 1)
        assert len(iset.interactions) == 1

    def test_everything_filtered_raises(self):
        raw = [d.RawRating("u", "i", 1.0)]
        with pytest.raises(d.EmptyDatasetError):
            binarize(raw, 2)

    def test_matches_brute_force_oracle(self):
        # a dense core plus a sparse tail, so filtering actually cascades
        rng = np.random.default_rng(42)
        pairs = {
            (f"u{rng.integers(30)}", f"i{rng.integers(30)}") for _ in range(900)
        }
        pairs |= {
            (f"u{rng.integers(100)}", f"i{rng.integers(100)}") for _ in range(900)
        }
        raw = [d.RawRating(u, i, 1.0) for u, i in sorted(pairs)]
        iset = binarize(raw, 5)
        expected = brute_force_filter(pairs, 5)
        assert expected  # sanity: the oracle keeps something
        assert len(expected) < len(pairs)  # and drops something
        rev_u = {v: k for k, v in iset.user_map.items()}
        rev_i = {v: k for k, v in iset.item_map.items()}
        got = {(rev_u[u], rev_i[i]) for u, i in pair_set(iset)}
        assert got == expected

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        pairs = {(f"u{rng.integers(40)}", f"i{rng.integers(40)}") for _ in range(400)}
        raw = [d.RawRating(u, i, 1.0) for u, i in sorted(pairs)]
        once = binarize(raw, 5)
        rev_u = {v: k for k, v in once.user_map.items()}
        rev_i = {v: k for k, v in once.item_map.items()}
        again = binarize(
            [d.RawRating(rev_u[u], rev_i[i], 1.0) for u, i in sorted(pair_set(once))], 5
        )
        assert len(again.interactions) == len(once.interactions)
        assert again.num_users == once.num_users
        assert again.num_items == once.num_items

    def test_indices_dense(self):
        raw = [d.RawRating(f"u{u}", f"i{i}", 1.0) for u in range(6) for i in range(6)]
        iset = binarize(raw, 5)
        assert sorted(iset.user_map.values()) == list(range(iset.num_users))
        assert sorted(iset.item_map.values()) == list(range(iset.num_items))

    def test_timestamps_dropped_unless_universal(self):
        raw = [
            d.RawRating("u0", f"i{i}", 1.0, timestamp=float(i) if i else None)
            for i in range(5)
        ]
        raw += [d.RawRating(f"u{u}", f"i{i}", 1.0) for u in range(1, 5) for i in range(5)]
        iset = binarize(raw, 5)
        assert iset.timestamps is None

    def test_timestamps_kept_when_universal(self):
        raw = [
            d.RawRating(f"u{u}", f"i{i}", 1.0, timestamp=float(10 * u + i))
            for u in range(5)
            for i in range(5)
        ]
        iset = binarize(raw, 5)
        assert iset.timestamps is not None
        assert len(iset.timestamps) == 25


def crossed(users, items, user_prefix="u", item_prefix="i"):
    return [
        d.RawRating(f"{user_prefix}{u}", f"{item_prefix}{i}", 1.0)
        for u in users
        for i in items
    ]


class TestAlignCommonUsers:
    def test_partial_overlap(self):
        a = binarize(crossed(["x", "y"], range(5)), 1)
        b = binarize(crossed(["y", "z"], range(5), item_prefix="j"), 1)
        a2, b2 = d.align_common_users(a, b)
        assert a2.user_map == {"uy": 0}
        assert b2.user_map == {"uy": 0}
        assert a2.num_users == b2.num_users == 1

    def test_identity_when_user_sets_match(self):
        a = binarize(crossed(range(3), range(5)), 1)
        b = binarize(crossed(range(3), range(5), item_prefix="j"), 1)
        a2, b2 = d.align_common_users(a, b)
        assert a2.num_users == 3
        assert len(a2.interactions) == len(a.interactions)
        assert a2.user_map == b2.user_map

    def test_no_overlap_raises(self):
        a = binarize(crossed(["x"], range(5)), 1)
        b = binarize(crossed(["z"], range(5)), 1)
        with pytest.raises(d.AlignmentError):
            d.align_common_users(a, b)

    def test_items_redensified(self):
        # user "a" is the only one touching items 5..9; dropping it must
        # compact domain-A item indices
        raw = crossed(["a"], range(5, 10)) + crossed(["b"], range(5))
        a = binarize(raw, 1)
        b = binarize(crossed(["b"], range(5), item_prefix="j"), 1)
        a2, _ = d.align_common_users(a, b)
        assert a2.num_items == 5
        assert sorted(a2.item_map.values()) == list(range(5))


    def test_pairs_keep_their_keys(self):
        def keyed(iset):
            rev_u = {v: k for k, v in iset.user_map.items()}
            rev_i = {v: k for k, v in iset.item_map.items()}
            return {(rev_u[u], rev_i[i]) for u, i in pair_set(iset)}

        raw = crossed(["a"], range(5, 10)) + crossed(["b"], [8, 1]) + crossed(["c"], [6, 3, 1])
        a = binarize(raw, 1)
        b = binarize(crossed(["c", "b"], range(3), item_prefix="j"), 1)
        a2, b2 = d.align_common_users(a, b)
        assert keyed(a2) == {(u, i) for u, i in keyed(a) if u != "ua"}
        assert keyed(b2) == keyed(b)


class TestLeaveOneOutSplit:
    def small_set(self, users=2, items=5):
        raw = crossed(range(users), range(items))
        return binarize(raw, 1)

    def test_cardinalities(self):
        split = d.leave_one_out_split(self.small_set(), rng=0)
        assert len(split.test) == 2
        assert len(split.train.interactions) == 8
        for u, i in split.test:
            assert (u, i) not in pair_set(split.train)

    def test_deterministic(self):
        s1 = d.leave_one_out_split(self.small_set(), rng=3)
        s2 = d.leave_one_out_split(self.small_set(), rng=3)
        assert s1.test == s2.test
        assert pair_set(s1.train) == pair_set(s2.train)

    def test_single_interaction_user_rejected(self):
        iset = d.InteractionSet.from_pairs(
            1, 1, {(0, 0)}, user_map={"u": 0}, item_map={"i": 0},
        )
        with pytest.raises(d.DatasetError):
            d.leave_one_out_split(iset, rng=0)

    def test_timestamp_rule_picks_latest(self):
        raw = [d.RawRating("u", f"i{i}", 1.0, timestamp=float(100 - i)) for i in range(5)]
        iset = binarize(raw, 1)
        split = d.leave_one_out_split(iset, rng=0)
        # i0 has the largest timestamp
        assert split.test == [(0, iset.item_map["i0"])]

    def test_timestamp_tie_broken_by_larger_item_index(self):
        raw = [d.RawRating("u", f"i{i}", 1.0, timestamp=7.0) for i in range(4)]
        iset = binarize(raw, 1)
        split = d.leave_one_out_split(iset, rng=0)
        assert split.test == [(0, 3)]


class TestFilterColdItems:
    def test_shared_item_kept(self):
        # user 0 holds out item 2, which user 1 still trains on
        train = d.InteractionSet.from_pairs(
            2, 3,
            {(0, 0), (0, 1), (1, 1), (1, 2)},
            user_map={"u0": 0, "u1": 1},
            item_map={f"i{i}": i for i in range(3)},
        )
        split = d.SplitDataset(train=train, test=[(0, 2)])
        assert d.filter_cold_items(split).test == [(0, 2)]

    def test_unique_item_dropped(self):
        raw = crossed(range(2), range(4)) + [d.RawRating("u0", "solo", 1.0)]
        iset = binarize(raw, 1)
        solo = iset.item_map["solo"]
        split = d.SplitDataset(
            train=d.InteractionSet.from_pairs(
                iset.num_users,
                iset.num_items,
                {(u, i) for u, i in pair_set(iset) if i != solo},
                user_map=iset.user_map,
                item_map=iset.item_map,
            ),
            test=[(0, solo), (1, 0)],
        )
        filtered = d.filter_cold_items(split)
        assert filtered.test == [(1, 0)]

    def test_matches_membership_oracle(self):
        rng = np.random.default_rng(11)
        pairs = {(int(rng.integers(50)), int(rng.integers(80))) for _ in range(900)}
        for u in range(50):  # every user needs >= 2 interactions to split
            pairs.add((u, 0))
            pairs.add((u, 1))
        iset = d.InteractionSet.from_pairs(
            50, 80, pairs,
            user_map={str(u): u for u in range(50)},
            item_map={str(i): i for i in range(80)},
        )
        split = d.leave_one_out_split(iset, rng=5)
        filtered = d.filter_cold_items(split)
        trained_items = {i for _, i in pair_set(split.train)}
        expected = [(u, i) for u, i in split.test if i in trained_items]
        assert filtered.test == expected


class TestSampleTrainNegatives:
    def base_train(self, num_items=100, seen=(0, 1, 2)):
        inter = {(0, i) for i in seen}
        return d.InteractionSet.from_pairs(
            1, num_items, inter,
            user_map={"u": 0}, item_map={str(i): i for i in range(num_items)},
        )

    def test_excludes_seen(self):
        train = self.base_train()
        negs = d.sample_train_negatives(train, ratio=7, rng=0)
        assert len(negs) == 3 * 7
        for u, i, label in negs:
            assert label == 0
            assert (u, i) not in pair_set(train)

    def test_distinct_within_one_positive(self):
        train = self.base_train()
        negs = d.sample_train_negatives(train, ratio=7, rng=1)
        for start in range(0, len(negs), 7):
            block = [i for _, i, _ in negs[start:start + 7]]
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
        train = d.InteractionSet.from_pairs(
            1, 4, {(0, 0), (0, 1)},
            user_map={"u": 0}, item_map={str(i): i for i in range(4)},
        )
        counts = {2: 0, 3: 0}
        rng = np.random.default_rng(123)
        for _ in range(5000):
            for _, i, _ in d.sample_train_negatives(train, ratio=1, rng=rng):
                counts[i] += 1
        total = sum(counts.values())
        assert total == 10000
        assert abs(counts[2] / total - 0.5) < 0.02

    @pytest.mark.parametrize("ratio", [0, -1])
    def test_ratio_below_one_raises(self, ratio):
        with pytest.raises(ValueError, match="ratio must be >= 1"):
            d.sample_train_negatives(self.base_train(), ratio=ratio, rng=0)

    def test_other_bit_generator_raises(self):
        gen = np.random.Generator(np.random.MT19937(0))
        with pytest.raises(ValueError, match="PCG64"):
            d.sample_train_negatives(self.base_train(), ratio=7, rng=gen)

    def test_more_than_2_to_the_32_items_raises(self):
        train = d.InteractionSet.from_pairs(1, (1 << 32) + 1, [(0, 0)], user_map={}, item_map={})
        with pytest.raises(ValueError, match=r"2\*\*32"):
            d.sample_train_negatives(train, ratio=7, rng=0)

    def test_tail_shuffle_regime_draws_distinct_unseen_items(self):
        # a 10,001-item pool at ratio 201, where Generator.choice would shuffle
        # the pool's tail instead of running Floyd's algorithm
        seen = (0, 5000, 10003)
        train = self.base_train(num_items=10004, seen=seen)
        negs = d.sample_train_negatives(train, ratio=201, rng=3)
        assert negs.shape == (3 * 201, 3)
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
            for _, i, _ in d.sample_train_negatives(train, ratio=7, rng=rng):
                counts[i] += 1
        draws = epochs * 3 * 7
        p = 1 / pool
        sigma = np.sqrt(draws * p * (1 - p))
        for item in range(3, 23):
            assert abs(counts[item] - draws * p) < 3 * sigma


class TestSampleEvalCandidates:
    def make_split(self, num_items=30):
        iset = binarize(crossed(range(2), range(5)), 1)
        iset.num_items = num_items
        for j in range(5, num_items):
            iset.item_map[f"i{j}"] = j
        return d.leave_one_out_split(iset, rng=0)

    def test_counts_and_exclusions(self):
        split = self.make_split()
        done = d.sample_eval_candidates(split, n=10, rng=0)
        per_user = items_by_user(done.train)
        held = dict(done.test)
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
        with pytest.raises(d.ProtocolError):
            d.sample_eval_candidates(split, n=10, rng=0)

    def test_single_candidate_pool(self):
        # user saw 3 of 5 items; after holding one out the unseen pool is 2
        iset = d.InteractionSet.from_pairs(
            1, 5, {(0, 0), (0, 1), (0, 2)},
            user_map={"u": 0}, item_map={str(i): i for i in range(5)},
        )
        split = d.leave_one_out_split(iset, rng=0)
        done = d.sample_eval_candidates(split, n=1, rng=0)
        (u, held), = done.test
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
        out.extend((u, int(item), 0) for item in chosen)
    return out, warned


def assert_negatives_match_reference(train, ratio, make_rng):
    """The sampler gives the reference's rows and leaves its generator where the reference's is.

    ``make_rng`` makes a fresh generator, the same on every call.
    """
    ref_gen, gen = make_rng(), make_rng()
    expected, _ = reference_train_negatives(train, ratio, ref_gen)
    got = d.sample_train_negatives(train, ratio, gen)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, np.array(expected, dtype=np.int64).reshape(-1, 3))
    assert gen.bit_generator.state == ref_gen.bit_generator.state


def reference_eval_candidates(split, n, rng):
    """The set-based candidate freezer: one setdiff1d pool per test user."""
    gen = np.random.default_rng(rng)
    per_user = items_by_user(split.train)
    all_items = np.arange(split.train.num_items)
    candidates = {}
    for u, held in split.test:
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
    return d.InteractionSet.from_pairs(
        num_users, num_items, inter,
        user_map={f"u{u}": u for u in range(num_users)},
        item_map={f"i{i}": i for i in range(num_items)},
    )


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


class TestSamplersMatchReference:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("ratio", [1, 7])
    def test_train_negatives_bitwise(self, seed, ratio):
        rng = np.random.default_rng(seed)
        train = random_train(40, 60, rng, 25)
        expected, _ = reference_train_negatives(train, ratio, [seed, 7])
        got = d.sample_train_negatives(train, ratio, np.random.default_rng([seed, 7]))
        assert got.dtype == np.int64 and got.shape == (len(expected), 3)
        np.testing.assert_array_equal(got, np.array(expected, dtype=np.int64).reshape(-1, 3))

    def test_exhausted_pools_bitwise_and_warned_once_per_user(self, caplog):
        # users 0 and 2 leave fewer than 7 unseen items; user 1 does not
        inter = {(0, i) for i in range(15)} | {(1, i) for i in range(3)}
        inter |= {(2, i) for i in range(2, 20)}
        train = d.InteractionSet.from_pairs(
            4, 20, inter,
            user_map={f"u{u}": u for u in range(4)},
            item_map={f"i{i}": i for i in range(20)},
        )
        expected, warned = reference_train_negatives(train, 7, 5)
        with caplog.at_level(logging.WARNING, logger="dualrec.data"):
            got = d.sample_train_negatives(train, 7, 5)
        np.testing.assert_array_equal(got, np.array(expected, dtype=np.int64).reshape(-1, 3))
        warnings = [r.getMessage() for r in caplog.records if "unseen" in r.getMessage()]
        assert warned == {0, 2}
        assert len(warnings) == 2
        assert warnings[0].startswith("user 0 ") and warnings[1].startswith("user 2 ")

    def test_no_positives_draws_nothing(self):
        train = random_train(3, 5, np.random.default_rng(0), 0)
        got = d.sample_train_negatives(train, 7, 0)
        assert got.shape == (0, 3) and got.dtype == np.int64

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

    @pytest.mark.parametrize("positives", [1, 2])
    def test_generator_holding_a_uint32_half(self, positives):
        # 13 or 26 draws after the held half: the call ends on a whole word or half of one
        def make_rng():
            gen = np.random.default_rng(14)
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
    )
    @settings(max_examples=200, deadline=None)
    def test_any_csr_set_matches_reference(self, num_items, degrees, ratio, seed, held_half):
        layout = np.random.default_rng(seed)
        pairs = [
            (u, int(i))
            for u, k in enumerate(degrees)
            for i in layout.choice(num_items, size=min(k, num_items), replace=False)
        ]
        train = d.InteractionSet.from_pairs(len(degrees), num_items, pairs)

        def make_rng():
            gen = np.random.default_rng([seed, 1])
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
            test=[(u, int(rng.integers(80))) for u in range(30) if u % 4],
        )
        # a held-out item may be a train positive here; both are excluded
        got = d.sample_eval_candidates(split, n=25, rng=seed).eval_candidates
        expected = reference_eval_candidates(split, 25, seed)
        assert_same_candidates(got, expected)
        assert {row.dtype for row in got.values()} == {np.dtype(np.int64)}

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
        iset = d.InteractionSet.from_pairs(
            3, 12, inter,
            user_map={f"u{u}": u for u in range(3)},
            item_map={f"i{i}": i for i in range(12)},
        )
        split = d.leave_one_out_split(iset, rng=0)
        return d.sample_eval_candidates(split, n=3, rng=0)

    def test_roundtrip(self, tmp_path):
        split = self.complete_split()
        out = tmp_path / "domain_a"
        d.write_split_artifact(str(out), split, {"seed": 0})
        loaded, meta = d.read_split_artifact(str(out))
        assert pair_set(loaded.train) == pair_set(split.train)
        assert loaded.test == split.test
        assert_same_candidates(loaded.eval_candidates, split.eval_candidates)
        assert meta["seed"] == "0"
        assert int(meta["num_users"]) == 3

    def test_candidate_rows_are_int64_rows_of_one_array(self, tmp_path):
        split = self.complete_split()
        out = tmp_path / "domain_a"
        d.write_split_artifact(str(out), split, {})
        loaded, _ = d.read_split_artifact(str(out))
        for cands in (split.eval_candidates, loaded.eval_candidates):
            rows = [cands[u] for u, _ in split.test]
            assert all(row.dtype == np.int64 and row.shape == (3,) for row in rows)
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
        "test.tsv": [f"{u}\t{i}" for u, i in split.test],
        "candidates.tsv": [
            f"{u}\t{','.join(map(str, split.eval_candidates[u].tolist()))}" for u, _ in split.test
        ],
    }
    return {name: "\n".join(rows) + "\n" for name, rows in lines.items()}


def spread_split(num_users, num_items, width, seed):
    """A split whose indices span both ranges, with candidates in drawn order."""
    rng = np.random.default_rng(seed)
    pairs = {(u, int(i)) for u in range(num_users) for i in rng.choice(num_items, 2, replace=False)}
    train = d.InteractionSet.from_pairs(num_users, num_items, pairs)
    test = [(u, int(rng.integers(num_items))) for u in range(num_users)]
    cands = {u: rng.choice(num_items, width, replace=False) for u, _ in test}
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
        test=[(u, draw(item)) for u in test_users],
        eval_candidates={u: np.array(draw(row), dtype=np.int64) for u in test_users},
    )


class TestArtifactWriter:
    """The index files hold exactly what per-integer formatting writes."""

    def assert_reference_bytes(self, out, split):
        for name, text in reference_artifact_text(split).items():
            assert (out / name).read_bytes() == text.encode("utf-8"), name

    def test_no_test_users(self, tmp_path):
        split = TestArtifacts().complete_split()
        bare = d.SplitDataset(train=split.train, test=[], eval_candidates={})
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
        users = [u for u, _ in split.test]
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
        held = dict(split.test)[0]
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
        assert loaded.test == split.test
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
        expected = message.format(user=split.test[-1][0], numbers=numbers, read=numbers - 1)
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
    return split.train.indptr.tolist(), split.train.indices.tolist(), split.test, cands, meta


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
            held = dict(split.test)
            for u, cands in split.eval_candidates.items():
                assert len(cands) == 5
                assert not set(cands) & per_user[u]
                assert held[u] not in cands

    def test_density_matches_ratio(self):
        iset = binarize(crossed(range(5), range(5)), 5)
        assert iset.density == 1.0
