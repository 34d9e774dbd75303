"""Tests for ranking, metrics, and the evaluation driver.

The tie rule is checked on hand cases and on small random blocks against
``selfcheck.rank_by_sorting``, the sort oracle that ``selfcheck.check_metrics``
runs on 200 blocks of 999 candidates.
evaluate_domain is checked against the per-user loop it replaced, and
rank_domain, the one ranking path, through the popularity and item-kNN
scorers.
"""

import contextlib
import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dualrec import evaluation as ev
from dualrec import model as md
from dualrec.autodiff import NORM_EPS
from dualrec.config import RunConfig
from dualrec.data import ArtifactError, DatasetError, InteractionSet, SplitDataset, freeze_splits
from dualrec.graph import build_bipartite_adjacency
from dualrec.synthetic import SyntheticSpec, generate_synthetic
from dualrec.training import train_model
from dualrec.selfcheck import rank_by_sorting
from toy import config, random_set, tiny_splits


def reference_evaluate_domain(s, t, split, top_k):
    """Reference: rank one user at a time (one matrix-vector product for the
    candidates, one dot for the held-out item) and sum the metric terms in
    test order. Returns (ranks, hr, ndcg)."""
    def normalize(x):
        return x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), NORM_EPS)

    s_hat, t_hat = normalize(s), normalize(t)
    ranks, hr_sum, ndcg_sum = {}, 0.0, 0.0
    for u, held in split.test.tolist():
        user_vec = s_hat[u]
        neg = t_hat[np.asarray(split.eval_candidates[u], dtype=np.int64)] @ user_vec
        pos = float(t_hat[held] @ user_vec)
        rank = int(1 + (neg > pos).sum() + (neg == pos).sum())
        ranks[u] = rank
        if rank <= top_k:
            hr_sum += 1.0
            ndcg_sum += float(1.0 / np.log2(rank + 1))
    n = max(1, len(split.test))
    return ranks, hr_sum / n, ndcg_sum / n


@pytest.fixture(scope="module")
def synth_splits():
    set_a, set_b = generate_synthetic(SyntheticSpec(seed=1))
    return freeze_splits(set_a, set_b, seed=1, n_candidates=400)


class TestRankWithTies:
    """Blocks of shapes other than ``check_metrics``' 200 x 999 against the
    sort oracle, and hand cases on one-row blocks."""

    def test_matches_sorting_oracle_on_random_vectors(self):
        rng = np.random.default_rng(3)
        neg, pos = rng.normal(size=(100, 50)), rng.normal(size=100)
        ranks = ev.rank_with_ties(neg, pos)
        assert ranks.tolist() == [rank_by_sorting(n, p) for n, p in zip(neg, pos)]

    def test_matches_oracle_with_forced_ties(self):
        rng = np.random.default_rng(4)
        neg = rng.integers(0, 5, size=(100, 30)).astype(np.float64)
        pos = rng.integers(0, 5, size=100).astype(np.float64)
        ranks = ev.rank_with_ties(neg, pos)
        assert ranks.tolist() == [rank_by_sorting(n, p) for n, p in zip(neg, pos)]

    def test_all_tied_ranks_last(self):
        ranks = ev.rank_with_ties(np.zeros((1, 999)), np.zeros(1))
        assert ranks.tolist() == [1000]
        hr, ndcg = ev.metrics_at_k(ranks, 10)
        assert hr.tolist() == [0.0] and ndcg.tolist() == [0.0]

    def test_unique_best_ranks_first(self):
        assert ev.rank_with_ties(np.array([[0.1, 0.5, -0.2]]), np.array([0.9])).tolist() == [1]


class TestRowWise:
    def test_block_matches_one_row_blocks(self):
        rng = np.random.default_rng(5)
        neg = rng.integers(0, 6, size=(40, 25)).astype(np.float64)
        pos = rng.integers(0, 6, size=40).astype(np.float64)
        ranks = ev.rank_with_ties(neg, pos)
        hr, ndcg = ev.metrics_at_k(ranks, 10)
        for row in range(40):
            one = ev.rank_with_ties(neg[row:row + 1], pos[row:row + 1])
            assert one.tolist() == [ranks[row]]
            one_hr, one_ndcg = ev.metrics_at_k(one, 10)
            assert (one_hr[0], one_ndcg[0]) == (hr[row], ndcg[row])


class TestMetricsAtK:
    def test_boundary_values(self):
        hr, ndcg = ev.metrics_at_k(np.arange(1, 30), 10)
        assert hr.tolist() == [1.0] * 10 + [0.0] * 19
        assert ndcg[0] == 1.0 and not ndcg[10:].any()
        np.testing.assert_allclose(ndcg[9], 1.0 / np.log2(11))

    def test_ndcg_never_exceeds_hr(self):
        for k in (1, 3, 10):
            hr, ndcg = ev.metrics_at_k(np.arange(1, 30), k)
            assert (ndcg <= hr).all()


class TestEvaluateDomain:
    def hand_fixture(self):
        # One-hot user vectors make every score an exact t_hat entry, so the
        # engineered ties hold bit-for-bit.
        train = random_set(3, 6, 2, seed=0)
        split = SplitDataset(
            train=train,
            test=np.array([(0, 0), (1, 1), (2, 2)]),
            eval_candidates={0: [3, 4], 1: [3, 5], 2: [4, 5]},
        )
        s = np.eye(3, 4)
        t = np.zeros((6, 4))
        t[0] = [1.0, 0, 0, 0]    # user 0 beats both candidates
        t[3] = [0.5, 0.5, 0, 0]
        t[4] = [-1.0, 0, 0, 0]
        t[1] = [0, 1.0, 0, 0]    # identical to candidate 5: exact tie, lost
        t[5] = [0, 1.0, 0, 0]
        t[2] = [0, 0, 0, 0]      # user 2 scores everything 0: all tied, rank last
        return split, s, t

    def test_hand_computed_ranks(self):
        split, s, t = self.hand_fixture()
        dm = ev.evaluate_domain(s, t, split, top_k=2)
        # user 0: pos 1.0 vs [~0.707, -1.0] -> rank 1, hit
        # user 1: pos 1.0 vs [~0.707, 1.0] -> loses tie to item 5 -> rank 2, hit
        # user 2: all zeros tie -> rank 3, miss
        assert dm.ranks == {0: 1, 1: 2, 2: 3}
        np.testing.assert_allclose(dm.hr, 2.0 / 3.0)
        np.testing.assert_allclose(dm.ndcg, (1.0 + 1.0 / np.log2(3)) / 3.0)
        assert dm.num_test == 3

    def test_requires_candidates(self):
        split, s, t = self.hand_fixture()
        bare = SplitDataset(train=split.train, test=split.test, eval_candidates=None)
        with pytest.raises(DatasetError, match="evaluation requires frozen candidate lists"):
            ev.evaluate_domain(s, t, bare, top_k=2)

    def test_top_k_above_the_candidates_is_rejected(self):
        # two candidates: ranks run 1..3, so top_k = 3 would make every rank a hit
        split, s, t = self.hand_fixture()
        with pytest.raises(DatasetError, match="top_k = 3 exceeds the 2 candidates"):
            ev.evaluate_domain(s, t, split, top_k=3)

    @pytest.mark.parametrize("scale_rows", ["s", "t"])
    def test_overflowing_norm_is_rejected(self, scale_rows):
        # finite rows whose norm overflows would normalise to zeros and tie everything
        split, s, t = self.hand_fixture()
        reps = {"s": s, "t": t}
        reps[scale_rows] = reps[scale_rows] * 1e300
        with np.errstate(all="raise"):  # a floating-point warning would fail here
            with pytest.raises(ArtifactError, match="non-finite norm"):
                ev.evaluate_domain(reps["s"], reps["t"], split, top_k=2)



def random_split(rng, num_users, num_items, n_test, n_cands):
    """Test users in shuffled order, each with a held-out item and distinct
    candidates that exclude it."""
    users = rng.permutation(num_users)[:n_test]
    test, candidates = [], {}
    for u in users.tolist():
        drawn = rng.choice(num_items, size=n_cands + 1, replace=False).tolist()
        test.append((u, drawn[0]))
        candidates[u] = drawn[1:]
    train = random_set(num_users, num_items, 1, seed=int(rng.integers(1 << 16)))
    test = np.array(test, dtype=np.int64).reshape(-1, 2)
    return SplitDataset(train=train, test=test, eval_candidates=candidates)


class TestEvaluateDomainMatchesReference:
    """The block form gives the reference's ranks, and its hr / ndcg bit for
    bit, on continuous scores."""

    def assert_matches(self, s, t, split, top_k):
        dm = ev.evaluate_domain(s, t, split, top_k)
        ranks, hr, ndcg = reference_evaluate_domain(s, t, split, top_k)
        assert dm.ranks == ranks
        assert list(dm.ranks) == list(ranks)  # test order
        assert dm.hr == hr and dm.ndcg == ndcg
        assert dm.num_test == len(split.test)

    @pytest.mark.parametrize("num_users,num_items,n_test,n_cands,k,top_k,zero_rows", [
        (1, 12, 1, 5, 4, 3, 0),        # one test user
        (20, 15, 20, 1, 6, 1, 0),      # one candidate
        (30, 60, 25, 20, 8, 10, 5),    # some all-zero user rows
        (50, 120, 37, 99, 16, 10, 0),
        (8, 10, 0, 3, 4, 3, 0),        # no test users
    ])
    def test_random_continuous_scores(self, num_users, num_items, n_test, n_cands, k,
                                      top_k, zero_rows):
        rng = np.random.default_rng([num_users, num_items, n_cands])
        for _ in range(5):
            split = random_split(rng, num_users, num_items, n_test, n_cands)
            s = rng.normal(size=(num_users, k))
            s[rng.permutation(num_users)[:zero_rows]] = 0.0
            t = rng.normal(size=(num_items, k))
            self.assert_matches(s, t, split, top_k)

    def test_hand_fixture(self):
        split, s, t = TestEvaluateDomain().hand_fixture()
        self.assert_matches(s, t, split, top_k=2)


class TestBlockedRanking:
    """Test users are scored and ranked in blocks of at most
    ``BLOCK_SCORES`` scores. A gemm over a different row block may round
    differently in the last bit, so scores are not compared across block
    sizes; on continuous scores the ranks agree."""

    @staticmethod
    def count_blocks(monkeypatch):
        blocks = []
        rank = ev.rank_with_ties

        def counting_rank(neg, pos):
            blocks.append(len(pos))
            return rank(neg, pos)

        monkeypatch.setattr(ev, "rank_with_ties", counting_rank)
        return blocks

    @pytest.mark.parametrize("block_scores, sizes", [
        (1, [1] * 20),                 # fewer scores than items still ranks a row
        (3 * 50 + 49, [3] * 6 + [2]),  # a last block that is not full
        (7 * 50, [7, 7, 6]),
    ])
    def test_blocks_rank_as_one_block(self, monkeypatch, block_scores, sizes):
        rng = np.random.default_rng(block_scores)
        split = random_split(rng, 30, 50, 20, 12)
        s, t = rng.normal(size=(30, 6)), rng.normal(size=(50, 6))
        blocks = self.count_blocks(monkeypatch)
        one = ev.evaluate_domain(s, t, split, top_k=5)
        assert blocks == [20]
        monkeypatch.setattr(ev, "BLOCK_SCORES", block_scores)
        blocks.clear()
        blocked = ev.evaluate_domain(s, t, split, top_k=5)
        assert blocks == sizes
        assert blocked.ranks == one.ranks
        assert list(blocked.ranks) == list(one.ranks)  # test order
        assert blocked.hr == one.hr and blocked.ndcg == one.ndcg

    def test_peak_memory_is_bounded_by_the_block(self, monkeypatch):
        # one product of 2,000 test users x 1,000 items would be 16 MB of float64
        rng = np.random.default_rng(0)
        num_users, num_items = 2000, 1000
        cands = rng.integers(num_items, size=(num_users, 100), dtype=np.int32)
        split = SplitDataset(
            train=random_set(num_users, num_items, 1, seed=0),
            test=np.column_stack([np.arange(num_users), rng.integers(num_items, size=num_users)]),
            eval_candidates=dict(zip(range(num_users), cands)),
        )
        s, t = rng.normal(size=(num_users, 16)), rng.normal(size=(num_items, 16))
        monkeypatch.setattr(ev, "BLOCK_SCORES", 1 << 16)
        tracemalloc.start()
        try:
            dm = ev.evaluate_domain(s, t, split, top_k=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dm.num_test == num_users
        assert peak < 2_000_000

    def test_default_synth_spec_ranks_each_domain_in_one_block(self, monkeypatch, synth_splits):
        blocks = self.count_blocks(monkeypatch)
        rng = np.random.default_rng(1)
        for split in synth_splits:
            s = rng.normal(size=(split.train.num_users, 8))
            t = rng.normal(size=(split.train.num_items, 8))
            ev.evaluate_domain(s, t, split, top_k=10)
        assert blocks == [len(split.test) for split in synth_splits]


class TestRankDomain:
    """``rank_domain`` with scorers other than the model's."""

    # the 100-epoch reference rows of ROADMAP's rung S table: HR@10, NDCG@10 per domain
    REFERENCE = {
        "popularity": ((0.035, 0.014), (0.029, 0.014)),
        "item_knn": ((0.057, 0.028), (0.039, 0.016)),
    }

    @pytest.mark.parametrize("scorer", sorted(REFERENCE))
    def test_reference_rows(self, synth_splits, scorer):
        for split, row in zip(synth_splits, self.REFERENCE[scorer]):
            dm = ev.rank_domain(getattr(ev, f"{scorer}_scorer")(split), split, top_k=10)
            assert dm.num_test == 488
            assert (round(dm.hr, 3), round(dm.ndcg, 3)) == row

    def test_constant_scorer_ranks_every_held_out_item_last(self, synth_splits):
        for split in synth_splits:
            dm = ev.rank_domain(lambda users: np.ones((len(users), split.train.num_items)),
                                split, top_k=10)
            assert set(dm.ranks.values()) == {400 + 1}
            assert dm.hr == 0.0 and dm.ndcg == 0.0

    def test_popularity_ranks_equal_across_block_sizes(self, monkeypatch, synth_splits):
        split = synth_splits[0]
        one = ev.rank_domain(ev.popularity_scorer(split), split, top_k=10)
        monkeypatch.setattr(ev, "BLOCK_SCORES", 37 * split.train.num_items)
        blocks = TestBlockedRanking.count_blocks(monkeypatch)
        blocked = ev.rank_domain(ev.popularity_scorer(split), split, top_k=10)
        assert len(blocks) == -(-len(split.test) // 37)
        assert list(blocked.ranks.items()) == list(one.ranks.items())
        assert blocked.hr == one.hr and blocked.ndcg == one.ndcg

    def test_item_knn_similarity(self):
        # cosines: items 0 and 1 share both their users (1), each shares one of
        # its two with item 2 (1/2); item 3 has no user, so it scores 0
        pairs = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 2)]
        split = SplitDataset(train=InteractionSet.from_pairs(3, 4, pairs),
                             test=np.zeros((0, 2), dtype=np.int64), eval_candidates={})
        scores = ev.item_knn_scorer(split)(np.arange(3))
        np.testing.assert_allclose(scores, [[1.5, 1.5, 1, 0], [1, 1, 1, 0], [0.5, 0.5, 0, 0]],
                                   rtol=1e-15)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_score_is_rejected(self, synth_splits, bad):
        split = synth_splits[0]

        def scorer(users):
            scores = ev.popularity_scorer(split)(users).copy()
            scores[-1] = bad
            return scores

        with pytest.raises(ArtifactError, match="non-finite score"):
            ev.rank_domain(scorer, split, top_k=10)


class TestEvaluateModel:
    def test_report_is_deterministic_and_complete(self):
        split_a, split_b = tiny_splits()
        result = train_model(split_a, split_b, config())
        r1 = ev.evaluate_model(result.model, split_a, split_b)
        r2 = ev.evaluate_model(result.model, split_a, split_b)
        assert r1.domain_a.ranks == r2.domain_a.ranks
        assert r1.domain_b.ranks == r2.domain_b.ranks
        assert r1.domain_a.num_test == len(split_a.test)
        assert set(r1.domain_a.ranks) == set(split_a.test[:, 0].tolist())
        assert 0.0 <= r1.domain_a.hr <= 1.0 and r1.domain_a.ndcg <= r1.domain_a.hr + 1e-12

    def test_eval_path_uses_midpoint_lambda(self):
        split_a, split_b = tiny_splits()
        result = train_model(split_a, split_b, config())
        model = result.model
        s_a, t_a = ev.model_representations(model)["a"]
        fwd = md.forward(model, np.arange(split_a.train.num_users), ev.EVAL_LAMBDA)
        np.testing.assert_array_equal(s_a, fwd.s["a"].data)
        np.testing.assert_array_equal(t_a, fwd.t["a"].data)
        assert ev.EVAL_LAMBDA == 0.5

    def test_thread_invariance(self):
        split_a, split_b = tiny_splits()
        model = train_model(split_a, split_b, config()).model
        reports = []
        for threads in (1, 6):
            model.config = replace(model.config, eval_threads=threads)
            reports.append(ev.evaluate_model(model, split_a, split_b))
        single, many = reports
        for one, other in ((single.domain_a, many.domain_a), (single.domain_b, many.domain_b)):
            assert one.ranks == other.ranks
            assert one.hr == other.hr and one.ndcg == other.ndcg

    def test_report_text_fields(self):
        split_a, split_b = tiny_splits()
        result = train_model(split_a, split_b, config())
        text = ev.evaluate_model(result.model, split_a, split_b).to_text()
        for key in ("hr_a", "ndcg_a", "hr_b", "ndcg_b", "num_test_a",
                    "seed", "config.variant", "ranks_a", "ranks_b"):
            assert key in text


class TestUntapedEvaluation:
    """Evaluation runs the forward under no_grad; its reports equal those of a
    taped forward byte for byte, apart from the wall clock."""

    @staticmethod
    def report_text(model, split_a, split_b):
        lines = ev.evaluate_model(model, split_a, split_b).to_text().splitlines()
        return [line for line in lines if not line.startswith("wallclock_s = ")]

    @pytest.mark.parametrize("variant", ["full", "base", "elbo"])
    def test_report_equals_taped_report(self, monkeypatch, synth_splits, variant):
        split_a, split_b = synth_splits
        model = md.build_model(build_bipartite_adjacency(split_a.train),
                               build_bipartite_adjacency(split_b.train),
                               RunConfig(variant=variant, seed=1))
        taped = []

        def recording_forward(*args, **kwargs):
            fwd = md.forward(*args, **kwargs)
            taped.append(fwd.s["a"]._backward is not None)
            return fwd

        monkeypatch.setattr(ev, "forward", recording_forward)
        untaped_report = self.report_text(model, split_a, split_b)
        monkeypatch.setattr(ev, "no_grad", contextlib.nullcontext)
        taped_report = self.report_text(model, split_a, split_b)
        assert taped == [False, True]
        assert taped_report == untaped_report


@pytest.mark.pins
class TestEvalReportPinned:
    """The eval report of untrained models on seed-1 synth data keeps its
    bytes, but for ``wallclock_s``: sha256 of the report lines, recorded
    before the model's ranking moved onto ``rank_domain``."""

    DIGESTS = {
        "full": "81e24355cc5c8f1d503b818338473ad807f59d7806929c850f110c36c957196f",
        "base": "9650907aadf6047724f0592d1c5dcee0f19e3e2bbffcdc2d49486f4ae42674e7",
        "elbo": "70bd8befd5630e49b9a3aea94c84539bd276ec6246517d395085f6e262a08492",
    }

    @pytest.mark.parametrize("variant", sorted(DIGESTS))
    def test_report_digest(self, synth_splits, variant):
        split_a, split_b = synth_splits
        model = md.build_model(build_bipartite_adjacency(split_a.train),
                               build_bipartite_adjacency(split_b.train),
                               RunConfig(variant=variant, seed=1))
        lines = TestUntapedEvaluation.report_text(model, split_a, split_b)
        digest = hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
        assert digest == self.DIGESTS[variant]
