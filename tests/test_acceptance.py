"""Acceptance gate.

One test class per acceptance property, each asserting the substantive
check at its stated tolerance plus the stated runtime budget where one
applies. Slow directional experiments sit at the bottom of the file so the
fast integrity checks fail first when something is broken.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from dualrec import autodiff as ad
from dualrec import model as md
from dualrec import selfcheck as sc
from dualrec.config import RunConfig
from dualrec.data import (
    InteractionSet,
    SplitDataset,
    filter_cold_items,
    freeze_splits,
    leave_one_out_split,
    prepare_datasets,
)
from dualrec.disentangle import loss_cls1, loss_cls2
from dualrec.evaluation import evaluate_model, metrics_at_k, rank_with_ties
from dualrec.graph import build_bipartite_adjacency
from dualrec.mixup import interpolate, sample_lambda
from dualrec.synthetic import SyntheticSpec, generate_synthetic
from dualrec.training import _noise_rngs, step_losses, train_model
from pairsets import pair_set


# ---------------------------------------------------------------- helpers


def make_set(pairs, num_users, num_items):
    return InteractionSet.from_pairs(num_users, num_items, pairs)


def toy_adjacencies():
    pairs_a = [(0, 0), (0, 1), (1, 2), (1, 3), (2, 4), (2, 0), (3, 5), (3, 1)]
    pairs_b = [(0, 5), (0, 4), (1, 0), (1, 1), (2, 2), (2, 3), (3, 4), (3, 2)]
    return (
        build_bipartite_adjacency(make_set(pairs_a, 4, 6)),
        build_bipartite_adjacency(make_set(pairs_b, 4, 6)),
    )


# ------------------------------------------------- 1. gradient integrity


class TestGradientIntegrity:
    """FD check over every case of ``selfcheck.PRIMITIVE_CASES`` (the table
    ``dualrec selfcheck`` and the autodiff tests run, on each case's
    name-seeded leaves) and over the composed training loss, max relative
    error < 1e-4 against the five-point stencil at its default step, under
    30 s."""

    def end_to_end_error(self, variant):
        adj_a, adj_b = toy_adjacencies()
        cfg = RunConfig(k=2, l=1, epochs=1, lr=0.01, batch_size=16,
                        eval_negatives=10, seed=3, init_std=0.4, variant=variant)
        model = md.build_model(adj_a, adj_b, cfg)
        users = np.arange(4)
        # repeated pair indices stress gradient accumulation through gathers
        batch_a = (np.array([0, 1, 1, 3, 0]), np.array([2, 5, 5, 0, 2]),
                   np.array([1.0, 0.0, 1.0, 0.0, 1.0]))
        batch_b = (np.array([2, 2, 0, 3, 1]), np.array([1, 1, 5, 4, 0]),
                   np.array([0.0, 1.0, 1.0, 0.0, 1.0]))

        def fn(_):
            fwd = md.forward(model, users, 0.37, noise_rngs=_noise_rngs(cfg, 0, 0))
            total, _ = step_losses(model, fwd, {"a": batch_a, "b": batch_b})
            return total

        return ad.finite_diff_check(fn, list(model.params.values()))

    def test_primitives_and_composed_graph(self):
        start = time.perf_counter()
        for name, fn, shapes in sc.PRIMITIVE_CASES:
            err = ad.finite_diff_check(fn, sc.case_leaves(name, shapes))
            assert err < 1e-4, f"primitive {name}: FD error {err:.3e}"
        for variant in ("full", "elbo", "base"):
            err = self.end_to_end_error(variant)
            assert err < 1e-4, f"end-to-end ({variant}): FD error {err:.3e}"
        assert time.perf_counter() - start < 30.0


# ----------------------------------------------------- 2. sampler moments


class TestBetaSamplerMoments:
    """1e5 draws per alpha in {0.5, 1, 5}: mean within 0.5 +- 0.005,
    variance within 1/(4(2a+1)) +- 0.003, under 5 s."""

    def test_moments(self):
        start = time.perf_counter()
        for idx, alpha in enumerate((0.5, 1.0, 5.0)):
            rng = np.random.default_rng([41, idx])
            draws = np.array([sample_lambda(alpha, rng) for _ in range(100_000)])
            assert abs(draws.mean() - 0.5) <= 0.005
            assert abs(draws.var() - 1.0 / (4.0 * (2.0 * alpha + 1.0))) <= 0.003
        assert time.perf_counter() - start < 5.0


# ---------------------------------------------------- 3. adjacency oracle


class TestAdjacencyOracle:
    """50 random graphs up to 20+20 nodes: sparse result equals the dense
    D^-1/2 (A+I) D^-1/2 oracle to 1e-12, symmetry exact, spectral radius
    at most 1 + 1e-10."""

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            m = int(rng.integers(2, 21))
            n = int(rng.integers(2, 21))
            pairs = {(u, i) for u in range(m) for i in range(n) if rng.random() < 0.3}
            pairs.add((0, 0))
            dense = build_bipartite_adjacency(make_set(pairs, m, n)).matrix.toarray()

            r = np.zeros((m, n))
            for u, i in pairs:
                r[u, i] = 1.0
            a_tilde = np.eye(m + n)
            a_tilde[:m, m:] = r
            a_tilde[m:, :m] = r.T
            d_inv_sqrt = 1.0 / np.sqrt(a_tilde.sum(axis=1))
            oracle = a_tilde * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]

            assert np.abs(dense - oracle).max() <= 1e-12
            assert np.abs(dense - dense.T).max() == 0.0
            assert np.abs(np.linalg.eigvalsh(dense)).max() <= 1.0 + 1e-10


# ------------------------------------------------------- 4. metric oracle


class TestMetricOracle:
    """HR@10/NDCG@10 equal brute-force ranking on 200 random 1000-candidate
    vectors, ties included, pessimistic rule; NDCG@10 <= HR@10 always."""

    @staticmethod
    def brute_force_rank(neg_scores, pos_score):
        keyed = sorted([(-float(s), 0) for s in neg_scores] + [(-float(pos_score), 1)])
        return 1 + [tag for _, tag in keyed].index(1)

    def test_exact_on_random_vectors(self):
        rng = np.random.default_rng(23)
        for case in range(200):
            if case % 2 == 0:
                neg = rng.normal(size=999)
                pos = float(rng.normal())
            else:  # coarse grid forces ties, including against the held-out score
                neg = rng.integers(0, 25, size=999) / 8.0
                pos = float(rng.integers(0, 25)) / 8.0
            rank = rank_with_ties(neg, pos)
            assert rank == self.brute_force_rank(neg, pos)
            hr, ndcg = metrics_at_k(rank, 10)
            assert ndcg <= hr

    def test_fully_tied_vector_misses(self):
        rank = rank_with_ties(np.zeros(999), 0.0)
        assert rank == 1000
        assert metrics_at_k(rank, 10) == (0.0, 0.0)


# --------------------------------------------------- 5. loss fixed points


class TestLossFixedPoints:
    """Uniform classifier output: loss_cls2 exactly 0, loss_cls1 = ln 2;
    KL(uniform || [0.25, 0.75]) matches the hand value 0.14384 +- 1e-5."""

    @staticmethod
    def zero_classifier(k):
        return {"clf.w": ad.Value(np.zeros((k, 2))), "clf.b": ad.Value(np.zeros((1, 2)))}

    def test_cls2_zero_at_uniform(self):
        rng = np.random.default_rng(5)
        z = [ad.Value(rng.normal(size=(7, 3))) for _ in range(3)]
        loss = loss_cls2(z[0], z[1], z[2], self.zero_classifier(3), "clf")
        assert loss.data.item() == 0.0

    def test_cls1_ln2_at_uniform(self):
        rng = np.random.default_rng(6)
        z = [ad.Value(rng.normal(size=(5, 3))) for _ in range(3)]
        loss = loss_cls1(z[0], z[1], z[2], 0.3, self.zero_classifier(3), "clf")
        assert abs(loss.data.item() - math.log(2.0)) < 1e-12

    def test_kl_hand_value(self):
        p = ad.Value(np.array([[0.25, 0.75]]))
        kl = ad.kl_div(np.array([[0.5, 0.5]]), p)
        assert abs(kl.data.item() - 0.14384) <= 1e-5


# ------------------------------------------- 6. mixup endpoints/convexity


class TestMixupEndpoints:
    def test_endpoints_bit_exact_and_interior_convex(self):
        rng = np.random.default_rng(11)
        e_a = ad.Value(rng.normal(size=(9, 5)))
        e_b = ad.Value(rng.normal(size=(9, 5)))
        np.testing.assert_array_equal(interpolate(e_a, e_b, 1.0).data, e_a.data)
        np.testing.assert_array_equal(interpolate(e_a, e_b, 0.0).data, e_b.data)
        for lam in rng.uniform(0.0, 1.0, size=5):
            mixed = interpolate(e_a, e_b, float(lam)).data
            lo = np.minimum(e_a.data, e_b.data)
            hi = np.maximum(e_a.data, e_b.data)
            assert np.all(mixed >= lo - 1e-15) and np.all(mixed <= hi + 1e-15)


# ----------------------------------------- shared slow dataset fixtures


N_CANDIDATES_DEFAULT = 300


@pytest.fixture(scope="module")
def default_dataset():
    set_a, set_b = generate_synthetic(SyntheticSpec())
    return freeze_splits(set_a, set_b, seed=0, n_candidates=N_CANDIDATES_DEFAULT)


@pytest.fixture(scope="module")
def null_dataset():
    spec = SyntheticSpec(
        num_users=400, num_items_a=1200, num_items_b=1200, latent_dim=2,
        shared_strength=0.0, specific_strength=0.0, independent_strength=0.0,
        rate_a=0.015, rate_b=0.015, min_count=3, seed=0,
    )
    set_a, set_b = generate_synthetic(spec)
    return freeze_splits(set_a, set_b, seed=0, n_candidates=999)


# --------------------------------------------------------- 7. determinism


class TestDeterminism:
    """Two identical train+eval runs on the default synthetic dataset agree
    to 1e-12 per epoch loss and produce identical reports; evaluation is
    thread-count invariant."""

    def config(self):
        return RunConfig(k=8, l=1, epochs=3, lr=0.005, batch_size=2048,
                         eval_negatives=N_CANDIDATES_DEFAULT, seed=0, init_std=0.1)

    def test_repeat_runs_and_thread_invariance(self, default_dataset):
        split_a, split_b = default_dataset
        runs = []
        for _ in range(2):
            result = train_model(split_a, split_b, self.config())
            report = evaluate_model(result.model, split_a, split_b)
            runs.append((result, report))
        (r1, v1), (r2, v2) = runs
        losses1 = [row["total"] for row in r1.history]
        losses2 = [row["total"] for row in r2.history]
        assert max(abs(x - y) for x, y in zip(losses1, losses2)) <= 1e-12
        assert len(losses1) == len(losses2)
        for d1, d2 in ((v1.domain_a, v2.domain_a), (v1.domain_b, v2.domain_b)):
            assert d1.hr == d2.hr and d1.ndcg == d2.ndcg
            assert d1.ranks == d2.ranks

        model = r1.model
        reports = []
        for threads in (1, 6):
            model.config = replace(model.config, eval_threads=threads)
            reports.append(evaluate_model(model, split_a, split_b))
        v_one, v_many = reports
        for one, many in ((v_one.domain_a, v_many.domain_a), (v_one.domain_b, v_many.domain_b)):
            assert one.hr == many.hr and one.ndcg == many.ndcg
            assert one.ranks == many.ranks


# ------------------------------------------------------- 8. overfit sanity


class TestOverfitSanity:
    """50-user/100-item-per-domain set, 200 epochs at lr 0.005: training
    loss falls at least 90% from the first epoch and ranking the training
    positives as a pseudo-test scores HR@10 above 0.8, under 3 minutes."""

    @staticmethod
    def pseudo_test_split(split, seed, n_candidates=40):
        train = split.train
        by_user = {}
        for u, i in sorted(pair_set(train)):
            by_user.setdefault(u, []).append(i)
        pick = np.random.default_rng([seed, 11])
        draw = np.random.default_rng([seed, 12])
        all_items = np.arange(train.num_items)
        test, candidates = [], {}
        for u, items in by_user.items():
            held = int(pick.choice(items))
            pool = np.setdiff1d(all_items, np.asarray(items, dtype=np.int64))
            candidates[u] = draw.choice(pool, size=n_candidates, replace=False).tolist()
            test.append((u, held))
        test = np.array(test, dtype=np.int64).reshape(-1, 2)
        return SplitDataset(train=train, test=test, eval_candidates=candidates)

    def test_overfits_two_block_data(self):
        start = time.perf_counter()
        spec = SyntheticSpec(
            num_users=50, num_items_a=100, num_items_b=100, latent_dim=1,
            shared_strength=100.0, specific_strength=0.0, independent_strength=0.0,
            rate_a=0.49, rate_b=0.49, min_count=5, seed=0,
        )
        set_a, set_b = generate_synthetic(spec)
        split_a, split_b = freeze_splits(set_a, set_b, seed=0, n_candidates=40)
        cfg = RunConfig(k=8, l=1, epochs=200, lr=0.005, batch_size=2048,
                        eval_negatives=40, seed=0, init_std=0.5, variant="base")
        result = train_model(split_a, split_b, cfg)

        first = result.history[0]["total"]
        last = result.history[-1]["total"]
        assert (first - last) / first >= 0.90, f"loss only fell {(first-last)/first:.1%}"

        pseudo_a = self.pseudo_test_split(split_a, seed=0)
        pseudo_b = self.pseudo_test_split(split_b, seed=1)
        report = evaluate_model(result.model, pseudo_a, pseudo_b)
        assert report.domain_a.hr > 0.8, f"pseudo-test HR_A {report.domain_a.hr:.3f}"
        assert report.domain_b.hr > 0.8, f"pseudo-test HR_B {report.domain_b.hr:.3f}"
        assert time.perf_counter() - start < 180.0


# ---------------------------------------------------- 10. null calibration


class TestNullCalibration:
    """On zero-strength data the trained model's HR@10 stays inside the
    3-sigma binomial band around 10/1000 = 0.01 for both domains."""

    def test_hr_within_band(self, null_dataset):
        split_a, split_b = null_dataset
        cfg = RunConfig(k=8, l=1, epochs=10, lr=0.005, batch_size=2048,
                        eval_negatives=999, seed=0, init_std=0.1, variant="full")
        result = train_model(split_a, split_b, cfg)
        report = evaluate_model(result.model, split_a, split_b)
        for dm in (report.domain_a, report.domain_b):
            band = 3.0 * math.sqrt(0.01 * 0.99 / dm.num_test)
            assert abs(dm.hr - 0.01) <= band, (
                f"HR {dm.hr:.4f} outside 0.01 +- {band:.4f} (n={dm.num_test})"
            )


# ------------------------------------------------- 11. protocol invariants


def assert_split_invariants(split, n_candidates):
    """Exhaustive split checks: disjointness, candidate counts/exclusions,
    and warm held-out items per the set-membership oracle."""
    train_pairs = pair_set(split.train)
    train_items = {i for _, i in train_pairs}
    test_users = split.test[:, 0].tolist()
    assert len(test_users) == len(set(test_users))
    assert split.eval_candidates is not None
    for u, held in split.test.tolist():
        assert (u, held) not in train_pairs
        assert held in train_items  # cold-start removal left only warm items
        cands = split.eval_candidates[u]
        assert len(cands) == n_candidates
        assert len(set(cands)) == n_candidates
        seen = {i for uu, i in train_pairs if uu == u}
        for c in cands:
            assert c != held
            assert c not in seen
            assert 0 <= c < split.train.num_items


class TestProtocolInvariants:
    def test_default_synthetic_dataset(self, default_dataset):
        for split in default_dataset:
            assert_split_invariants(split, N_CANDIDATES_DEFAULT)

    def test_999_candidate_dataset(self, null_dataset):
        for split in null_dataset:
            assert_split_invariants(split, 999)

    def test_prepared_rating_files(self, tmp_path):
        rng = np.random.default_rng(2)
        for tag, n_items in (("a", 40), ("b", 30)):
            lines = []
            for u in range(30):
                for i in rng.choice(n_items, size=9, replace=False):
                    lines.append(f"user{u}\t{tag}{i}\t{rng.integers(1, 6)}")
            (tmp_path / f"r_{tag}.tsv").write_text("\n".join(lines) + "\n")
        split_a, split_b, _ = prepare_datasets(
            str(tmp_path / "r_a.tsv"), str(tmp_path / "r_b.tsv"),
            min_count=3, seed=0, n_candidates=10,
        )
        assert_split_invariants(split_a, 10)
        assert_split_invariants(split_b, 10)

    def test_cold_filter_agrees_with_membership_oracle(self):
        # dual route: rebuild the unfiltered split and re-derive the kept rows
        spec = SyntheticSpec(num_users=60, num_items_a=80, num_items_b=70,
                             latent_dim=2, shared_strength=2.0,
                             specific_strength=0.5, independent_strength=0.5,
                             rate_a=0.08, rate_b=0.07, min_count=2, seed=4)
        set_a, set_b = generate_synthetic(spec)
        for domain_id, iset in enumerate((set_a, set_b)):
            raw = leave_one_out_split(iset, np.random.default_rng([9, domain_id]))
            kept = filter_cold_items(raw)
            warm = {i for _, i in pair_set(raw.train)}
            expected = [[u, i] for u, i in raw.test.tolist() if i in warm]
            assert kept.test.tolist() == expected
            assert pair_set(kept.train) == pair_set(raw.train)


# --------------------------------------- 12. optional public-data check


DOUBAN_DIR = os.path.join(os.path.dirname(__file__), "..", "data", "douban")


@pytest.mark.skipif(
    not os.path.isdir(os.path.join(DOUBAN_DIR, "domain_a")),
    reason="public Douban pair not supplied under data/douban/",
)
class TestDoubanFusionDirection:
    def test_attention_beats_concat(self):
        from dualrec.data import read_split_artifact
        split_a, _ = read_split_artifact(os.path.join(DOUBAN_DIR, "domain_a"))
        split_b, _ = read_split_artifact(os.path.join(DOUBAN_DIR, "domain_b"))
        base = RunConfig(epochs=100)
        scores = {}
        for fusion in ("attention", "concat"):
            cfg = replace(base, fusion=fusion)
            result = train_model(split_a, split_b, cfg)
            report = evaluate_model(result.model, split_a, split_b)
            scores[fusion] = (report.domain_a.hr, report.domain_b.hr)
        assert scores["attention"][0] > scores["concat"][0]
        assert scores["attention"][1] > scores["concat"][1]
