"""Tests for the training loop: determinism, logging, abort handling,
batch streaming, and the auxiliary loss terms.

The ELBO terms are re-derived in numpy from the same forward pass so the
graph-built loss has an independent reference.
"""

import gc
import io
import math

import numpy as np
import pytest

from dualrec import autodiff as ad
from dualrec import model as md
from dualrec import training as tr
from dualrec.config import VARIANTS, RunConfig
from dualrec.data import InteractionSet, freeze_splits
from dualrec.evaluation import evaluate_model
from dualrec.graph import build_bipartite_adjacency
from dualrec.synthetic import SyntheticSpec, generate_synthetic


def make_set(num_users, num_items, per_user, seed):
    rng = np.random.default_rng(seed)
    pairs = set()
    for u in range(num_users):
        for i in rng.choice(num_items, size=per_user, replace=False):
            pairs.add((u, int(i)))
    return InteractionSet(
        num_users=num_users,
        num_items=num_items,
        interactions=pairs,
        user_map={f"u{i}": i for i in range(num_users)},
        item_map={f"i{i}": i for i in range(num_items)},
    )


def tiny_splits(seed=0):
    set_a = make_set(8, 14, 5, seed=seed + 100)
    set_b = make_set(8, 12, 4, seed=seed + 200)
    return freeze_splits(set_a, set_b, seed=seed, n_candidates=3)


def config(**kw):
    base = dict(k=4, l=1, epochs=3, lr=0.02, batch_size=32, neg_ratio=2,
                eval_negatives=5, top_k=5, seed=0, init_std=0.2)
    base.update(kw)
    return RunConfig(**base)


class TestEpochArrays:
    def test_composition_and_negative_validity(self):
        split_a, _ = tiny_splits()
        cfg = config(neg_ratio=3)
        users, items, labels = tr._epoch_arrays(split_a.train, 2, 0, cfg)
        n_pos = len(split_a.train.interactions)
        assert users.size == items.size == labels.size == n_pos * 4
        assert np.all(labels[:n_pos] == 1.0) and np.all(labels[n_pos:] == 0.0)
        for u, i, y in zip(users, items, labels):
            if y == 0.0:
                assert (int(u), int(i)) not in split_a.train.interactions

    def test_epoch_key_changes_negatives(self):
        split_a, _ = tiny_splits()
        cfg = config()
        _, items_e0, _ = tr._epoch_arrays(split_a.train, 0, 0, cfg)
        _, items_e1, _ = tr._epoch_arrays(split_a.train, 1, 0, cfg)
        _, items_e0_again, _ = tr._epoch_arrays(split_a.train, 0, 0, cfg)
        np.testing.assert_array_equal(items_e0, items_e0_again)
        assert not np.array_equal(items_e0, items_e1)


class TestBatchStream:
    def test_cycle_covers_every_sample(self):
        users = np.arange(10)
        stream = tr._BatchStream(users, users * 2, np.ones(10), config(batch_size=4), 0, 0)
        assert stream.batches_per_cycle == 3
        seen = np.concatenate([stream.next_batch()[0] for _ in range(3)])
        assert sorted(seen.tolist()) == list(range(10))

    def test_recycles_with_fresh_shuffle(self):
        users = np.arange(10)
        stream = tr._BatchStream(users, users, np.ones(10), config(batch_size=4), 0, 0)
        first_cycle = [stream.next_batch()[0] for _ in range(3)]
        second_cycle = [stream.next_batch()[0] for _ in range(3)]
        assert sorted(np.concatenate(second_cycle).tolist()) == list(range(10))
        assert [b.size for b in first_cycle] == [b.size for b in second_cycle] == [4, 4, 2]

    def test_stream_is_deterministic(self):
        users = np.arange(7)
        a = tr._BatchStream(users, users, np.ones(7), config(batch_size=3), 1, 1)
        b = tr._BatchStream(users, users, np.ones(7), config(batch_size=3), 1, 1)
        for _ in range(5):
            np.testing.assert_array_equal(a.next_batch()[0], b.next_batch()[0])


class TestStepLambda:
    def test_policy(self):
        assert tr._step_lambda(config(variant="fixed_lambda"), 0, 0) == 0.5
        assert tr._step_lambda(config(fixed_lambda=0.3), 4, 2) == 0.3
        assert tr._step_lambda(config(variant="base"), 0, 0) == 0.5
        drawn = tr._step_lambda(config(), 0, 0)
        assert 0.0 <= drawn <= 1.0
        assert tr._step_lambda(config(), 0, 0) == drawn
        assert tr._step_lambda(config(), 0, 1) != drawn


class TestFit:
    def test_loss_drops_on_tiny_data(self):
        split_a, split_b = tiny_splits()
        result = tr.train_model(split_a, split_b, config(epochs=30))
        assert result.history[-1]["total"] < result.history[0]["total"]

    def test_two_runs_are_bitwise_identical(self):
        split_a, split_b = tiny_splits()
        r1 = tr.train_model(split_a, split_b, config(epochs=4))
        r2 = tr.train_model(split_a, split_b, config(epochs=4))
        assert r1.log_lines == r2.log_lines
        for name in r1.model.params:
            np.testing.assert_array_equal(r1.model.params[name].data,
                                          r2.model.params[name].data)

    def test_log_lines_match_header(self):
        split_a, split_b = tiny_splits()
        sink = io.StringIO()
        result = tr.train_model(split_a, split_b, config(epochs=3), log_sink=sink)
        assert result.log_lines[0] == tr.LOG_HEADER
        assert len(result.log_lines) == 1 + 3
        n_cols = len(tr.LOG_HEADER.split("\t"))
        for epoch, line in enumerate(result.log_lines[1:]):
            fields = line.split("\t")
            assert len(fields) == n_cols
            assert int(fields[0]) == epoch
            for field in fields[1:]:
                assert math.isfinite(float(field))
        assert sink.getvalue() == "\n".join(result.log_lines) + "\n"

    def test_history_mirrors_log(self):
        split_a, split_b = tiny_splits()
        result = tr.train_model(split_a, split_b, config(epochs=2))
        for epoch, row in enumerate(result.history):
            fields = result.log_lines[1 + epoch].split("\t")
            assert row["epoch"] == epoch
            np.testing.assert_allclose(row["total"], float(fields[1]), atol=5e-7)
            np.testing.assert_allclose(row["lambda_mean"], float(fields[6]), atol=5e-7)

    def test_base_variant_logs_zero_aux_losses(self):
        split_a, split_b = tiny_splits()
        result = tr.train_model(split_a, split_b, config(variant="base", epochs=2))
        for row in result.history:
            assert row["cls1"] == 0.0 and row["cls2"] == 0.0
            assert row["lambda_mean"] == 0.5

    def test_alternating_runs_and_differs(self):
        split_a, split_b = tiny_splits()
        joint = tr.train_model(split_a, split_b, config(epochs=3))
        alt = tr.train_model(split_a, split_b, config(epochs=3, alternating=True))
        assert len(alt.history) == 3
        assert all(math.isfinite(r["total"]) for r in alt.history)
        diffs = [
            np.abs(joint.model.params[n].data - alt.model.params[n].data).max()
            for n in joint.model.params
        ]
        assert max(diffs) > 0

    def test_non_finite_loss_aborts_with_diagnostics(self):
        split_a, split_b = tiny_splits()
        model = md.build_model(
            build_bipartite_adjacency(split_a.train),
            build_bipartite_adjacency(split_b.train),
            config(),
        )
        model.params["gcn_a.e0"].data[0, 0] = np.nan
        with pytest.raises(tr.NumericalAbortError) as excinfo:
            tr.fit(model, split_a, split_b)
        diag = excinfo.value.diagnostics
        assert diag["epoch"] == 0 and diag["step"] == 0
        assert {"lambda", "batch_users_a", "batch_items_b", "last_max_abs_grad"} <= set(diag)
        assert "non-finite" in str(excinfo.value)


class TestElboTerms:
    def test_terms_match_numpy_reference(self):
        split_a, split_b = tiny_splits()
        model = md.build_model(
            build_bipartite_adjacency(split_a.train),
            build_bipartite_adjacency(split_b.train),
            config(variant="elbo"),
        )
        users = np.arange(split_a.train.num_users)
        fwd = md.forward(model, users, 0.4, stochastic=True,
                         noise_rngs=tr._noise_rngs(model.config, 0, 0))
        kl, recon = tr._elbo_terms(model, fwd)

        k = model.config.k
        kl_parts, recon_parts = [], []
        for branch in md.BRANCHES:
            res = fwd.enc_results[branch]
            target = fwd.enc_inputs[branch].data
            for name, mu, log_sigma, z in (
                ("h1", res.mu1, res.log_sigma1, res.z1),
                ("h2", res.mu2, res.log_sigma2, res.z2),
            ):
                var = np.exp(2.0 * log_sigma.data)
                inner = mu.data ** 2 + var - 1.0 - 2.0 * log_sigma.data
                kl_parts.append(0.5 * k * inner.mean())
                dec = model.decoders[f"{branch}.{name}"]
                pred = z.data @ dec.w.data + dec.b.data
                recon_parts.append(((pred - target) ** 2).mean())
        np.testing.assert_allclose(kl.data.item(), np.mean(kl_parts), rtol=1e-12)
        np.testing.assert_allclose(recon.data.item(), np.mean(recon_parts), rtol=1e-12)

    def test_elbo_training_smoke(self):
        split_a, split_b = tiny_splits()
        result = tr.train_model(split_a, split_b, config(variant="elbo", epochs=2))
        for row in result.history:
            assert math.isfinite(row["cls1"]) and math.isfinite(row["cls2"])
            assert row["cls1"] >= 0.0 and row["cls2"] >= 0.0


@pytest.fixture(scope="module")
def leak_splits():
    spec = SyntheticSpec(num_users=150, num_items_a=150, num_items_b=120,
                         rate_a=0.08, rate_b=0.08, seed=3)
    return freeze_splits(*generate_synthetic(spec), seed=3, n_candidates=20)


class TestTapeIsFreed:
    """Each step's tape must be freed by reference counting, not by the
    cyclic collector: with the collector off, an epoch of training and an
    evaluation leave no unreachable objects. A tape that holds a cycle
    (say, a backward closure that refers to its own output node) leaves
    thousands of objects per epoch here."""

    @pytest.mark.parametrize("variant,fusion,alternating", [
        *((v, "attention", alt) for v in VARIANTS for alt in (False, True)),
        ("full", "concat", False),
        ("full", "sum", False),
    ])
    def test_no_cyclic_garbage(self, leak_splits, variant, fusion, alternating):
        split_a, split_b = leak_splits
        cfg = RunConfig(k=8, epochs=1, batch_size=256, neg_ratio=1, eval_negatives=20,
                        variant=variant, fusion=fusion, alternating=alternating, seed=3)
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            result = tr.train_model(split_a, split_b, cfg)
            after_fit = gc.collect()
            evaluate_model(result.model, split_a, split_b)
            after_eval = gc.collect()
        finally:
            if was_enabled:
                gc.enable()
        assert (after_fit, after_eval) == (0, 0)
