"""Tests for the training loop: determinism, logging, abort handling,
batch streaming, and the auxiliary loss terms.

The ELBO terms are re-derived in numpy from the same forward pass so the
graph-built loss has an independent reference.
"""

import ast
import functools
import gc
import hashlib
import importlib
import io
import math
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from dualrec import autodiff as ad
from dualrec import data
from dualrec import disentangle as dis
from dualrec import evaluation as ev
from dualrec import fusion as fu
from dualrec import graph as gr
from dualrec import model as md
from dualrec import optim
from dualrec import training as tr
from dualrec.config import VARIANTS, RunConfig
from dualrec.data import freeze_splits
from dualrec.evaluation import evaluate_model
from dualrec.graph import build_bipartite_adjacency
from dualrec.synthetic import SyntheticSpec, generate_synthetic
from faults import nan_gradient_backward
from pairsets import pair_set
from test_data import reference_train_negatives
from toy import config as toy_config
from toy import tiny_splits


config = functools.partial(toy_config, epochs=3, eval_negatives=5, top_k=5)
CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


class TestEpochArrays:
    def test_composition_and_negative_validity(self):
        split_a, _ = tiny_splits()
        cfg = config(neg_ratio=3)
        pairs, n_pos = tr._epoch_arrays(split_a.train, 2, 0, cfg)
        assert n_pos == len(split_a.train.interactions)
        assert pairs.shape == (n_pos * 4, 2)
        np.testing.assert_array_equal(pairs[:n_pos], split_a.train.interactions)
        for u, i in pairs[n_pos:]:
            assert (int(u), int(i)) not in pair_set(split_a.train)

    def test_epoch_key_changes_negatives(self):
        split_a, _ = tiny_splits()
        cfg = config()
        items_e0 = tr._epoch_arrays(split_a.train, 0, 0, cfg)[0][:, 1]
        items_e1 = tr._epoch_arrays(split_a.train, 1, 0, cfg)[0][:, 1]
        items_e0_again = tr._epoch_arrays(split_a.train, 0, 0, cfg)[0][:, 1]
        np.testing.assert_array_equal(items_e0, items_e0_again)
        assert not np.array_equal(items_e0, items_e1)

    @pytest.mark.parametrize("num_users,num_items,n_pos", [
        (1 << 31, 5, 1), (5, 1 << 31, 1), (5, 5, 1 << 30),
    ])
    def test_counts_reaching_2_to_the_31_raise(self, num_users, num_items, n_pos):
        # at ratio 1, 2**30 positives make 2**31 samples; the stand-in holds no bytes
        train = SimpleNamespace(num_users=num_users, num_items=num_items,
                                indices=np.broadcast_to(np.int64(0), (n_pos,)))
        with pytest.raises(ValueError, match=r"2\*\*31"):
            tr._epoch_arrays(train, 0, 0, config(neg_ratio=1))


def reference_epoch_arrays(train, epoch, domain_id, cfg):
    """The tuple-list construction of an epoch's arrays, on the set-based sampler."""
    rng = np.random.default_rng([cfg.seed, tr._STREAM_NEGATIVES, epoch, domain_id])
    negatives, _ = reference_train_negatives(train, cfg.neg_ratio, rng)
    positives = sorted(pair_set(train))
    users = np.array([u for u, _ in positives + negatives], dtype=np.int64)
    items = np.array([i for _, i in positives + negatives], dtype=np.int64)
    labels = np.concatenate([np.ones(len(positives)), np.zeros(len(negatives))])
    return users, items, labels


class TestEpochArraysMatchReference:
    """The int32 (user, item) rows, and the bool labels that their positive
    count gives, hold the reference's values."""

    def assert_bitwise(self, train, epoch, domain_id, cfg):
        pairs, n_pos = tr._epoch_arrays(train, epoch, domain_id, cfg)
        labels = np.arange(len(pairs)) < n_pos
        users, items, ref_labels = reference_epoch_arrays(train, epoch, domain_id, cfg)
        assert pairs.dtype == np.int32 and pairs.shape == (users.size, 2)
        assert labels.dtype == np.bool_
        np.testing.assert_array_equal(pairs[:, 0], users)
        np.testing.assert_array_equal(pairs[:, 1], items)
        np.testing.assert_array_equal(labels, ref_labels)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("neg_ratio", [1, 3, 7])
    def test_tiny_splits_bitwise(self, seed, neg_ratio):
        cfg = config(seed=seed, neg_ratio=neg_ratio)
        for domain_id, split in enumerate(tiny_splits(seed)):
            for epoch in (0, 4):
                self.assert_bitwise(split.train, epoch, domain_id, cfg)

    def test_synthetic_bitwise(self, leak_splits):
        for domain_id, split in enumerate(leak_splits):
            self.assert_bitwise(split.train, 2, domain_id, RunConfig(seed=3))


class TestSamplerLookup:
    """``_epoch_arrays`` draws through this module's ``sample_train_negatives``
    attribute, once per domain and epoch, and every row it returns is one
    negative: a wrapper bound there sees each draw and can count it."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        seen = []
        real = tr.sample_train_negatives

        def counting(train, *args, **kwargs):
            out = real(train, *args, **kwargs)
            seen.append((train, len(out)))
            return out

        monkeypatch.setattr(tr, "sample_train_negatives", counting)
        return seen

    def test_one_call_per_domain_and_len_is_draws(self, calls):
        splits = tiny_splits()
        cfg = config(neg_ratio=3)
        for domain_id, split in enumerate(splits):
            pairs, n_pos = tr._epoch_arrays(split.train, 0, domain_id, cfg)
            assert len(calls) == domain_id + 1
            train, drawn = calls[-1]
            assert train is split.train
            assert drawn == len(pairs) - n_pos == 3 * len(split.train.interactions)

    def test_fit_draws_once_per_domain_per_epoch(self, calls):
        split_a, split_b = tiny_splits()
        tr.train_model(split_a, split_b, config(epochs=2))
        assert [id(train) for train, _ in calls] == [id(split_a.train), id(split_b.train)] * 2


class TestHookLookup:
    """The benchmark harness (``perfbench/child.py``) times layers by binding
    wrappers over these module attributes, so every caller must look each one
    up on its module at call time. A loop that captured one by value would
    bypass the wrapper: the counts below would come up short."""

    HOOKS = (
        (tr, "forward"),
        (tr, "score_pairs"),
        (tr, "step_losses"),
        (gr, "encode_graph"),
        (md, "interpolate"),
        (fu, "tower_forward"),
        (dis, "encode"),
        (ev, "model_representations"),
        (ev, "evaluate_domain"),
        (data, "leave_one_out_split"),
        (data, "filter_cold_items"),
        (data, "sample_eval_candidates"),
    )

    @pytest.fixture()
    def calls(self, monkeypatch):
        counts = {}

        def counting(name, real):
            def wrapper(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return real(*args, **kwargs)

            return wrapper

        for module, attr in self.HOOKS:
            name = f"{module.__name__.rsplit('.', 1)[1]}.{attr}"
            monkeypatch.setattr(module, attr, counting(name, getattr(module, attr)))
        return counts

    def test_one_epoch_full_fit_and_eval(self, calls):
        split_a, split_b = tiny_splits()
        for stage in ("leave_one_out_split", "filter_cold_items", "sample_eval_candidates"):
            assert calls.pop(f"data.{stage}") == 2, stage
        cfg = config(epochs=1, top_k=3)  # at most the 3 candidates
        model = md.build_model(
            build_bipartite_adjacency(split_a.train),
            build_bipartite_adjacency(split_b.train),
            cfg,
        )
        tr.fit(model, split_a, split_b)
        ev.evaluate_model(model, split_a, split_b)
        samples = [len(s.train.interactions) * (1 + cfg.neg_ratio) for s in (split_a, split_b)]
        steps = max(math.ceil(n / cfg.batch_size) for n in samples)
        forwards = steps + 1  # one per step, one for evaluation
        assert steps > 1
        assert calls == {
            "training.forward": steps,
            "training.step_losses": steps,
            "training.score_pairs": 2 * steps,
            "graph.encode_graph": 2 * forwards,
            "model.interpolate": forwards,
            "fusion.tower_forward": 4 * forwards,  # user and item tower per domain
            "disentangle.encode": len(md.BRANCHES) * forwards,
            "evaluation.model_representations": 1,
            "evaluation.evaluate_domain": 2,
        }

    def test_every_name_the_benchmark_child_reads_exists(self):
        # a rename would otherwise surface only as a failed benchmark run
        tree = ast.parse(CHILD.read_text())
        modules = {alias.asname or alias.name: f"dualrec.{alias.name}"
                   for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module == "dualrec"
                   for alias in node.names}
        names = set()
        for node in ast.walk(tree):
            base, chain = node, []
            while isinstance(base, ast.Attribute):  # <module>.<name>[.<name>...]
                chain.insert(0, base.attr)
                base = base.value
            if chain and isinstance(base, ast.Name) and base.id in modules:
                names.add((modules[base.id], ".".join(chain)))
            if isinstance(node, ast.Tuple) and len(node.elts) == 3:  # (module, "name", span)
                module, attr, _ = node.elts
                if isinstance(module, ast.Name) and module.id in modules:
                    names.add((modules[module.id], ast.literal_eval(attr)))
        assert {("dualrec.optim", "Adam.step"), ("dualrec.optim", "Adam.zero_grad"),
                ("dualrec.evaluation", "evaluate_domain")} <= names
        assert len(names) > 30
        missing = []
        for module, dotted in sorted(names):
            try:
                functools.reduce(getattr, dotted.split("."), importlib.import_module(module))
            except AttributeError:
                missing.append(f"{module}.{dotted}")
        assert missing == []


def sample_pairs(users, items):
    return np.stack([users, items], axis=1).astype(np.int32)


class TestBatchStream:
    def test_cycle_covers_every_sample(self):
        users = np.arange(10)
        stream = tr._batches(sample_pairs(users, users * 2), 10, config(batch_size=4), 0, 0)
        cycle = [next(stream) for _ in range(3)]
        assert [b[0].size for b in cycle] == [4, 4, 2]
        seen = np.concatenate([b[0] for b in cycle])
        assert sorted(seen.tolist()) == list(range(10))
        for users_b, items_b, _ in cycle:
            np.testing.assert_array_equal(items_b, users_b * 2)

    def test_labels_mark_rows_below_the_positive_count(self):
        users = np.arange(10)
        stream = tr._batches(sample_pairs(users, users), 4, config(batch_size=4), 0, 0)
        for _ in range(6):
            users_b, _, labels = next(stream)
            assert labels.dtype == np.bool_
            np.testing.assert_array_equal(labels, users_b < 4)

    def test_recycles_with_fresh_shuffle(self):
        users = np.arange(10)
        stream = tr._batches(sample_pairs(users, users), 10, config(batch_size=4), 0, 0)
        first_cycle = [next(stream)[0] for _ in range(3)]
        second_cycle = [next(stream)[0] for _ in range(3)]
        assert sorted(np.concatenate(second_cycle).tolist()) == list(range(10))
        assert [b.size for b in first_cycle] == [b.size for b in second_cycle] == [4, 4, 2]

    def test_empty_domain_yields_empty_batches(self):
        empty = np.arange(0)
        stream = tr._batches(sample_pairs(empty, empty), 0, config(batch_size=4), 0, 0)
        assert [next(stream)[0].size for _ in range(3)] == [0, 0, 0]

    def test_stream_is_deterministic(self):
        users = np.arange(7)
        a = tr._batches(sample_pairs(users, users), 7, config(batch_size=3), 1, 1)
        b = tr._batches(sample_pairs(users, users), 7, config(batch_size=3), 1, 1)
        for _ in range(5):
            np.testing.assert_array_equal(next(a)[0], next(b)[0])

    def test_order_is_the_int64_permutation(self):
        # the shuffle draws rng.permutation(n) and only then narrows it to int32
        users = np.arange(9)
        stream = tr._batches(sample_pairs(users, users), 9, config(batch_size=9), 2, 1)
        rng = np.random.default_rng([0, tr._STREAM_SHUFFLE, 2, 1, 0])
        np.testing.assert_array_equal(next(stream)[0], rng.permutation(9))


class TestStepLambda:
    def test_policy(self):
        assert tr._step_lambda(config(variant="fixed_lambda"), 0, 0) == 0.5
        assert tr._step_lambda(config(fixed_lambda=0.3), 4, 2) == 0.3
        assert tr._step_lambda(config(variant="base"), 0, 0) == 0.5
        drawn = tr._step_lambda(config(), 0, 0)
        assert 0.0 <= drawn <= 1.0
        assert tr._step_lambda(config(), 0, 0) == drawn
        assert tr._step_lambda(config(), 0, 1) != drawn

    def test_fixed_lambda_variant_takes_the_field(self):
        # the config record says 0.3, so the fixed_lambda variant trains at 0.3
        cfg = config(variant="fixed_lambda", fixed_lambda=0.3)
        assert tr._step_lambda(cfg, 0, 0) == 0.3
        history = tr.train_model(*tiny_splits(), cfg).history
        assert history[0]["lambda_mean"] == pytest.approx(0.3, abs=1e-12)


class TestRandomStreams:
    """No two seeded draws of a run start the same random stream.

    Each module picks its stream ids (``default_rng([seed, stream, ...])``)
    on its own, and numpy's SeedSequence pads a key to four words with zeros,
    so ``[5, 1]`` and ``[5, 1, 0, 0]`` start the same stream: a training id
    of 10 would repeat domain A's split draw at epoch 0, step 0. Every module
    looks ``np.random.default_rng`` up at call time, so the patch sees every
    keyed draw of a ``synth`` -> split -> train -> eval run.
    """

    @pytest.mark.parametrize("overrides", [
        {}, {"alternating": True}, {"variant": "elbo"},
    ], ids=["full", "full-alternating", "elbo"])
    def test_every_keyed_draw_starts_its_own_stream(self, monkeypatch, overrides):
        real = np.random.default_rng
        starts: dict = {}

        def recording(seed=None):
            rng = real(seed)
            if isinstance(seed, list):
                state = rng.bit_generator.state["state"]["state"]
                starts.setdefault(state, []).append(seed)
            return rng

        monkeypatch.setattr(np.random, "default_rng", recording)
        spec = SyntheticSpec(num_users=80, num_items_a=90, num_items_b=70,
                             rate_a=0.1, rate_b=0.1, min_count=2, seed=5)
        split_a, split_b = freeze_splits(*generate_synthetic(spec), seed=5, n_candidates=5)
        cfg = toy_config(seed=5, **overrides)
        evaluate_model(tr.train_model(split_a, split_b, cfg).model, split_a, split_b)
        shared = [keys for keys in starts.values() if len(keys) > 1]
        assert len(starts) > 20
        assert not shared, f"keys that start the same stream: {shared}"


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
        adjacencies = (build_bipartite_adjacency(split.train) for split in (split_a, split_b))
        model = md.build_model(*adjacencies, config(epochs=3))
        result = tr.fit(model, split_a, split_b, log_sink=sink)
        assert result.log_lines[0] == tr.LOG_HEADER
        assert len(result.log_lines) == 1 + 3
        n_cols = len(tr.LOG_HEADER.split("\t"))
        for epoch, line in enumerate(result.log_lines[1:]):
            fields = line.split("\t")
            assert len(fields) == n_cols
            assert int(fields[0]) == epoch
            for field in fields[1:]:
                assert math.isfinite(float(field))
        # both forms are formatted from the history, the one record of the run
        assert result.log_lines == [tr.LOG_HEADER] + [tr.log_line(r) for r in result.history]
        assert sink.getvalue() == "\n".join(result.log_lines) + "\n"

    def test_history_mirrors_log(self):
        split_a, split_b = tiny_splits()
        result = tr.train_model(split_a, split_b, config(epochs=2))
        # one key per LOG_HEADER column, in its order
        keys = ("total", "prd_a", "prd_b", "cls1", "cls2", "lambda_mean")
        for epoch, row in enumerate(result.history):
            fields = result.log_lines[1 + epoch].split("\t")
            assert row["epoch"] == epoch == int(fields[0])
            np.testing.assert_allclose([float(f) for f in fields[1:]], [row[k] for k in keys],
                                       rtol=0, atol=5e-7)

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

    def test_clamp_events_count_only_this_fit(self):
        # init_std = 0 makes every representation row zero, so row_cosine
        # clamps on every step; a second fit must not add the first one's count
        spec = SyntheticSpec(num_users=60, num_items_a=80, num_items_b=60,
                             rate_a=0.12, rate_b=0.12, min_count=2, seed=0)
        split_a, split_b = freeze_splits(*generate_synthetic(spec), seed=0, n_candidates=5)
        cfg = config(variant="base", init_std=0.0, epochs=1, batch_size=64)
        counts = []
        for _ in range(2):
            model = md.build_model(
                build_bipartite_adjacency(split_a.train),
                build_bipartite_adjacency(split_b.train),
                cfg,
            )
            counts.append(tr.fit(model, split_a, split_b).history[0]["cosine_clamp_events"])
        assert counts[0] > 0
        assert counts[1] == counts[0]

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

    def test_non_finite_gradient_aborts_before_the_update(self, monkeypatch):
        split_a, split_b = tiny_splits()
        model = md.build_model(
            build_bipartite_adjacency(split_a.train),
            build_bipartite_adjacency(split_b.train),
            config(epochs=1, batch_size=4096),  # one step: the last step of the fit
        )
        before = {name: value.data.copy() for name, value in model.params.items()}
        monkeypatch.setattr(ad, "backward", nan_gradient_backward)
        with pytest.raises(tr.NumericalAbortError) as excinfo:
            tr.fit(model, split_a, split_b)
        diag = excinfo.value.diagnostics
        assert diag["epoch"] == 0 and diag["step"] == 0
        assert {"lambda", "batch_users_a", "batch_items_b", "last_max_abs_grad"} <= set(diag)
        assert math.isnan(diag["last_max_abs_grad"])
        assert "non-finite training gradient" in str(excinfo.value)
        for name, value in model.params.items():
            np.testing.assert_array_equal(value.data, before[name], err_msg=name)


class TestMaxAbsGrad:
    @staticmethod
    def peak(*grads):
        params = {}
        for idx, grad in enumerate(grads):
            params[idx] = value = ad.Value(np.zeros((1, 1)))
            value.grad = None if grad is None else np.array([grad], dtype=np.float64)
        return tr._max_abs_grad(SimpleNamespace(params=params))

    def test_peaks(self):
        assert math.isnan(self.peak([1.0, np.nan, -2.0], [5.0]))
        assert math.isnan(self.peak([5.0], [np.nan]))
        assert self.peak([-np.inf]) == math.inf
        assert self.peak([-3.0, 2.0]) == 3.0
        assert self.peak([-3.0, 2.0], [4.0], None) == 4.0

    def test_no_gradients_is_zero(self):
        assert self.peak() == 0.0
        assert self.peak(None, np.zeros((1, 0))) == 0.0


class TestElboTerms:
    def test_terms_match_numpy_reference(self):
        split_a, split_b = tiny_splits()
        model = md.build_model(
            build_bipartite_adjacency(split_a.train),
            build_bipartite_adjacency(split_b.train),
            config(variant="elbo"),
        )
        users = np.arange(split_a.train.num_users)
        fwd = md.forward(model, users, 0.4, noise_rngs=tr._noise_rngs(model.config, 0, 0))
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
                dec = f"dec_{branch}.{name}"
                pred = z.data @ model.params[f"{dec}.w"].data + model.params[f"{dec}.b"].data
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


class TestStepKeepsNothingPastItsSweep:
    """When a step's forward starts, nothing of the step before is alive:
    neither the previous pass's arrays nor the previous update's parameter
    gradients. The hooks bind over the module attributes the benchmark
    wraps; the collector is off, so only reference counting frees."""

    @pytest.mark.parametrize("variant,alternating", [
        ("full", False), ("base", False), ("full", True),
    ])
    def test_previous_step_is_dead_at_the_next_forward(
            self, leak_splits, monkeypatch, variant, alternating):
        split_a, split_b = leak_splits
        cfg = RunConfig(k=8, epochs=1, batch_size=256, neg_ratio=1, eval_negatives=20,
                        variant=variant, alternating=alternating, seed=3)
        real_forward, real_step = tr.forward, optim.Adam.step
        held: list[weakref.ref] = []  # the current step's arrays
        alive_at_forward: list[int] = []

        def forward_hook(*args, **kwargs):
            alive_at_forward.append(sum(ref() is not None for ref in held))
            held.clear()
            fwd = real_forward(*args, **kwargs)
            arrays = [v.data for v in fwd.s.values()] + [v.data for v in fwd.codes.values()][:1]
            held.extend(weakref.ref(a) for a in arrays)
            return fwd

        def step_hook(optimizer):
            grads = [p.grad for p in optimizer.params.values() if p.grad is not None]
            assert grads
            held.extend(weakref.ref(g) for g in grads)
            real_step(optimizer)

        monkeypatch.setattr(tr, "forward", forward_hook)
        monkeypatch.setattr(optim.Adam, "step", step_hook)
        model = md.build_model(
            build_bipartite_adjacency(split_a.train),
            build_bipartite_adjacency(split_b.train),
            cfg,
        )
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            tr.fit(model, split_a, split_b)
        finally:
            if was_enabled:
                gc.enable()
        assert len(alive_at_forward) > 2
        assert alive_at_forward == [0] * len(alive_at_forward)


def test_fit_sets_both_malloc_thresholds(monkeypatch):
    # fit owns the heap policy, so no program that trains has to set it
    calls = []
    monkeypatch.setattr(tr, "_mallopt", lambda param, value: calls.append((param, value)))
    split_a, split_b = tiny_splits()
    tr.train_model(split_a, split_b, config(epochs=1))
    assert calls == [(-3, 32 << 20), (-1, 1 << 30)]


@pytest.mark.pins
class TestFirstStepGolden:
    """First-step loss parts on the 150-user spec, pinned at 1e-12 relative.

    The values were recorded before the training step was rewritten for
    speed (row selection by sparse product, item tower once per distinct
    item); an exact rewrite keeps them, an approximation does not.
    """

    GOLDEN = {
        "full": {"total": 2.215275002145305, "prd_a": 0.7440850416786101,
                 "prd_b": 0.7773407653143817, "cls1": 0.6938425111711057,
                 "cls2": 6.6839812071812955e-06},
        "base": {"total": 1.6587408353947608, "prd_a": 0.8068666601647672,
                 "prd_b": 0.8518741752299938},
        "elbo": {"total": 13.591511504778143, "prd_a": 0.7440850416786101,
                 "prd_b": 0.7773407653143817, "cls1": 12.069915639748462,
                 "cls2": 0.00017005803668917872},
    }

    @pytest.mark.parametrize("variant", sorted(GOLDEN))
    def test_first_step_parts(self, leak_splits, variant):
        split_a, split_b = leak_splits
        cfg = RunConfig(k=8, batch_size=256, neg_ratio=1, eval_negatives=20,
                        variant=variant, seed=3)
        model = md.build_model(
            build_bipartite_adjacency(split_a.train),
            build_bipartite_adjacency(split_b.train),
            cfg,
        )
        batch_a, batch_b = (
            next(tr._batches(*tr._epoch_arrays(split.train, 0, d, cfg), cfg, 0, d))
            for d, split in enumerate((split_a, split_b))
        )
        fwd = md.forward(
            model,
            np.union1d(batch_a[0], batch_b[0]),
            tr._step_lambda(cfg, 0, 0),
            noise_rngs=tr._noise_rngs(cfg, 0, 0),
        )
        _, parts = tr.step_losses(model, fwd, {"a": batch_a, "b": batch_b})
        assert set(parts) == set(self.GOLDEN[variant])
        for key, want in self.GOLDEN[variant].items():
            assert parts[key] == pytest.approx(want, rel=1e-12, abs=0.0), key


@pytest.mark.pins
class TestTapeSize:
    """Tape nodes of the first step's loss on the 150-user spec, leaves
    included (58 on ``full``, 18 on ``base``); each affine layer is one node,
    and so is each attention mix. The counts are pinned, so a change that
    adds nodes to a step has to re-pin them and say why. The setup is
    ``TestFirstStepGolden``'s."""

    NODES = {"full": 222, "base": 87}

    @pytest.mark.parametrize("variant", sorted(NODES))
    def test_nodes_per_step(self, leak_splits, variant):
        split_a, split_b = leak_splits
        cfg = RunConfig(k=8, batch_size=256, neg_ratio=1, eval_negatives=20,
                        variant=variant, seed=3)
        assert cfg.fusion == "attention"
        model = md.build_model(
            build_bipartite_adjacency(split_a.train),
            build_bipartite_adjacency(split_b.train),
            cfg,
        )
        batch_a, batch_b = (
            next(tr._batches(*tr._epoch_arrays(split.train, 0, d, cfg), cfg, 0, d))
            for d, split in enumerate((split_a, split_b))
        )
        fwd = md.forward(
            model,
            np.union1d(batch_a[0], batch_b[0]),
            tr._step_lambda(cfg, 0, 0),
            noise_rngs=tr._noise_rngs(cfg, 0, 0),
        )
        total, _ = tr.step_losses(model, fwd, {"a": batch_a, "b": batch_b})
        assert len(ad._toposort(total.node)) == self.NODES[variant]


class TestStepMemory:
    """tracemalloc peak of the second ``fit`` step on the 150-user spec,
    ``TestTapeSize``'s config: the most that numpy arrays and Python objects
    allocated since ``fit`` began held at once between the first and the
    second optimizer update. That covers the epoch's samples, the batch
    streams, Adam's moments and the step's own arrays and tape. The peaks
    are pinned as upper bounds with 3% slack, so a change that makes a step
    hold more has to re-pin them and say why."""

    PEAK_BYTES = {"full": 1_126_400, "base": 684_300}
    SLACK = 1.03

    class Stop(Exception):
        pass

    @pytest.mark.parametrize("variant", sorted(PEAK_BYTES))
    def test_second_step_peak(self, leak_splits, monkeypatch, variant):
        split_a, split_b = leak_splits
        cfg = RunConfig(k=8, batch_size=256, neg_ratio=1, eval_negatives=20,
                        variant=variant, seed=3)
        assert cfg.fusion == "attention"
        model = md.build_model(
            build_bipartite_adjacency(split_a.train),
            build_bipartite_adjacency(split_b.train),
            cfg,
        )
        peaks = []
        adam_step = optim.Adam.step

        def step(optimizer):
            adam_step(optimizer)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            if len(peaks) == 2:
                raise self.Stop

        monkeypatch.setattr(optim.Adam, "step", step)
        tracemalloc.start()
        try:
            with pytest.raises(self.Stop):
                tr.fit(model, split_a, split_b)
        finally:
            tracemalloc.stop()
        assert peaks[1] <= self.PEAK_BYTES[variant] * self.SLACK


@pytest.mark.pins
class TestTrainedBitsPinned:
    """sha256 over every parameter's name and bits after three ``fit`` steps.

    The digests were recorded before the tape was split into payloads and
    nodes. ``TestFirstStepGolden`` pins only the first step's losses; these
    pin every gradient bit of three updates, so a tape refactor that changes
    a sum's order or an op's rounding fails here.
    """

    DIGESTS = {
        ("full", False): "1c0dbc4bed9a8bab1326573acd411a6c25e3aee79d8b425fb943b83c86ae83f8",
        ("base", False): "73c79cda2d08dc278eb72ad02b6ddef723bbff74200b84cfdba31738b0dc4701",
        ("elbo", False): "e4ed76763271852ffc6d1a72cd63fefc3704643f03a1be5036e6a316b5001a98",
        ("full", True): "4880ca28f3425a6b9e2aa8c5818cfca84681dbb90901c781430898cc4cf988aa",
    }

    @pytest.mark.parametrize("variant,alternating", sorted(DIGESTS))
    def test_parameters_after_three_steps(self, leak_splits, variant, alternating):
        split_a, split_b = leak_splits
        cfg = RunConfig(k=8, epochs=1, batch_size=1100, neg_ratio=1, eval_negatives=20,
                        variant=variant, alternating=alternating, seed=3)
        # the larger domain, A, sets the epoch's steps
        assert math.ceil(2 * len(split_a.train.interactions) / cfg.batch_size) == 3
        model = tr.train_model(split_a, split_b, cfg).model
        digest = hashlib.sha256()
        for name, value in model.params.items():
            digest.update(name.encode())
            digest.update(value.data.tobytes())
        assert digest.hexdigest() == self.DIGESTS[(variant, alternating)]
