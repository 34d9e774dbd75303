"""Multi-task training loop over both domains.

Each step draws one batch per domain, runs a single forward pass over the
union of the batch users and each scored batch's distinct items, and
optimizes the summed objective (prediction losses plus the weighted
disentanglement losses). Every random decision is keyed to (seed, stream,
epoch, step, ...) so reruns are bit-identical.

An epoch's samples are one (n, 2) int32 array of (user, item) rows per
domain: the positives from the train set's CSR rows, then the negatives that
``sample_train_negatives`` draws for them (looked up on this module at call
time, once per domain and epoch), plus the positive count. No label or
int64 copy is stored: each domain's samples feed a ``_batches`` generator,
which keeps its shuffle order as int32 and gives a batch's labels as
``row < positive count``. A step's batches travel as one dict keyed by domain
tag, and ``step_losses`` scores each batch it is given. A non-finite loss or
gradient aborts before the optimizer moves.

Between steps ``fit`` keeps nothing of a step: it clears the parameter
gradients before the next forward, and no name holds a forward pass or a
loss past its sweep, so each sweep frees most of the heap the step used.
``keep_freed_heap`` keeps that memory in the process for the next step.
"""

from __future__ import annotations

import ctypes
import itertools
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import autodiff as ad
from . import disentangle as dis
from . import fusion as fu
from . import graph as gr
from .autodiff import Value
from .config import VARIANTS, ConfigError, RunConfig
from .data import SplitDataset, sample_train_negatives
from .mixup import sample_lambda
from .model import BRANCHES, DOMAINS, ModelState, build_model, forward, score_pairs
from .optim import Adam

LOG_HEADER = "epoch\tloss_total\tloss_prd_A\tloss_prd_B\tloss_cls1\tloss_cls2\tlambda_mean"

# RNG stream tags; each keyed draw is default_rng([seed, tag, ...])
_STREAM_NEGATIVES = 1
_STREAM_LAMBDA = 2
_STREAM_NOISE = 3
_STREAM_SHUFFLE = 4

# glibc mallopt(3) parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _find_mallopt():
    """The C library's ``mallopt``, or None where there is none.

    Looked up once, at import: each ``ctypes.CDLL`` builds ctypes classes,
    which are cyclic garbage. ``CDLL(None)`` fails on Windows, and macOS has
    no ``mallopt``.
    """
    try:
        return ctypes.CDLL(None).mallopt  # int mallopt(int, int): ctypes' default types
    except (OSError, TypeError, AttributeError):
        return None


_mallopt = _find_mallopt()


def keep_freed_heap() -> None:
    """Make malloc keep the heap a training step frees, for the next step.

    ``fit`` frees the whole of a step by the end of its sweep. With glibc's
    self-tuning thresholds the freed top of the heap then goes back to the
    kernel after every sweep, and the next forward faults it in again, page
    by page. Fixed thresholds keep it: arrays below 32 MiB come from the
    heap, and the heap is trimmed only when 1 GiB lies free at its top. Both
    are set, because setting either one turns off the self-tuning of both.
    The setting lasts for the rest of the process and cannot be undone, so
    ``fit`` does not make it: a program that trains calls this once (the
    CLI's ``train``, ``ablate`` and ``sweep`` do).
    """
    if _mallopt is not None:
        _mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        _mallopt(_M_TRIM_THRESHOLD, 1 << 30)


class NumericalAbortError(RuntimeError):
    """Training produced a non-finite loss or gradient; carries step diagnostics."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass
class TrainResult:
    model: ModelState
    log_lines: list[str]
    history: list[dict]


def _epoch_arrays(train, epoch: int, domain_id: int, config: RunConfig) -> tuple[np.ndarray, int]:
    """One domain's epoch samples: (n, 2) int32 (user, item) rows, the
    positives first and then freshly drawn negatives, and the positive count.
    A ``neg_ratio`` that takes the sample count to 2**31 is a ConfigError."""
    n_pos = train.indices.size
    bound = max(train.num_users, train.num_items, n_pos * (config.neg_ratio + 1))
    if bound >= 1 << 31:
        raise ConfigError(
            f"int32 epoch samples need counts below 2**31, got {bound} "
            f"(neg_ratio = {config.neg_ratio})"
        )
    rng = np.random.default_rng([config.seed, _STREAM_NEGATIVES, epoch, domain_id])
    negatives = sample_train_negatives(train, config.neg_ratio, rng)
    pairs = np.empty((n_pos + len(negatives), 2), dtype=np.int32)
    pairs[:n_pos] = train.interactions
    pairs[n_pos:] = negatives
    return pairs, n_pos


def _batches(pairs: np.ndarray, n_pos: int, config: RunConfig, epoch: int, domain_id: int):
    """Shuffled (users, items, labels) batches over one domain's epoch
    samples, recycling on demand.

    A sample is a positive iff its row lies below ``n_pos``, so a batch's
    labels are a bool array (``loss_prd`` reads them as 1.0 and 0.0). When a
    pass runs out before the paired (larger) domain finishes its epoch, the
    same samples are reshuffled under the next cycle key. An empty domain
    yields empty batches.
    """
    for cycle in itertools.count():
        rng = np.random.default_rng([config.seed, _STREAM_SHUFFLE, epoch, domain_id, cycle])
        order = rng.permutation(len(pairs)).astype(np.int32)
        for start in range(0, max(order.size, 1), config.batch_size):
            sel = order[start : start + config.batch_size]
            yield pairs[sel, 0], pairs[sel, 1], sel < n_pos


def _noise_rngs(config: RunConfig, epoch: int, step: int, offset: int = 0):
    return {
        branch: np.random.default_rng(
            [config.seed, _STREAM_NOISE, epoch, step, offset + idx]
        )
        for idx, branch in enumerate(BRANCHES)
    }


def _step_lambda(config: RunConfig, epoch: int, step: int) -> float:
    if config.variant == "fixed_lambda":
        return 0.5
    if config.fixed_lambda is not None:
        return config.fixed_lambda
    if not VARIANTS[config.variant]:
        return 0.5  # base variant never mixes; value is only logged
    rng = np.random.default_rng([config.seed, _STREAM_LAMBDA, epoch, step])
    return sample_lambda(config.mixup_alpha, rng)


def _elbo_terms(model: ModelState, fwd) -> tuple[Value, Value]:
    """KL-to-prior and reconstruction means over all branch/head pairs."""
    k = model.config.k
    kl_parts: list[Value] = []
    recon_parts: list[Value] = []
    for branch in BRANCHES:
        res = fwd.enc_results[branch]
        # the target is the encoder input, itself a function of the GCN
        # parameters, so the reconstruction gradient reaches them too
        target = fwd.enc_inputs[branch]
        heads = (
            ("h1", res.mu1, res.log_sigma1, res.z1),
            ("h2", res.mu2, res.log_sigma2, res.z2),
        )
        for name, mu, log_sigma, z in heads:
            var = ad.exp(ad.mul_const(log_sigma, 2.0))
            inner = ad.sub(
                ad.affine_const(ad.add(ad.square(mu), var), 1.0, -1.0),
                ad.mul_const(log_sigma, 2.0),
            )
            kl_parts.append(ad.mul_const(ad.mean_all(inner), 0.5 * k))
            dec = f"dec_{branch}.{name}"
            decoded = ad.affine(z, model.params[f"{dec}.w"], model.params[f"{dec}.b"])
            recon_parts.append(ad.mean_all(ad.square(ad.sub(decoded, target))))
    scale = 1.0 / len(kl_parts)
    kl = ad.mul_const(reduce(ad.add, kl_parts), scale)
    recon = ad.mul_const(reduce(ad.add, recon_parts), scale)
    return kl, recon


def step_losses(
    model: ModelState,
    fwd,
    batches: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> tuple[Value, dict[str, float]]:
    """Total loss Value for one step plus float copies of each component.

    ``batches`` maps each domain tag to score onto its (users, items, labels).
    """
    cfg = model.config
    weighted: list[Value] = []
    parts: dict[str, float] = {}

    for tag, (users, items, labels) in batches.items():
        y, s, t = score_pairs(fwd, tag, users, items)
        prd = fu.loss_prd(y, labels, s, t, cfg.gamma)
        weighted.append(prd)
        parts[f"prd_{tag}"] = prd.data.item()

    if VARIANTS[cfg.variant]:
        if cfg.variant == "elbo":
            kl, recon = _elbo_terms(model, fwd)
            weighted.extend([kl, recon])
            parts["cls1"] = kl.data.item()
            parts["cls2"] = recon.data.item()
        else:
            cls1 = dis.loss_cls1(
                fwd.codes["spe_a"],
                fwd.codes["spe_b"],
                fwd.codes["spe_aug"],
                fwd.lam,
                model.params,
                "clf",
            )
            cls2 = dis.loss_cls2(
                fwd.codes["ind_a"], fwd.codes["ind_b"], fwd.codes["sha"], model.params, "clf"
            )
            weighted.append(ad.mul_const(cls1, cfg.mu1))
            weighted.append(ad.mul_const(cls2, cfg.mu2))
            parts["cls1"] = cls1.data.item()
            parts["cls2"] = cls2.data.item()

    total = reduce(ad.add, weighted)
    parts["total"] = total.data.item()
    return total, parts


def _max_abs_grad(model: ModelState) -> float:
    """Largest |gradient| entry over all parameters; NaN if any entry is NaN."""
    grads = (value.grad for value in model.params.values())
    # a NaN makes both max() and min() NaN, so the pair's max keeps it
    peaks = [max(g.max(), -g.min()) for g in grads if g is not None and g.size]
    return float(np.max(peaks, initial=0.0))  # np.max keeps a NaN that max() would drop


def _abort(what: str, epoch: int, step: int, lam: float, batches: dict, last_grad: float):
    diagnostics: dict = {"epoch": epoch, "step": step, "lambda": lam}
    for tag, (users, items, _) in batches.items():
        diagnostics[f"batch_users_{tag}"] = users.tolist()
        diagnostics[f"batch_items_{tag}"] = items.tolist()
    diagnostics["last_max_abs_grad"] = last_grad
    sizes = " ".join(f"{tag}={batch[0].size}" for tag, batch in batches.items())
    raise NumericalAbortError(
        "non-finite training %s at epoch %d step %d "
        "(lambda=%.6f, batch sizes %s, last max|grad|=%.3e)"
        % (what, epoch, step, lam, sizes, last_grad),
        diagnostics,
    )


def fit(
    model: ModelState,
    split_a: SplitDataset,
    split_b: SplitDataset,
    log_sink=None,
) -> TrainResult:
    """Run the configured number of epochs on an already-built model."""
    ad.reset_cosine_clamp_events()
    cfg = model.config
    optimizer = Adam(model.params, lr=cfg.lr)
    log_lines = [LOG_HEADER]
    if log_sink is not None:
        log_sink.write(LOG_HEADER + "\n")
    history: list[dict] = []
    trains = dict(zip(DOMAINS, (split_a.train, split_b.train)))
    noisy = bool(VARIANTS[cfg.variant])  # base never encodes
    # (noise offset, domains) per optimizer step; alternating updates A then B
    passes = ((0, ("a",)), (3, ("b",))) if cfg.alternating else ((0, DOMAINS),)
    last_grad = 0.0

    for epoch in range(cfg.epochs):
        # the larger domain sets the epoch's steps; the other recycles its samples
        streams, steps = {}, 1
        for domain_id, tag in enumerate(DOMAINS):
            pairs, n_pos = _epoch_arrays(trains[tag], epoch, domain_id, cfg)
            streams[tag] = _batches(pairs, n_pos, cfg, epoch, domain_id)
            steps = max(steps, math.ceil(len(pairs) / cfg.batch_size))
        del pairs  # the streams hold the samples; the next epoch's prep must not
        sums = {"total": 0.0, "prd_a": 0.0, "prd_b": 0.0, "cls1": 0.0, "cls2": 0.0}
        lam_sum = 0.0

        for step in range(steps):
            batches = {tag: next(stream) for tag, stream in streams.items()}
            lam = _step_lambda(cfg, epoch, step)
            lam_sum += lam
            union = reduce(np.union1d, (users for users, _, _ in batches.values()))

            parts: dict[str, float] = {}
            for offset, domains in passes:
                noise = _noise_rngs(cfg, epoch, step, offset) if noisy else None
                # an overflow reaches the loss or gradient check, which reports it once
                with np.errstate(over="ignore", invalid="ignore"):
                    scored = {tag: batches[tag] for tag in domains}
                    items = {tag: np.unique(batch[1]) for tag, batch in scored.items()}
                    # nothing of the previous step lives on into this one: its
                    # gradients go now, and no name here holds the pass, whose
                    # arrays die with step_losses or as the sweep passes them
                    optimizer.zero_grad()
                    total, sub = step_losses(
                        model, forward(model, union, lam, noise, items), scored
                    )
                    if not math.isfinite(sub["total"]):
                        _abort("loss", epoch, step, lam, batches, last_grad)
                    ad.backward(total)
                    del total
                last_grad = _max_abs_grad(model)
                if not math.isfinite(last_grad):
                    _abort("gradient", epoch, step, lam, batches, last_grad)
                optimizer.step()
                for key, val in sub.items():
                    parts[key] = parts.get(key, 0.0) + val
            if cfg.alternating:
                # aux losses appear in both half-steps; average them back
                for key in ("cls1", "cls2"):
                    if key in parts:
                        parts[key] *= 0.5

            for key in sums:
                sums[key] += parts.get(key, 0.0)

        row = {key: val / steps for key, val in sums.items()}
        row["epoch"] = epoch
        row["lambda_mean"] = lam_sum / steps
        row["cosine_clamp_events"] = ad.cosine_clamp_events()
        history.append(row)
        line = "%d\t%.6f\t%.6f\t%.6f\t%.6f\t%.6f\t%.6f" % (
            epoch,
            row["total"],
            row["prd_a"],
            row["prd_b"],
            row["cls1"],
            row["cls2"],
            row["lambda_mean"],
        )
        log_lines.append(line)
        if log_sink is not None:
            log_sink.write(line + "\n")

    return TrainResult(model=model, log_lines=log_lines, history=history)


def train_model(
    split_a: SplitDataset,
    split_b: SplitDataset,
    config: RunConfig,
) -> TrainResult:
    """Build adjacencies and a fresh model, then fit it."""
    adjacency_a = gr.build_bipartite_adjacency(split_a.train)
    adjacency_b = gr.build_bipartite_adjacency(split_b.train)
    model = build_model(adjacency_a, adjacency_b, config)
    return fit(model, split_a, split_b)
