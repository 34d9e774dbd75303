"""Preference fusion, scoring towers, cosine prediction, and prediction loss.

Attention fusion and the towers read their weights by name from a parameter
dict: ``<name>.c<i>`` (one k x k matrix per fused code) and ``<name>.ws``
(k x C scores) for attention, ``<name>.<stage>`` for the bias-free tower
stages, whose widths ``TOWER_STAGES`` sets. The attention path is generic
over the number of fused components so the ablation variants (two, three, or
four codes) reuse the same machinery.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Value
from .config import ConfigError

# output width of each bias-free tower stage, in multiples of k
TOWER_STAGES = (2, 1)


def init_fusion_weights(params: ad.Params, name: str, k: int, num_components: int) -> None:
    for idx in range(num_components):
        params.new(f"{name}.c{idx}", (k, k))
    params.new(f"{name}.ws", (k, num_components))


def init_tower_weights(params: ad.Params, name: str, in_width: int, k: int) -> None:
    for idx, multiple in enumerate(TOWER_STAGES):
        params.new(f"{name}.{idx}", (in_width, multiple * k))
        in_width = multiple * k


def fused_width(strategy: str, k: int, num_components: int) -> int:
    if strategy == "concat":
        return num_components * k
    if strategy in ("sum", "attention"):
        return k
    raise ConfigError(f"unknown fusion strategy {strategy!r}")


def attention_weights(codes: list[Value], params: dict[str, Value], name: str) -> Value:
    """Per-user softmax weights over the fused components, shape m x C."""
    w_s = params[f"{name}.ws"]
    if len(codes) != w_s.shape[1]:
        raise ad.ContractError(
            f"fusion got {len(codes)} codes for {w_s.shape[1]} component weights"
        )
    mixed = None
    for idx, code in enumerate(codes):
        term = ad.matmul(code, params[f"{name}.c{idx}"])
        mixed = term if mixed is None else ad.add(mixed, term)
    scores = ad.matmul(ad.leaky_relu(mixed), w_s)
    return ad.softmax_rows(scores)


def fuse(
    codes: list[Value], strategy: str, params: dict[str, Value] | None = None, name: str = ""
) -> Value:
    if strategy == "concat":
        return ad.concat_cols(codes)
    if strategy == "sum":
        out = codes[0]
        for code in codes[1:]:
            out = ad.add(out, code)
        return out
    if strategy == "attention":
        if params is None or f"{name}.ws" not in params:
            raise ConfigError("attention fusion requires fusion weights")
        return ad.weighted_sum(codes, attention_weights(codes, params, name))
    raise ConfigError(f"unknown fusion strategy {strategy!r}")


def tower_forward(x: Value, params: dict[str, Value], name: str) -> Value:
    out = x
    for idx in range(len(TOWER_STAGES)):
        out = ad.leaky_relu(ad.matmul(out, params[f"{name}.{idx}"]))
    return out


def predict(s: Value, t: Value) -> Value:
    """Cosine score per aligned row pair, shape n x 1."""
    return ad.row_cosine(s, t)


def loss_prd(y_hat: Value, labels: np.ndarray, s: Value, t: Value, gamma: float) -> Value:
    """Binary cross-entropy on p = (y_hat + 1) / 2 plus the output regularizer.

    The Frobenius penalty covers the tower outputs appearing in the batch and
    is divided by the pair count so gamma is batch-size independent.
    """
    labels = np.asarray(labels, dtype=np.float64).reshape(-1, 1)
    n_pairs = y_hat.shape[0]
    if labels.shape[0] != n_pairs:
        raise ad.ContractError(f"{labels.shape[0]} labels for {n_pairs} predictions")
    p = ad.affine_const(y_hat, 0.5, 0.5)
    dist = ad.concat_cols([p, ad.affine_const(p, -1.0, 1.0)])
    onehot = np.concatenate([labels, 1.0 - labels], axis=1)
    ce = ad.cross_entropy(dist, onehot)
    if gamma == 0.0:
        return ce
    reg = ad.add(ad.frobenius_sq(s), ad.frobenius_sq(t))
    return ad.add(ce, ad.mul_const(reg, gamma / n_pairs))
