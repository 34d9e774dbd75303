"""Preference fusion, scoring towers, cosine prediction, and prediction loss.

The attention path is generic over the number of fused components so the
ablation variants (two, three, or four codes) reuse the same machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Value
from .config import ConfigError


@dataclass
class FusionWeights:
    w_components: list[Value]  # one k x k matrix per fused code
    w_s: Value  # k x num_components score projection

    @property
    def num_components(self) -> int:
        return len(self.w_components)


@dataclass
class TowerWeights:
    weights: list[Value]  # bias-free stages


def init_fusion_weights(
    params: ad.Params, name: str, k: int, num_components: int
) -> FusionWeights:
    return FusionWeights(
        w_components=[params.new(f"{name}.c{idx}", (k, k)) for idx in range(num_components)],
        w_s=params.new(f"{name}.ws", (k, num_components)),
    )


def init_tower_weights(params: ad.Params, name: str, in_width: int, k: int) -> TowerWeights:
    return TowerWeights(
        weights=[params.new(f"{name}.0", (in_width, 2 * k)), params.new(f"{name}.1", (2 * k, k))]
    )


def fused_width(strategy: str, k: int, num_components: int) -> int:
    if strategy == "concat":
        return num_components * k
    if strategy in ("sum", "attention"):
        return k
    raise ConfigError(f"unknown fusion strategy {strategy!r}")


def attention_weights(codes: list[Value], weights: FusionWeights) -> Value:
    """Per-user softmax weights over the fused components, shape m x C."""
    if len(codes) != weights.num_components:
        raise ad.ShapeError(
            f"fusion got {len(codes)} codes for {weights.num_components} component weights"
        )
    mixed = None
    for code, w in zip(codes, weights.w_components):
        term = ad.matmul(code, w)
        mixed = term if mixed is None else ad.add(mixed, term)
    scores = ad.matmul(ad.leaky_relu(mixed), weights.w_s)
    return ad.softmax_rows(scores)


def fuse(codes: list[Value], strategy: str, weights: FusionWeights | None = None) -> Value:
    if strategy == "concat":
        return ad.concat_cols(codes)
    if strategy == "sum":
        out = codes[0]
        for code in codes[1:]:
            out = ad.add(out, code)
        return out
    if strategy == "attention":
        if weights is None:
            raise ConfigError("attention fusion requires fusion weights")
        attn = attention_weights(codes, weights)
        out = None
        for c, code in enumerate(codes):
            weighted = ad.scale_rows(code, ad.slice_cols(attn, c, c + 1))
            out = weighted if out is None else ad.add(out, weighted)
        return out
    raise ConfigError(f"unknown fusion strategy {strategy!r}")


def tower_forward(x: Value, tower: TowerWeights) -> Value:
    out = x
    for w in tower.weights:
        out = ad.leaky_relu(ad.matmul(out, w))
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
        raise ad.ShapeError(f"{labels.shape[0]} labels for {n_pairs} predictions")
    p = ad.affine_const(y_hat, 0.5, 0.5)
    dist = ad.concat_cols([p, ad.affine_const(p, -1.0, 1.0)])
    onehot = np.concatenate([labels, 1.0 - labels], axis=1)
    ce = ad.cross_entropy(dist, onehot)
    if gamma == 0.0:
        return ce
    reg = ad.add(ad.frobenius_sq(s), ad.frobenius_sq(t))
    return ad.add(ce, ad.mul_const(reg, gamma / n_pairs))
