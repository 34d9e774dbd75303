"""Interpolative augmentation of aligned user embeddings.

One mixing coefficient is drawn per training batch from Beta(alpha, alpha),
realized as the ratio of two Gamma(alpha, 1) draws. The coefficient is a
constant with respect to gradients.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Value


def sample_lambda(alpha: float, rng) -> float:
    """Draw lambda ~ Beta(alpha, alpha) as g1 / (g1 + g2), g ~ Gamma(alpha, 1)."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    rng = np.random.default_rng(rng)  # a Generator passes through unaltered
    g1 = rng.standard_gamma(alpha)
    g2 = rng.standard_gamma(alpha)
    total = g1 + g2
    if total == 0.0:  # astronomically unlikely underflow for tiny alpha
        return 0.5
    return float(g1 / total)


def interpolate(e_a: Value, e_b: Value, lam: float) -> Value:
    """lam * E_A + (1 - lam) * E_B, with lam constant w.r.t. gradients."""
    if e_a.shape != e_b.shape:
        raise ad.ContractError(f"mixup shapes differ: {e_a.shape} vs {e_b.shape}")
    return ad.add(ad.mul_const(e_a, lam), ad.mul_const(e_b, 1.0 - lam))
