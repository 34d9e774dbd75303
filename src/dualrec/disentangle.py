"""Disentanglement encoder, domain classifier, and the two supervision losses.

Each input branch passes through an FC+ReLU trunk and two reparameterized
heads. Head 1 yields the domain-independent (or, on the augmented branch,
domain-shared) code; head 2 yields the domain-specific code. A single
classifier is shared across branches: the specific codes are trained to be
identifiable, the independent and shared codes to be indistinguishable.

A head forms log sigma only on a pass that draws noise (``encode`` given an
``rng``), since sigma only scales the noise: every noise-free pass, eval's
among them, takes each code as its mu. So eval's ``full`` forward runs 13
affine layers at ``l = 2``: 4 GCN, 3 encoder trunks and 6 mu heads.

Both read their weights by name from a parameter dict: an encoder named
``enc_a`` reads ``enc_a.w0``, ``enc_a.b0`` and, per head ``h1``/``h2``,
``enc_a.h1.w_mu``, ``.b_mu``, ``.w_sigma`` and ``.b_sigma``; the classifier
``clf`` reads ``clf.w`` and ``clf.b``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Value

LABEL_A = (1.0, 0.0)
LABEL_B = (0.0, 1.0)
LABEL_UNIFORM = (0.5, 0.5)

# Centers log sigma so sampling starts near-deterministic; training widens it
# where the data supports it.
SIGMA_BIAS_INIT = -2.0


@dataclass
class EncodeResult:
    """Codes plus the distribution parameters behind them (needed by the
    ELBO objective); log sigma is ``None`` on a pass that draws no noise."""

    z1: Value
    z2: Value
    mu1: Value
    log_sigma1: Value | None
    mu2: Value
    log_sigma2: Value | None


def init_disentangle_weights(params: ad.Params, name: str, in_width: int, k: int) -> None:
    hidden = 2 * k
    params.new(f"{name}.w0", (in_width, hidden))
    params.new(f"{name}.b0", (1, hidden))
    for head in ("h1", "h2"):
        params.new(f"{name}.{head}.w_mu", (hidden, k))
        params.new(f"{name}.{head}.b_mu", (1, k))
        params.new(f"{name}.{head}.w_sigma", (hidden, k))
        params.new(f"{name}.{head}.b_sigma", (1, k), mean=SIGMA_BIAS_INIT)


def init_domain_classifier(params: ad.Params, name: str, k: int) -> None:
    params.new(f"{name}.w", (k, 2))
    params.new(f"{name}.b", (1, 2))


def encode(
    e: Value, params: dict[str, Value], name: str, rng: np.random.Generator | None = None
) -> EncodeResult:
    """Two reparameterized codes from one branch input; noise and log sigma iff ``rng`` is given."""
    h = ad.relu(ad.affine(e, params[f"{name}.w0"], params[f"{name}.b0"]))

    def run_head(head: str) -> tuple[Value, Value, Value | None]:
        prefix = f"{name}.{head}"
        mu = ad.affine(h, params[f"{prefix}.w_mu"], params[f"{prefix}.b_mu"])
        if rng is None:
            return mu, mu, None
        log_sigma = ad.clamp(
            ad.affine(h, params[f"{prefix}.w_sigma"], params[f"{prefix}.b_sigma"]),
            -ad.LOG_SIGMA_BOUND,
            ad.LOG_SIGMA_BOUND,
        )
        eps = rng.standard_normal(mu.shape)
        z = ad.add(mu, ad.mul_const(ad.exp(log_sigma), eps))
        return z, mu, log_sigma

    z1, mu1, ls1 = run_head("h1")
    z2, mu2, ls2 = run_head("h2")
    return EncodeResult(z1=z1, z2=z2, mu1=mu1, log_sigma1=ls1, mu2=mu2, log_sigma2=ls2)


def classify_domain(z: Value, params: dict[str, Value], name: str) -> Value:
    return ad.softmax_rows(ad.affine(z, params[f"{name}.w"], params[f"{name}.b"]))


def _label_rows(m: int, label: tuple[float, float]) -> np.ndarray:
    return np.tile(np.asarray(label, dtype=np.float64), (m, 1))


def loss_cls1(
    z_spe_a: Value,
    z_spe_b: Value,
    z_spe_aug: Value,
    lam: float,
    params: dict[str, Value],
    name: str,
) -> Value:
    """Domain-classification loss over the specific codes.

    The augmented branch is supervised with both domain labels, weighted by
    the mixing coefficient and its complement.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    p_a = classify_domain(z_spe_a, params, name)
    p_b = classify_domain(z_spe_b, params, name)
    p_aug = classify_domain(z_spe_aug, params, name)
    term_a = ad.cross_entropy(p_a, _label_rows(z_spe_a.shape[0], LABEL_A))
    term_b = ad.cross_entropy(p_b, _label_rows(z_spe_b.shape[0], LABEL_B))
    term_aug_a = ad.cross_entropy(p_aug, _label_rows(z_spe_aug.shape[0], LABEL_A))
    term_aug_b = ad.cross_entropy(p_aug, _label_rows(z_spe_aug.shape[0], LABEL_B))
    total = ad.add(
        ad.add(term_a, term_b),
        ad.add(ad.mul_const(term_aug_a, lam), ad.mul_const(term_aug_b, 1.0 - lam)),
    )
    return ad.mul_const(total, 1.0 / 3.0)


def loss_cls2(
    z_ind_a: Value,
    z_ind_b: Value,
    z_sha_aug: Value,
    params: dict[str, Value],
    name: str,
) -> Value:
    """KL pressure toward domain indistinguishability on independent/shared codes."""
    total = None
    for z in (z_ind_a, z_ind_b, z_sha_aug):
        p = classify_domain(z, params, name)
        term = ad.kl_div(_label_rows(z.shape[0], LABEL_UNIFORM), p)
        total = term if total is None else ad.add(total, term)
    return ad.mul_const(total, 1.0 / 3.0)
