"""Disentanglement encoder, domain classifier, and the two supervision losses.

Each input branch passes through an FC+ReLU trunk and two reparameterized
heads. Head 1 yields the domain-independent (or, on the augmented branch,
domain-shared) code; head 2 yields the domain-specific code. A single
classifier is shared across branches: the specific codes are trained to be
identifiable, the independent and shared codes to be indistinguishable.
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
class HeadWeights:
    w_mu: Value
    b_mu: Value
    w_sigma: Value
    b_sigma: Value


@dataclass
class DisentangleWeights:
    w0: Value
    b0: Value
    head1: HeadWeights
    head2: HeadWeights


@dataclass
class DomainClassifier:
    w: Value
    b: Value


@dataclass
class EncodeResult:
    """Codes plus the distribution parameters behind them (needed by the
    ELBO objective)."""

    z1: Value
    z2: Value
    mu1: Value
    log_sigma1: Value
    mu2: Value
    log_sigma2: Value


def init_disentangle_weights(
    params: ad.Params, name: str, in_width: int, k: int
) -> DisentangleWeights:
    hidden = 2 * k

    def head(h: str) -> HeadWeights:
        return HeadWeights(
            w_mu=params.new(f"{name}.{h}.w_mu", (hidden, k)),
            b_mu=params.new(f"{name}.{h}.b_mu", (1, k)),
            w_sigma=params.new(f"{name}.{h}.w_sigma", (hidden, k)),
            b_sigma=params.new(f"{name}.{h}.b_sigma", (1, k), mean=SIGMA_BIAS_INIT),
        )

    return DisentangleWeights(
        w0=params.new(f"{name}.w0", (in_width, hidden)),
        b0=params.new(f"{name}.b0", (1, hidden)),
        head1=head("h1"),
        head2=head("h2"),
    )


def init_domain_classifier(params: ad.Params, name: str, k: int) -> DomainClassifier:
    return DomainClassifier(w=params.new(f"{name}.w", (k, 2)), b=params.new(f"{name}.b", (1, 2)))


def encode(
    e: Value,
    weights: DisentangleWeights,
    rng: np.random.Generator | None = None,
) -> EncodeResult:
    """Two reparameterized codes from one branch input; noise is drawn iff ``rng`` is given."""
    h = ad.relu(ad.affine(e, weights.w0, weights.b0))

    def run_head(head: HeadWeights) -> tuple[Value, Value, Value]:
        mu = ad.affine(h, head.w_mu, head.b_mu)
        log_sigma = ad.clamp(
            ad.affine(h, head.w_sigma, head.b_sigma),
            -ad.LOG_SIGMA_BOUND,
            ad.LOG_SIGMA_BOUND,
        )
        if rng is not None:
            eps = rng.standard_normal(mu.shape)
            z = ad.add(mu, ad.mul_const(ad.exp(log_sigma), eps))
        else:
            z = mu
        return z, mu, log_sigma

    z1, mu1, ls1 = run_head(weights.head1)
    z2, mu2, ls2 = run_head(weights.head2)
    return EncodeResult(z1=z1, z2=z2, mu1=mu1, log_sigma1=ls1, mu2=mu2, log_sigma2=ls2)


def classify_domain(z: Value, classifier: DomainClassifier) -> Value:
    return ad.softmax_rows(ad.affine(z, classifier.w, classifier.b))


def _label_rows(m: int, label: tuple[float, float]) -> np.ndarray:
    return np.tile(np.asarray(label, dtype=np.float64), (m, 1))


def loss_cls1(
    z_spe_a: Value,
    z_spe_b: Value,
    z_spe_aug: Value,
    lam: float,
    classifier: DomainClassifier,
) -> Value:
    """Domain-classification loss over the specific codes.

    The augmented branch is supervised with both domain labels, weighted by
    the mixing coefficient and its complement.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    p_a = classify_domain(z_spe_a, classifier)
    p_b = classify_domain(z_spe_b, classifier)
    p_aug = classify_domain(z_spe_aug, classifier)
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
    classifier: DomainClassifier,
) -> Value:
    """KL pressure toward domain indistinguishability on independent/shared codes."""
    total = None
    for z in (z_ind_a, z_ind_b, z_sha_aug):
        p = classify_domain(z, classifier)
        term = ad.kl_div(_label_rows(z.shape[0], LABEL_UNIFORM), p)
        total = term if total is None else ad.add(total, term)
    return ad.mul_const(total, 1.0 / 3.0)
