"""Synthetic two-domain interaction generator with planted latent factors.

Each user carries three kinds of preference signal: a shared factor that
drives items in both domains through aligned projections, a per-domain
specific factor, and an independent factor that reaches both domains only
through a different random orthogonal projection per domain. Interaction
probabilities are sigmoids of the summed affinities, with the bias per
domain calibrated so the expected interaction rate matches the requested
one: a safeguarded Newton iteration brackets the bias in a few sweeps over
the logits (6 per domain on the default spec, against 55-56 for the
bisection), then a replay of an 80-step bisection on [-30, 30] that
evaluates only midpoints inside that bracket returns the bisection's exact
bits. A domain's logits are built and turned into probabilities in place,
and its hits are drawn in row blocks, so it holds at most two full-size
float arrays, freed before the next domain starts: a 4,000-user spec with
6,000 and 4,500 items peaks at 427 MB RSS. The generated hits then
go through the same min-count filter and alignment as real data. Their codes
are generator indices: a user's code is their generator row, the same in
both domains, so the users that alignment keeps are generator rows.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .config import ConfigError
from .data import DatasetError, InteractionSet, align_common_users, binarize_and_filter


@dataclass
class SyntheticSpec:
    num_users: int = 500
    num_items_a: int = 800
    num_items_b: int = 600
    latent_dim: int = 8
    shared_strength: float = 3.0
    specific_strength: float = 0.8
    independent_strength: float = 0.8
    rate_a: float = 0.025
    rate_b: float = 0.018
    min_count: int = 5
    seed: int = 0

    def validate(self) -> None:
        if min(self.num_users, self.num_items_a, self.num_items_b, self.latent_dim) <= 0:
            raise ConfigError("counts and latent_dim must be positive")
        strengths = (self.shared_strength, self.specific_strength, self.independent_strength)
        if not all(math.isfinite(s) and s >= 0 for s in strengths):
            raise ConfigError("strengths must be finite and >= 0")
        for rate in (self.rate_a, self.rate_b):
            if not 0.0 < rate < 1.0:
                raise ConfigError("interaction rates must lie in (0, 1)")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


def _random_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def _unit_rows(m: np.ndarray) -> np.ndarray:
    # User factors are directions only: unit rows keep the expected degree
    # uniform across users, so min-count filtering does not select a dense
    # core whose sparse domain is no longer sparse.
    return m / np.linalg.norm(m, axis=1, keepdims=True)


# Sweeps the Newton phase of _calibrate_bias may spend before the replay.
_NEWTON_SWEEPS = 12
# The calibrated bias lies in [-_BIAS_BOUND, _BIAS_BOUND].
_BIAS_BOUND = 30.0
# Rows of uniform draws made at once when the hits are drawn.
_DRAW_ROWS = 256


def _calibrate_bias(logits: np.ndarray, rate: float) -> float:
    """The bias b that an 80-step bisection of mean(sigmoid(logits + b)) == rate
    on [-30, 30] returns, found in far fewer sweeps over the logits.

    The bisection sets lo = mid while the mean at mid is below rate and
    hi = mid otherwise, and stops once mid rounds to an end of the bracket
    (lo and hi are then adjacent floats). Its result is found in two phases.

    1. A safeguarded Newton iteration (rtsafe, Numerical Recipes 3rd ed.,
       section 9.4) solves logit(mean) == logit(rate), with the slope
       mean(p * (1 - p)) taken from the same sweep. It keeps a bracket
       (below, above) of evaluated points, mean(below) < rate <= mean(above),
       starting from (-30, 30). It bisects the bracket when a step leaves
       it, is not finite, or is not under half the step before last. A step
       that does not move b becomes a nudge toward the root of one ulp,
       doubled on each consecutive nudge, which crosses a run of equal
       means in a few sweeps. It stops once below and above are adjacent
       floats or after _NEWTON_SWEEPS sweeps.
    2. The bisection is replayed step by step: a midpoint at or below
       `below` sets lo and one at or above `above` sets hi without a sweep;
       only a midpoint strictly inside the bracket is evaluated.

    The replay follows the bisection's own path, so it returns the
    bisection's bits, assuming the computed mean is non-decreasing in b
    between evaluated points. logits + b and the fixed summation order of
    mean keep that order, so the assumption rests on expit being
    non-decreasing in floating point. The replay evaluates a subset of the
    bisection's midpoints, so the sweeps total at most _NEWTON_SWEEPS plus
    the bisection's own count.
    """
    buf = np.empty(np.shape(logits), np.result_type(logits, 0.0))

    def sweep(b: float) -> np.ndarray:
        return expit(np.add(logits, b, out=buf), out=buf)

    below, above = -_BIAS_BOUND, _BIAS_BOUND
    target = math.log(rate) - math.log1p(-rate)
    b, step_last, step_before, stalls = 0.0, above - below, above - below, 0
    for _ in range(_NEWTON_SWEEPS):
        p = sweep(b)
        mean = float(p.mean())
        if mean < rate:
            below = b
        else:
            above = b
        if math.nextafter(below, above) == above:
            break
        slope = mean - float(np.vdot(p, p)) / p.size  # mean(p * (1 - p)), no temporary
        step = math.nan
        if 0.0 < mean < 1.0 and slope > 0.0:
            logit = math.log(mean) - math.log1p(-mean)
            step = (target - logit) * mean * (1.0 - mean) / slope
        if b + step == b:
            toward = 1.0 if mean < rate else -1.0
            step = toward * math.ulp(b) * 2.0 ** stalls
            stalls += 1
        else:
            stalls = 0
            if abs(step) > 0.5 * abs(step_before):
                step = math.nan
        nxt = b + step
        if not below < nxt < above:
            nxt = 0.5 * (below + above)
        b, step_last, step_before = nxt, nxt - b, step_last

    lo, hi = -_BIAS_BOUND, _BIAS_BOUND
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if mid <= below or (mid < above and sweep(mid).mean() < rate):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _check_reachable(logits: np.ndarray, rate: float, bias: float, domain: str) -> None:
    """Raise ConfigError when ``bias`` sits at an end of the bracket because
    no bias inside it reaches ``rate``.

    The bisection then returns that end (or its neighbour float), and the
    mean there is still on the wrong side of the rate. A bias away from the
    ends costs no sweep.
    """
    if abs(bias) < math.nextafter(_BIAS_BOUND, 0.0):
        return
    end = math.copysign(_BIAS_BOUND, bias)
    reached = float(expit(logits + end).mean())
    missed = reached > rate if end < 0 else reached < rate
    if missed:
        raise ConfigError(
            f"domain {domain}: rate_{domain} = {rate:g} is out of reach; "
            f"the bias bracket end {end:+g} gives rate {reached:.6g}"
        )


def _domain_logits(
    spec: SyntheticSpec,
    rng: np.random.Generator,
    shared: np.ndarray,
    specific: np.ndarray,
    independent: np.ndarray,
    num_items: int,
) -> np.ndarray:
    d = spec.latent_dim
    q_sha = rng.standard_normal((num_items, d)) / np.sqrt(d)
    q_spe = rng.standard_normal((num_items, d)) / np.sqrt(d)
    q_ind = rng.standard_normal((num_items, d)) / np.sqrt(d)
    proj = _random_orthogonal(d, rng)
    # in place: one full-size temporary besides the logits
    logits = shared @ q_sha.T
    logits *= spec.shared_strength
    term = np.matmul(specific, q_spe.T)
    logits += np.multiply(spec.specific_strength, term, out=term)
    np.matmul(independent @ proj, q_ind.T, out=term)
    logits += np.multiply(spec.independent_strength, term, out=term)
    return logits


def generate_synthetic(spec: SyntheticSpec) -> tuple[InteractionSet, InteractionSet]:
    """Generate aligned, filtered two-domain interaction sets.

    Raises ConfigError when a domain's requested rate lies outside what a
    bias in [-30, 30] can reach, and MemoryError before any draw when an
    array it draws would have more bytes than an address space holds.
    """
    spec.validate()
    rng = np.random.default_rng([spec.seed, 100])
    d = spec.latent_dim
    for rows, cols in ((spec.num_users, d), (spec.num_items_a, d), (spec.num_items_b, d),
                       (d, d), (spec.num_users, spec.num_items_a),
                       (spec.num_users, spec.num_items_b)):
        if rows * cols * 8 > sys.maxsize:  # numpy would raise a ValueError instead
            raise MemoryError(f"a float64 array of shape {(rows, cols)} exceeds the address space")
    shared = _unit_rows(rng.standard_normal((spec.num_users, d)))
    independent = _unit_rows(rng.standard_normal((spec.num_users, d)))
    specific_a = _unit_rows(rng.standard_normal((spec.num_users, d)))
    specific_b = _unit_rows(rng.standard_normal((spec.num_users, d)))

    encoded = []
    for domain, specific, num_items, rate in (
        ("a", specific_a, spec.num_items_a, spec.rate_a),
        ("b", specific_b, spec.num_items_b, spec.rate_b),
    ):
        logits = _domain_logits(spec, rng, shared, specific, independent, num_items)
        bias = _calibrate_bias(logits, rate)
        _check_reachable(logits, rate, bias, domain)
        prob = expit(np.add(logits, bias, out=logits), out=logits)
        # row blocks of uniforms read the PCG64 stream as one full-size draw does
        hits = np.empty(prob.shape, dtype=bool)
        for start in range(0, len(prob), _DRAW_ROWS):
            rows = slice(start, start + _DRAW_ROWS)
            np.less(rng.random(prob[rows].shape), prob[rows], out=hits[rows])
        encoded.append(np.nonzero(hits))
        del logits, prob, hits  # domain B must not build on top of domain A's arrays

    try:
        (set_a, users_a), (set_b, users_b) = (
            binarize_and_filter(users, items, min_count=spec.min_count) for users, items in encoded
        )
        set_a, set_b, _ = align_common_users(set_a, users_a, set_b, users_b)
        return set_a, set_b
    except DatasetError as exc:
        raise DatasetError(f"synthetic spec produced unusable data: {exc}") from exc
