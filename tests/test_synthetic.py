"""Tests for the synthetic two-domain generator.

The causal structure is checked through a correlation oracle: with a
dominant shared factor, users who look alike in one domain must look alike
in the other; with all strengths at zero the correlation vanishes.
"""

import numpy as np
import pytest

from scipy.special import expit

from dualrec import synthetic
from dualrec.config import ConfigError
from dualrec.data import DatasetError
from dualrec.synthetic import SyntheticSpec, generate_synthetic
from pairsets import items_by_user, pair_set


def to_matrix(iset):
    m = np.zeros((iset.num_users, iset.num_items))
    for u, i in pair_set(iset):
        m[u, i] = 1.0
    return m


def cross_domain_similarity(set_a, set_b):
    """Pearson correlation between user-user similarities of the domains.

    Profiles are popularity-adjusted (column means removed) so that raw item
    popularity cannot fake a correlation.
    """
    a = to_matrix(set_a)
    b = to_matrix(set_b)
    a -= a.mean(axis=0, keepdims=True)
    b -= b.mean(axis=0, keepdims=True)
    sim_a = a @ a.T
    sim_b = b @ b.T
    iu = np.triu_indices(a.shape[0], k=1)
    return np.corrcoef(sim_a[iu], sim_b[iu])[0, 1]


def small_spec(**overrides):
    base = dict(
        num_users=80,
        num_items_a=60,
        num_items_b=50,
        latent_dim=6,
        shared_strength=2.5,
        specific_strength=0.8,
        independent_strength=0.8,
        rate_a=0.2,
        rate_b=0.2,
        min_count=5,
        seed=0,
    )
    base.update(overrides)
    return SyntheticSpec(**base)


def generate_with_users(spec, monkeypatch):
    """``generate_synthetic``'s two sets and the codes of their users, which
    are generator rows, as alignment returns them."""
    kept = []
    align = synthetic.align_common_users

    def capture(*args):
        out = align(*args)
        kept.append(out[2])
        return out

    with monkeypatch.context() as m:
        m.setattr(synthetic, "align_common_users", capture)
        set_a, set_b = generate_synthetic(spec)
    return set_a, set_b, kept[0]


class TestGenerateSynthetic:
    def test_deterministic(self, monkeypatch):
        a1, b1, users1 = generate_with_users(small_spec(), monkeypatch)
        a2, b2, users2 = generate_with_users(small_spec(), monkeypatch)
        assert pair_set(a1) == pair_set(a2)
        assert pair_set(b1) == pair_set(b2)
        np.testing.assert_array_equal(users1, users2)

    def test_aligned_and_filtered(self, monkeypatch):
        a, b, users = generate_with_users(small_spec(), monkeypatch)
        assert a.num_users == b.num_users == users.size
        # users keep the generator's row order, and some rows are dropped
        assert (np.diff(users) > 0).all() and users.size < small_spec().num_users
        for iset in (a, b):
            by_user = items_by_user(iset)
            assert all(len(v) >= 5 for v in by_user.values())
            item_deg = {}
            for _, i in pair_set(iset):
                item_deg[i] = item_deg.get(i, 0) + 1
            assert all(deg >= 5 for deg in item_deg.values())

    def test_rate_calibration(self):
        spec = small_spec(num_users=200, num_items_a=200, num_items_b=200,
                          rate_a=0.1, rate_b=0.1, min_count=1)
        a, b = generate_synthetic(spec)
        # before filtering the Bernoulli rate is calibrated to 0.1; with
        # min_count=1 only empty rows/cols drop, so density stays close
        assert 0.07 < a.density < 0.14
        assert 0.07 < b.density < 0.14

    def test_shared_factor_induces_cross_domain_similarity(self):
        a, b = generate_synthetic(small_spec(shared_strength=3.0,
                                             specific_strength=0.3,
                                             independent_strength=0.3))
        assert cross_domain_similarity(a, b) > 0.05

    def test_null_model_has_no_cross_domain_similarity(self):
        spec = small_spec(shared_strength=0.0, specific_strength=0.0,
                          independent_strength=0.0)
        a, b = generate_synthetic(spec)
        assert abs(cross_domain_similarity(a, b)) < 0.05

    def test_shared_beats_null(self):
        corr_shared = cross_domain_similarity(*generate_synthetic(small_spec()))
        corr_null = cross_domain_similarity(
            *generate_synthetic(small_spec(shared_strength=0.0,
                                           specific_strength=0.0,
                                           independent_strength=0.0))
        )
        assert corr_shared > corr_null + 0.03

    def test_different_seeds_differ(self):
        a1, _ = generate_synthetic(small_spec(seed=0))
        a2, _ = generate_synthetic(small_spec(seed=1))
        assert pair_set(a1) != pair_set(a2)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic(small_spec(rate_a=0.0))
        with pytest.raises(ValueError):
            generate_synthetic(small_spec(num_users=0))
        with pytest.raises(ValueError):
            generate_synthetic(small_spec(shared_strength=-1.0))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                generate_synthetic(small_spec(independent_strength=bad))

    def test_filter_and_align_looked_up_on_module(self, monkeypatch):
        # the benchmark traces these stages by rebinding the module attributes
        calls = []

        def counting(name):
            real = getattr(synthetic, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return wrapper

        for name in ("binarize_and_filter", "align_common_users"):
            monkeypatch.setattr(synthetic, name, counting(name))
        generate_synthetic(small_spec())
        assert calls == ["binarize_and_filter"] * 2 + ["align_common_users"]

    def test_hopeless_spec_raises_generation_error(self):
        spec = small_spec(num_users=6, num_items_a=6, num_items_b=6,
                          rate_a=0.01, rate_b=0.01, min_count=5)
        with pytest.raises(DatasetError, match="synthetic spec produced unusable data: "):
            generate_synthetic(spec)

    def test_unreachable_rate_raises_config_error(self):
        # at strength 100 even a bias of -30 leaves domain A near rate 0.198
        with pytest.raises(ConfigError, match=r"domain a: rate_a = 0.025 is out of reach; "
                           r"the bias bracket end -30 gives rate 0\.198"):
            generate_synthetic(SyntheticSpec(seed=1, shared_strength=100.0))

    def test_default_spec_supports_ranking_protocol(self):
        a, b = generate_synthetic(SyntheticSpec(seed=3))
        for iset in (a, b):
            per_user = items_by_user(iset)
            max_degree = max(len(v) for v in per_user.values())
            assert iset.num_items >= 400 + max_degree + 1
        # domain B is the sparser one by construction
        assert b.density < a.density


def reference_calibrate_bias(logits, rate):
    """The bisection run for all of its 80 steps."""
    lo, hi = -30.0, 30.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if expit(logits + mid).mean() < rate:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bisection_sweeps(logits, rate):
    """Sweeps the bisection makes before its midpoint rounds to an end."""
    lo, hi = -30.0, 30.0
    for count in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return count
        if expit(logits + mid).mean() < rate:
            lo = mid
        else:
            hi = mid
    return 80


def count_sweeps(monkeypatch):
    """Count calls of ``synthetic.expit``, forwarding every argument."""
    sweeps = []

    def counting(x, *args, **kwargs):
        sweeps.append(1)
        return expit(x, *args, **kwargs)

    monkeypatch.setattr(synthetic, "expit", counting)
    return sweeps


def _stress_cases():
    rng = np.random.default_rng(11)
    cases = []
    for rate in (1e-6, 1e-4, 0.018, 0.2, 0.5, 0.9, 0.999):
        for scale in (0.1, 1.0, 5.0, 40.0):
            cases.append((f"normal-x{scale}-rate{rate}",
                          rng.standard_normal((60, 40)) * scale, rate))
        cases.append((f"1x1-rate{rate}", np.array([[0.3]]), rate))
        cases.append((f"constant-rate{rate}", np.full((20, 30), -2.0), rate))
    jitter = rng.standard_normal((10, 10)) * 0.1
    cases += [
        ("root-near+30", jitter - 29.5, 0.5),
        ("root-near-30", jitter + 29.5, 0.5),
        ("root-beyond+30", np.full((10, 10), -40.0), 0.5),
        ("root-beyond-30", np.full((10, 10), 40.0), 0.5),
    ]
    half = rng.standard_normal((30, 20))
    cases.append(("root-at-0", np.concatenate([half, -half]), 0.5))
    some_inf = rng.standard_normal((30, 20))
    some_inf[0, :5] = np.inf
    some_inf[1, :5] = -np.inf
    cases += [
        ("some-inf", some_inf, 0.1),
        ("half-+inf-half--inf", np.where(rng.random((20, 20)) < 0.5, np.inf, -np.inf), 0.3),
        ("all-+inf", np.full((5, 5), np.inf), 0.3),
        ("all--inf", np.full((5, 5), -np.inf), 0.3),
    ]
    return cases


STRESS_CASES = _stress_cases()


class TestCalibrateBias:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("rate", [0.001, 0.018, 0.025, 0.2, 0.5, 0.97])
    def test_equals_full_bisection_bitwise(self, seed, rate):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((60, 40)) * (1.0 + 3.0 * seed)
        got = synthetic._calibrate_bias(logits, rate)
        assert got == reference_calibrate_bias(logits, rate)

    def test_stops_once_the_bracket_is_adjacent(self, monkeypatch):
        sweeps = []

        def counting(x, out=None):
            sweeps.append(1)
            return expit(x, out=out)

        monkeypatch.setattr(synthetic, "expit", counting)
        logits = np.random.default_rng(0).standard_normal((50, 30))
        bias = synthetic._calibrate_bias(logits, 0.025)
        assert bias == reference_calibrate_bias(logits, 0.025)
        assert len(sweeps) < 80

    @pytest.mark.parametrize("name,logits,rate", STRESS_CASES,
                             ids=[case[0] for case in STRESS_CASES])
    def test_stress_equals_full_bisection_bitwise(self, monkeypatch, name, logits, rate):
        sweeps = count_sweeps(monkeypatch)
        got = synthetic._calibrate_bias(logits, rate)
        assert got == reference_calibrate_bias(logits, rate)
        assert len(sweeps) <= synthetic._NEWTON_SWEEPS + bisection_sweeps(logits, rate)

    def test_random_shapes_scales_and_rates(self, monkeypatch):
        sweeps = count_sweeps(monkeypatch)
        rng = np.random.default_rng(2024)
        for _ in range(200):
            shape = tuple(int(n) for n in rng.integers(1, 50, size=2))
            logits = rng.normal(rng.normal(0.0, 5.0), 10 ** rng.uniform(-2, 1.7), shape)
            rate = float(10 ** rng.uniform(-6, np.log10(0.999)))
            rate = max(1 - rate, 1e-6) if rng.random() < 0.3 else rate
            sweeps.clear()
            got = synthetic._calibrate_bias(logits, rate)
            assert got == reference_calibrate_bias(logits, rate), (shape, rate)
            assert len(sweeps) <= synthetic._NEWTON_SWEEPS + bisection_sweeps(logits, rate)

    def test_root_at_zero_case_reaches_the_80_step_fallback(self):
        # the stress table's root-at-0 case covers the 0.5 * (lo + hi) return
        _, logits, rate = next(case for case in STRESS_CASES if case[0] == "root-at-0")
        assert bisection_sweeps(logits, rate) == 80

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_default_spec_takes_at_most_12_sweeps_per_domain(self, monkeypatch, seed):
        sweeps = count_sweeps(monkeypatch)
        real = synthetic._calibrate_bias
        per_domain = []

        def calibrate(logits, rate):
            start = len(sweeps)
            bias = real(logits, rate)
            per_domain.append(len(sweeps) - start)
            assert bias == reference_calibrate_bias(logits, rate)
            return bias

        monkeypatch.setattr(synthetic, "_calibrate_bias", calibrate)
        generate_synthetic(SyntheticSpec(seed=seed))
        assert len(per_domain) == 2
        assert max(per_domain) <= 12
