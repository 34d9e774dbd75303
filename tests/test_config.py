"""Tests for the key = value config-file parser.

The README's own config example is the oracle for comment handling: it
lists every default with trailing ``# ...`` notes and must parse to the
defaults.
"""

import pytest

from dualrec.config import VARIANTS, ConfigError, RunConfig, config_lines, parse_fields
from readme import readme_block

NON_FINITE_FIELDS = ("mixup_alpha", "mu1", "mu2", "gamma", "lr", "init_std", "fixed_lambda")


class TestParseConfigText:
    def test_readme_example_parses_to_defaults(self):
        cfg = parse_fields(RunConfig, readme_block("Run config"))
        assert cfg.fixed_lambda is None
        assert cfg.fusion == "attention"
        assert cfg == RunConfig()

    def test_trailing_comment_is_stripped(self):
        cfg = parse_fields(RunConfig, "fusion = concat  # attention | concat | sum\nk = 8 # width")
        assert cfg.fusion == "concat" and cfg.k == 8

    def test_commented_out_value_is_empty(self):
        with pytest.raises(ConfigError):
            parse_fields(RunConfig, "k =  # no value")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_fields(RunConfig, "depth = 3")

    def test_config_lines_roundtrip(self):
        cfg = RunConfig(k=8, fusion="sum", fixed_lambda=0.25, alternating=True)
        assert parse_fields(RunConfig, "\n".join(config_lines(cfg))) == cfg


class TestValidate:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", NON_FINITE_FIELDS)
    def test_non_finite_float_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            parse_fields(RunConfig, f"{field} = {value}")

    def test_negative_init_std_rejected(self):
        with pytest.raises(ConfigError, match="init_std"):
            parse_fields(RunConfig, "init_std = -1")

    def test_zero_init_std_accepted(self):
        assert parse_fields(RunConfig, "init_std = 0").init_std == 0.0

    def test_zero_eval_threads_rejected(self):
        with pytest.raises(ConfigError, match="eval_threads"):
            parse_fields(RunConfig, "eval_threads = 0")

    @pytest.mark.parametrize("field", ["variant", "fusion"])
    def test_unknown_name_rejected(self, field):
        with pytest.raises(ConfigError, match="'nope'"):
            parse_fields(RunConfig, f"{field} = nope")


class TestVariants:
    def test_component_lists(self):
        # names in ablate order, each with the codes its user towers fuse
        assert list(VARIANTS.items()) == [
            ("full", ("spe", "ind", "sha")),
            ("fixed_lambda", ("spe", "ind", "sha")),
            ("base", ()),
            ("elbo", ("spe", "ind", "sha")),
            ("wo_sha", ("spe", "ind")),
            ("wo_spe", ("ind", "sha")),
            ("wo_ind", ("spe", "sha")),
            ("transfer_ind", ("spe", "ind", "sha", "ind_other")),
        ]
