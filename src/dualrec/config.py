"""Run configuration and the flat key/value config-file format."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import get_args, get_type_hints


class ConfigError(ValueError):
    pass


# The one table of model variants, in the order ``ablate`` trains them: each
# name maps to the codes its user towers fuse, per domain. "spe" and "ind"
# are the domain's specific and independent codes, "sha" is the shared code
# and "ind_other" the other domain's independent code (the transfer_ind
# probe). An empty tuple (base) puts the towers on the raw graph embeddings.
VARIANTS: dict[str, tuple[str, ...]] = {
    "full": ("spe", "ind", "sha"),
    "fixed_lambda": ("spe", "ind", "sha"),
    "base": (),
    "elbo": ("spe", "ind", "sha"),
    "wo_sha": ("spe", "ind"),
    "wo_spe": ("ind", "sha"),
    "wo_ind": ("spe", "sha"),
    "transfer_ind": ("spe", "ind", "sha", "ind_other"),
}

FUSIONS = ("concat", "sum", "attention")

# sweep parameter name -> RunConfig field
SWEEPABLE = {"l": "l", "alpha": "mixup_alpha", "mu1": "mu1", "mu2": "mu2", "lr": "lr",
             "fusion": "fusion"}


@dataclass
class RunConfig:
    k: int = 64
    l: int = 2
    mixup_alpha: float = 1.0
    mu1: float = 1.0
    mu2: float = 1.0
    gamma: float = 1e-4
    lr: float = 0.001
    batch_size: int = 1024
    epochs: int = 100
    neg_ratio: int = 7
    eval_negatives: int = 999
    top_k: int = 10
    fusion: str = "attention"
    variant: str = "full"
    seed: int = 0
    init_std: float = 0.01
    fixed_lambda: float | None = None
    alternating: bool = False
    eval_threads: int = 1

    def validate(self) -> None:
        for name in ("mixup_alpha", "mu1", "mu2", "gamma", "lr", "init_std"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.init_std < 0:
            raise ConfigError("init_std must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.k < 1 or self.l < 1:
            raise ConfigError("k and l must be >= 1")
        if self.mixup_alpha <= 0:
            raise ConfigError("mixup_alpha must be positive")
        if self.fusion not in FUSIONS:
            raise ConfigError(f"unknown fusion strategy {self.fusion!r}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        # the range test is false for nan too
        if self.fixed_lambda is not None and not 0.0 <= self.fixed_lambda <= 1.0:
            raise ConfigError("fixed_lambda must lie in [0, 1]")
        if min(self.batch_size, self.epochs, self.neg_ratio, self.top_k) < 1:
            raise ConfigError("batch_size, epochs, neg_ratio, top_k must be >= 1")
        if self.eval_negatives < self.top_k:
            raise ConfigError("eval_negatives must be >= top_k")
        if self.gamma < 0 or self.lr <= 0:
            raise ConfigError("gamma must be >= 0 and lr positive")
        if self.eval_threads < 1:
            raise ConfigError("eval_threads must be >= 1")


def _convert(kind, text: str, where: str):
    """``text`` as a value of the annotated type ``kind``."""
    if kind is bool:
        if text.lower() in ("true", "1", "yes"):
            return True
        if text.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{where}: expected a boolean, got {text!r}")
    if type(None) in get_args(kind):  # an optional number: "none" or empty is None
        if text.lower() in ("none", ""):
            return None
        (kind,) = set(get_args(kind)) - {type(None)}
    try:
        return kind(text)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_key_values(text: str, types: dict[str, object] | None = None) -> dict[str, object]:
    """Parse ``key = value`` lines: the run config, the synthetic spec and artifact meta.

    Blank lines and lines starting with ``#`` are skipped, and a ``#`` after
    the ``=`` starts a comment. Without ``types`` every value stays a string.
    With it, a key outside ``types`` is an error and each value is converted
    to its type (``bool``, ``int``, ``float``, ``str`` or an optional one).
    Every error raises ConfigError.
    """
    out: dict[str, object] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, raw = line.partition("=")
        if not eq:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {line!r}")
        key, raw = key.strip(), raw.partition("#")[0].strip()
        if types is None:
            out[key] = raw
        elif key not in types:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        else:
            out[key] = _convert(types[key], raw, f"line {line_no}: {key}")
    return out


def parse_fields(cls, text: str):
    """A validated instance of dataclass ``cls`` with the fields ``text`` sets.

    The rest keep their defaults; the field annotations give the value types.
    """
    value = cls(**parse_key_values(text, get_type_hints(cls)))
    value.validate()
    return value


def parse_field(cls, name: str, text: str):
    """``text`` read as field ``name`` of dataclass ``cls``, as a config file reads it."""
    return _convert(get_type_hints(cls)[name], text, name)


def config_lines(cfg: RunConfig) -> list[str]:
    return [f"{f.name} = {getattr(cfg, f.name)}" for f in fields(RunConfig)]
