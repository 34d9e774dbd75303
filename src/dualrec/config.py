"""Run configuration and the flat key/value config-file format."""

from __future__ import annotations

from dataclasses import dataclass, fields


class ConfigError(ValueError):
    pass


VARIANTS = (
    "full",
    "fixed_lambda",
    "base",
    "elbo",
    "wo_sha",
    "wo_spe",
    "wo_ind",
    "transfer_ind",
)

FUSIONS = ("concat", "sum", "attention")

SWEEPABLE = ("l", "alpha", "mu1", "mu2", "lr", "fusion")


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
        if self.k < 1 or self.l < 1:
            raise ConfigError("k and l must be >= 1")
        if self.mixup_alpha <= 0:
            raise ConfigError("mixup_alpha must be positive")
        if self.fusion not in FUSIONS:
            raise ConfigError(f"unknown fusion strategy {self.fusion!r}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
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


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(key: str, text: str):
    text = text.strip()
    if key in ("fusion", "variant"):
        return text
    if key == "alternating":
        if text.lower() in ("true", "1", "yes"):
            return True
        if text.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {text!r}")
    if key == "fixed_lambda" and text.lower() in ("none", ""):
        return None
    int_keys = ("k", "l", "batch_size", "epochs", "neg_ratio",
                "eval_negatives", "top_k", "seed", "eval_threads")
    try:
        if key in int_keys:
            return int(text)
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def parse_config_text(text: str, base: RunConfig | None = None) -> RunConfig:
    """Parse ``key = value`` lines; unknown keys are errors."""
    cfg = base if base is not None else RunConfig()
    values = {f.name: getattr(cfg, f.name) for f in fields(RunConfig)}
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        raw = raw.partition("#")[0]  # a trailing "# ..." is a comment
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {line_no}: unknown config key {key!r}")
        values[key] = _parse_value(key, raw)
    out = RunConfig(**values)
    out.validate()
    return out


def load_config(path: str, base: RunConfig | None = None) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read(), base)


def config_lines(cfg: RunConfig) -> list[str]:
    return [f"{f.name} = {getattr(cfg, f.name)}" for f in fields(RunConfig)]
