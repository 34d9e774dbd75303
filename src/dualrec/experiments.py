"""Ablation and hyperparameter-sweep drivers.

Both are one sweep over a ``RunConfig`` field: ``ablate`` over ``variant``,
in the order of ``config.VARIANTS``, and ``sweep`` over the field that a
``SWEEPABLE`` parameter names. Every config, and its ``top_k`` against the
candidates of each split, is checked before the first model trains. Every
run in a table shares the same frozen splits and candidate lists, so rows
differ only in the model under test.
"""

from __future__ import annotations

from dataclasses import replace

from .config import SWEEPABLE, VARIANTS, ConfigError, RunConfig, parse_field
from .data import SplitDataset
from .evaluation import check_top_k, evaluate_model
from .training import train_model


def _sweep_field(
    column: str,
    field: str,
    values,
    split_a: SplitDataset,
    split_b: SplitDataset,
    config: RunConfig,
) -> tuple[list[dict], str]:
    """Train and evaluate one model per value of ``field``; returns rows and
    a TSV table whose first column, headed ``column``, names the value."""
    configs = [replace(config, **{field: value}) for value in values]
    for cfg in configs:
        cfg.validate()
        for split in (split_a, split_b):
            check_top_k(split, cfg.top_k)
    rows = []
    lines = [f"{column}\thr_a\tndcg_a\thr_b\tndcg_b"]
    for cfg in configs:
        report = evaluate_model(train_model(split_a, split_b, cfg).model, split_a, split_b)
        a, b = report.domain_a, report.domain_b
        tag = str(getattr(cfg, field))
        rows.append({"tag": tag, "hr_a": a.hr, "ndcg_a": a.ndcg, "hr_b": b.hr, "ndcg_b": b.ndcg})
        lines.append("%s\t%.6f\t%.6f\t%.6f\t%.6f" % (tag, a.hr, a.ndcg, b.hr, b.ndcg))
    return rows, "\n".join(lines) + "\n"


def ablate(
    split_a: SplitDataset, split_b: SplitDataset, config: RunConfig
) -> tuple[list[dict], str]:
    """Train every variant on identical data; returns rows and a TSV table."""
    return _sweep_field("variant", "variant", VARIANTS, split_a, split_b, config)


def sweep(
    param: str,
    values: list,
    split_a: SplitDataset,
    split_b: SplitDataset,
    config: RunConfig,
) -> tuple[list[dict], str]:
    """Train one model per grid value of a single hyperparameter.

    Each value is read as the config file reads the field it sets.
    """
    if param not in SWEEPABLE:
        raise ConfigError(f"unknown sweep parameter {param!r}; choose from {tuple(SWEEPABLE)}")
    if not values:
        raise ConfigError("sweep requires at least one grid value")
    field = SWEEPABLE[param]
    parsed = [parse_field(RunConfig, field, str(v)) for v in values]
    return _sweep_field(param, field, parsed, split_a, split_b, config)
