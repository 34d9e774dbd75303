"""Ablation and hyperparameter-sweep drivers.

Both are one sweep over a ``RunConfig`` field: ``ablate`` over ``variant``,
in the order of ``config.VARIANTS``, and ``sweep`` over the field that a
``SWEEPABLE`` parameter names. Every config, and its ``top_k`` against the
candidates of each split, is checked before the first model trains. Every
run in a table shares the same frozen splits and candidate lists, so rows
differ only in the model under test. Both return each row's ``EvalReport``,
per-user ranks included, and the TSV table that is formatted from them."""

from __future__ import annotations

from dataclasses import replace

from .config import SWEEPABLE, VARIANTS, ConfigError, RunConfig, parse_field
from .data import SplitDataset
from .evaluation import EvalReport, check_top_k, evaluate_model
from .training import train_model


def _sweep_field(
    column: str,
    field: str,
    values,
    split_a: SplitDataset,
    split_b: SplitDataset,
    config: RunConfig,
) -> tuple[list[EvalReport], str]:
    """Train and evaluate one model per value of ``field``; returns the reports
    and a TSV table of them whose first column, headed ``column``, names the value."""
    configs = [replace(config, **{field: value}) for value in values]
    for cfg in configs:
        cfg.validate()
        for split in (split_a, split_b):
            check_top_k(split, cfg.top_k)
    reports = [evaluate_model(train_model(split_a, split_b, cfg).model, split_a, split_b)
               for cfg in configs]
    lines = [f"{column}\thr_a\tndcg_a\thr_b\tndcg_b"]
    for report in reports:
        a, b = report.domain_a, report.domain_b
        tag = getattr(report.config, field)
        lines.append("%s\t%.6f\t%.6f\t%.6f\t%.6f" % (tag, a.hr, a.ndcg, b.hr, b.ndcg))
    return reports, "\n".join(lines) + "\n"


def ablate(
    split_a: SplitDataset, split_b: SplitDataset, config: RunConfig
) -> tuple[list[EvalReport], str]:
    """Train every variant on identical data; returns one report per variant and a TSV table."""
    return _sweep_field("variant", "variant", VARIANTS, split_a, split_b, config)


def sweep(
    param: str,
    values: list,
    split_a: SplitDataset,
    split_b: SplitDataset,
    config: RunConfig,
) -> tuple[list[EvalReport], str]:
    """Train one model per grid value of a single hyperparameter; returns reports and a TSV table.

    Each value is read as the config file reads the field it sets.
    """
    if param not in SWEEPABLE:
        raise ConfigError(f"unknown sweep parameter {param!r}; choose from {tuple(SWEEPABLE)}")
    if not values:
        raise ConfigError("sweep requires at least one grid value")
    field = SWEEPABLE[param]
    parsed = [parse_field(RunConfig, field, str(v)) for v in values]
    return _sweep_field(param, field, parsed, split_a, split_b, config)
