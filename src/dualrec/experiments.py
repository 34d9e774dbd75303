"""Ablation and hyperparameter-sweep drivers.

Every run in a table shares the same frozen splits and candidate lists, so
rows differ only in the model under test.
"""

from __future__ import annotations

from dataclasses import replace

from .config import SWEEPABLE, VARIANTS, ConfigError, RunConfig, parse_field
from .data import SplitDataset
from .evaluation import EvalReport, evaluate_model
from .training import train_model

ABLATION_HEADER = "variant\thr_a\tndcg_a\thr_b\tndcg_b"


def _train_and_evaluate(
    split_a: SplitDataset, split_b: SplitDataset, config: RunConfig
) -> EvalReport:
    return evaluate_model(train_model(split_a, split_b, config).model, split_a, split_b)


def run_variant(
    tag: str,
    split_a: SplitDataset,
    split_b: SplitDataset,
    config: RunConfig,
) -> EvalReport:
    """Train and evaluate one ablation variant on shared splits."""
    return _train_and_evaluate(split_a, split_b, replace(config, variant=tag))


def _metric_row(tag: str, report: EvalReport) -> dict:
    return {
        "tag": tag,
        "hr_a": report.domain_a.hr,
        "ndcg_a": report.domain_a.ndcg,
        "hr_b": report.domain_b.hr,
        "ndcg_b": report.domain_b.ndcg,
    }


def _table_text(header: str, rows: list[dict]) -> str:
    lines = [header]
    for row in rows:
        lines.append(
            "%s\t%.6f\t%.6f\t%.6f\t%.6f"
            % (row["tag"], row["hr_a"], row["ndcg_a"], row["hr_b"], row["ndcg_b"])
        )
    return "\n".join(lines) + "\n"


def ablate(
    split_a: SplitDataset,
    split_b: SplitDataset,
    config: RunConfig,
    variants: tuple[str, ...] = VARIANTS,
) -> tuple[list[dict], str]:
    """Train every variant on identical data; returns rows and a TSV table."""
    rows = [_metric_row(tag, run_variant(tag, split_a, split_b, config)) for tag in variants]
    return rows, _table_text(ABLATION_HEADER, rows)


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
    # every grid value is checked before the first model trains
    configs = [replace(config, **{field: parse_field(RunConfig, field, str(v))}) for v in values]
    for cfg in configs:
        cfg.validate()
    rows = [
        _metric_row(str(getattr(cfg, field)), _train_and_evaluate(split_a, split_b, cfg))
        for cfg in configs
    ]
    header = f"{param}\thr_a\tndcg_a\thr_b\tndcg_b"
    return rows, _table_text(header, rows)
