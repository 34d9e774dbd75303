"""Ablation and hyperparameter-sweep drivers.

Every run in a table shares the same frozen splits and candidate lists, so
rows differ only in the model under test.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .config import SWEEPABLE, VARIANTS, ConfigError, RunConfig
from .data import SplitDataset
from .evaluation import EvalReport, evaluate_model
from .training import TrainResult, train_model

ABLATION_HEADER = "variant\thr_a\tndcg_a\thr_b\tndcg_b"

# sweep parameter name -> RunConfig field
_SWEEP_FIELDS = {
    "l": "l",
    "alpha": "mixup_alpha",
    "mu1": "mu1",
    "mu2": "mu2",
    "lr": "lr",
    "fusion": "fusion",
}


@dataclass
class RunOutcome:
    tag: str
    report: EvalReport
    result: TrainResult


def run_variant(
    tag: str,
    split_a: SplitDataset,
    split_b: SplitDataset,
    config: RunConfig,
) -> RunOutcome:
    """Train and evaluate one ablation variant on shared splits."""
    cfg = replace(config, variant=tag)
    cfg.validate()
    result = train_model(split_a, split_b, cfg)
    report = evaluate_model(result.model, split_a, split_b)
    return RunOutcome(tag=tag, report=report, result=result)


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
    rows = []
    for tag in variants:
        outcome = run_variant(tag, split_a, split_b, config)
        rows.append(_metric_row(tag, outcome.report))
    return rows, _table_text(ABLATION_HEADER, rows)


def _coerce_sweep_value(param: str, value):
    if param == "fusion":
        return str(value)
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"{param} must be a number, got {value!r}") from None
    if param == "l":
        if not number.is_integer():  # false for nan and inf too
            raise ConfigError(f"l must be an integer, got {value!r}")
        return int(number)
    return number


def sweep(
    param: str,
    values: list,
    split_a: SplitDataset,
    split_b: SplitDataset,
    config: RunConfig,
) -> tuple[list[dict], str]:
    """Train one model per grid value of a single hyperparameter."""
    if param not in SWEEPABLE:
        raise ConfigError(f"unknown sweep parameter {param!r}; choose from {SWEEPABLE}")
    if not values:
        raise ConfigError("sweep requires at least one grid value")
    field = _SWEEP_FIELDS[param]
    # every grid value is checked before the first model trains
    configs = [replace(config, **{field: _coerce_sweep_value(param, v)}) for v in values]
    for cfg in configs:
        cfg.validate()
    rows = []
    for cfg in configs:
        result = train_model(split_a, split_b, cfg)
        report = evaluate_model(result.model, split_a, split_b)
        rows.append(_metric_row(str(getattr(cfg, field)), report))
    header = f"{param}\thr_a\tndcg_a\thr_b\tndcg_b"
    return rows, _table_text(header, rows)
