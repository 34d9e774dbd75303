"""Command-line entry point.

Exit codes are part of the contract: 0 success, 5 selfcheck failure, and for
a failed command the code that ``FAILURES``, the one map from a failure to
its exit code and stderr prefix, gives it: 1 usage or config error (or an OS
or memory error, such as an unwritable output or an allocation that cannot
be met), 2 data or alignment error, 3 missing or malformed artifact, 4
numerical abort during training.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from dataclasses import fields, replace

from .config import ConfigError, RunConfig, parse_fields
from .data import (
    ArtifactError,
    DatasetError,
    SplitDataset,
    atomic_write,
    freeze_splits,
    prepare_datasets,
    read_split_artifact,
    read_text,
    write_split_artifact,
)
from .evaluation import check_top_k, evaluate_model
from .experiments import ablate, sweep
from .graph import build_bipartite_adjacency
from .model import DOMAINS, load_model, save_model
from .selfcheck import run_selfcheck
from .training import NumericalAbortError, keep_freed_heap, train_model

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ARTIFACT = 3
EXIT_NUMERIC = 4
EXIT_SELFCHECK = 5


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we pin usage to 1
        raise _UsageError(message)


# (exception class, stderr prefix, exit code) of each failure, matched in
# order, so that ArtifactError comes before its base class DatasetError
FAILURES = (
    (_UsageError, "usage error", EXIT_USAGE),
    (ConfigError, "config error", EXIT_USAGE),
    (ArtifactError, "artifact error", EXIT_ARTIFACT),
    (DatasetError, "data error", EXIT_DATA),
    (NumericalAbortError, "numerical abort", EXIT_NUMERIC),
    (OSError, "os error", EXIT_USAGE),
    (MemoryError, "out of memory", EXIT_USAGE),
)


def _load_fields(cls, path: str | None, what: str):
    """``cls`` as set by the ``key = value`` file at ``path``, validated; defaults without one."""
    if not path:
        return cls()
    if not os.path.isfile(path):
        raise ArtifactError(f"{what} file not found: {path}")
    return parse_fields(cls, read_text(path, ConfigError))


def _with_flags(value, args):
    """``value`` with every given flag whose ``dest`` names one of its fields, validated."""
    given = {f.name: getattr(args, f.name, None) for f in fields(value)}
    value = replace(value, **{name: v for name, v in given.items() if v is not None})
    value.validate()
    return value


def _load_run_config(args) -> RunConfig:
    return _with_flags(_load_fields(RunConfig, args.config, "config"), args)


def _load_data_dir(data_dir: str) -> tuple[SplitDataset, SplitDataset]:
    split_a, split_b = (
        read_split_artifact(os.path.join(data_dir, f"domain_{tag}"))[0] for tag in DOMAINS
    )
    if split_a.train.num_users != split_b.train.num_users:
        raise ArtifactError("domain artifacts disagree on the aligned user count")
    return split_a, split_b


def _check_out_dir(path: str, is_dir: bool = False) -> None:
    """Fail before any work when ``--out`` has no directory to go in: an
    ``--out`` file's directory must exist, and the nearest existing ancestor
    of an ``--out`` directory (``is_dir``, made on demand) must be one."""
    nearest = os.path.abspath(path if is_dir else os.path.dirname(path))
    while is_dir and not os.path.lexists(nearest):
        nearest = os.path.dirname(nearest)
    if not os.path.isdir(nearest):
        raise FileNotFoundError(errno.ENOENT, "output directory not found", nearest)


def _write_prepared(out_dir: str, split_a, split_b, meta: dict) -> None:
    """Write both domains' artifacts, then print their summary."""
    # write_split_artifact adds each domain's own num_items to the meta
    for tag, split in zip(DOMAINS, (split_a, split_b)):
        write_split_artifact(os.path.join(out_dir, f"domain_{tag}"), split, meta)
    print(f"users = {split_a.train.num_users}")
    for tag, split in zip(DOMAINS, (split_a, split_b)):
        print(
            f"domain_{tag}: items = {split.train.num_items}, "
            f"train = {split.train.indices.size}, test = {len(split.test)}"
        )
    print(f"artifacts written to {out_dir}")


def _cmd_prepare(args) -> int:
    _check_out_dir(args.out, is_dir=True)
    for path in (args.domain_a, args.domain_b):
        if not os.path.isfile(path):
            raise DatasetError(f"input ratings file not found: {path}")
    split_a, split_b, meta = prepare_datasets(
        args.domain_a,
        args.domain_b,
        min_count=args.min_count,
        seed=args.seed,
        n_candidates=args.candidates,
    )
    _write_prepared(args.out, split_a, split_b, meta)
    return EXIT_OK


def _cmd_synth(args) -> int:
    # imported here: only synth needs scipy.special, which every command would load
    from .synthetic import SyntheticSpec, generate_synthetic

    _check_out_dir(args.out, is_dir=True)
    spec = _with_flags(_load_fields(SyntheticSpec, args.spec, "spec"), args)
    set_a, set_b = generate_synthetic(spec)
    split_a, split_b = freeze_splits(set_a, set_b, spec.seed, args.candidates)
    meta = {
        "num_users": set_a.num_users,
        "seed": spec.seed,
        "n_candidates": args.candidates,
        "source": "synthetic",
    }
    _write_prepared(args.out, split_a, split_b, meta)
    return EXIT_OK


def _cmd_train(args) -> int:
    keep_freed_heap()
    _check_out_dir(args.out, is_dir=True)
    cfg = _load_run_config(args)
    split_a, split_b = _load_data_dir(args.data)
    for split in (split_a, split_b):
        check_top_k(split, cfg.top_k)
    result = train_model(split_a, split_b, cfg)
    os.makedirs(args.out, exist_ok=True)  # after training: an abort leaves no run directory
    save_model(os.path.join(args.out, "model.npz"), result.model)
    atomic_write(os.path.join(args.out, "train.log"), "\n".join(result.log_lines) + "\n")
    print(result.log_lines[0])
    print(result.log_lines[-1])
    print(f"model written to {os.path.join(args.out, 'model.npz')}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    _check_out_dir(args.out)
    split_a, split_b = _load_data_dir(args.data)
    adjacency_a = build_bipartite_adjacency(split_a.train)
    adjacency_b = build_bipartite_adjacency(split_b.train)
    model = load_model(args.model, adjacency_a, adjacency_b)
    model.config = _with_flags(model.config, args)
    try:
        report = evaluate_model(model, split_a, split_b)
    except ArtifactError as exc:
        raise ArtifactError(f"model file {args.model}: {exc}") from None
    atomic_write(args.out, report.to_text())
    print(f"hr_a = {report.domain_a.hr:.6f}, ndcg_a = {report.domain_a.ndcg:.6f}")
    print(f"hr_b = {report.domain_b.hr:.6f}, ndcg_b = {report.domain_b.ndcg:.6f}")
    print(f"report written to {args.out}")
    return EXIT_OK


def _cmd_ablate(args) -> int:
    keep_freed_heap()
    _check_out_dir(args.out)
    cfg = _load_run_config(args)
    split_a, split_b = _load_data_dir(args.data)
    _, table = ablate(split_a, split_b, cfg)
    atomic_write(args.out, table)
    print(table, end="")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    keep_freed_heap()
    _check_out_dir(args.out)
    cfg = _load_run_config(args)
    split_a, split_b = _load_data_dir(args.data)
    values = [v for v in (piece.strip() for piece in args.grid.split(",")) if v]
    _, table = sweep(args.param, values, split_a, split_b, cfg)
    atomic_write(args.out, table)
    print(table, end="")
    return EXIT_OK


def _cmd_selfcheck(args) -> int:
    ok, lines = run_selfcheck()
    print("\n".join(lines))
    return EXIT_OK if ok else EXIT_SELFCHECK


def _add_config_flags(sub, variant: bool = True) -> None:
    sub.add_argument("--config", help="path to a key = value config file")
    sub.add_argument("--seed", type=int, help="override the config seed")
    sub.add_argument("--epochs", type=int, help="override the epoch count")
    sub.add_argument("--k", type=int, help="override the embedding width")
    sub.add_argument("--l", type=int, help="override the propagation depth")
    sub.add_argument("--lr", type=float, help="override the learning rate")
    sub.add_argument("--batch-size", type=int, dest="batch_size")
    if variant:  # ablate trains every variant
        sub.add_argument("--variant", help="model variant tag")
    sub.add_argument("--fusion", help="fusion strategy: concat, sum, attention")
    sub.add_argument("--alternating", action="store_true", default=None,
                     help="alternate domain updates")


def build_parser() -> _Parser:
    parser = _Parser(prog="dualrec", description="dual-target cross-domain recommender")
    commands = parser.add_subparsers(dest="command")

    prepare = commands.add_parser("prepare", help="preprocess two rating files")
    prepare.add_argument("--domain-a", required=True, dest="domain_a")
    prepare.add_argument("--domain-b", required=True, dest="domain_b")
    prepare.add_argument("--out", required=True)
    prepare.add_argument("--min-count", type=int, default=5, dest="min_count")
    prepare.add_argument("--candidates", type=int, default=999)
    prepare.add_argument("--seed", type=int, default=0)
    prepare.set_defaults(func=_cmd_prepare)

    synth = commands.add_parser("synth", help="generate planted-factor data")
    synth.add_argument("--out", required=True)
    synth.add_argument("--spec", help="path to a key = value generator spec")
    synth.add_argument("--seed", type=int, default=None)
    synth.add_argument("--candidates", type=int, default=400)
    synth.set_defaults(func=_cmd_synth)

    train = commands.add_parser("train", help="train a model on prepared data")
    train.add_argument("--data", required=True)
    train.add_argument("--out", required=True)
    _add_config_flags(train)
    train.set_defaults(func=_cmd_train)

    evaluate = commands.add_parser("eval", help="rank held-out items with a trained model")
    evaluate.add_argument("--data", required=True)
    evaluate.add_argument("--model", required=True)
    evaluate.add_argument("--out", required=True)
    evaluate.add_argument("--threads", type=int, dest="eval_threads")
    evaluate.set_defaults(func=_cmd_eval)

    ablate_cmd = commands.add_parser("ablate", help="train and evaluate every variant")
    ablate_cmd.add_argument("--data", required=True)
    ablate_cmd.add_argument("--out", required=True)
    _add_config_flags(ablate_cmd, variant=False)
    ablate_cmd.set_defaults(func=_cmd_ablate)

    sweep_cmd = commands.add_parser("sweep", help="grid over one hyperparameter")
    sweep_cmd.add_argument("--data", required=True)
    sweep_cmd.add_argument("--param", required=True)
    sweep_cmd.add_argument("--grid", required=True, help="comma-separated values")
    sweep_cmd.add_argument("--out", required=True)
    _add_config_flags(sweep_cmd)
    sweep_cmd.set_defaults(func=_cmd_sweep)

    selfcheck = commands.add_parser("selfcheck", help="run built-in integrity checks")
    selfcheck.set_defaults(func=_cmd_selfcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        return args.func(args)
    except tuple(row[0] for row in FAILURES) as exc:
        prefix, code = next(row[1:] for row in FAILURES if isinstance(exc, row[0]))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
