"""Phase-and-layer benchmark of the dualrec synth -> train -> eval pipeline.

Usage:
    python3 perfbench/run.py --workload s-full --seed 1 --seconds 10 --trace 0

Run from the repository root. Each run starts one fresh child process
(``child.py``) that sets up synthetic data, loads it, trains inside the real
``training.fit`` loop for about ``--seconds`` and evaluates. The last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the ``end_to_end`` metrics of ``BENCHMARK.json`` with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1``. A traced run also
runs an untraced child on the same inputs and reports the tracing overhead.
Run details (run info, outputs, every metric) go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
from dataclasses import asdict, replace

from workloads import WORKLOADS, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
RUN_DEADLINE_S = 175  # a run and all its children end within this
# One OpenBLAS thread: on a shared 2-vCPU host a second thread busy-waits
# between calls, and its gain depends on whether the other vCPU is free, which
# made step times spread about four times wider across runs.
BLAS_THREADS = "1"
# Stop a run whose resident set passes this, before it can take the machine
# down; the address-space limit is the backstop for a single huge allocation.
MEMORY_GUARD_MB = 4096
ADDRESS_LIMIT_MB = 6144
# A tape op a workload never calls (exp on s-base, say) reads 0, not missing.
OP_METRIC = re.compile(r"autodiff\.(fwd\.\w+_ms|bwd\.\w+_ms|\w+\.calls)$")


def git_revision(root: str) -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_child(workload: Workload, seed: int, seconds: float, trace: bool,
              tag: str, deadline: float, inject_nan_op: str | None = None) -> dict:
    """Run one child to completion, or kill it at ``deadline``; return its record."""
    work_dir = os.path.join(OUT, f"{tag}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    job = {
        "root": ROOT,
        "workload": asdict(workload),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "work_dir": work_dir,
        "memory_guard_mb": MEMORY_GUARD_MB,
        "address_limit_mb": ADDRESS_LIMIT_MB,
        "inject_nan_op": inject_nan_op,
    }
    job_path = os.path.join(work_dir, "job.json")
    result_path = os.path.join(work_dir, "result.json")
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), job_path, result_path],
            cwd=ROOT, env=env, timeout=max(1.0, deadline - time.monotonic()),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        with open(result_path) as fh:
            result = json.load(fh)
        if proc.returncode:
            raise RuntimeError(f"child exited with {proc.returncode}: {proc.stdout[-2000:]}")
    except (OSError, ValueError, RuntimeError, subprocess.TimeoutExpired) as exc:
        result = {"attempted": 1, "failed": 1, "errors": [f"child: {exc}"],
                  "end_to_end": {}, "per_layer": {}, "info": {}, "outputs": {}, "samples": {}}
    spans_path = os.path.join(work_dir, "spans.json")
    if os.path.exists(spans_path):
        os.replace(spans_path, os.path.join(OUT, f"{tag}.spans.json"))
    shutil.rmtree(work_dir, ignore_errors=True)
    return result


def run_workload(name: str, workload: Workload, seed: int, seconds: float, trace: bool,
                 inject_nan_op: str | None = None) -> tuple[dict, dict]:
    """Run a workload; returns (all metrics, full record)."""
    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + RUN_DEADLINE_S
    if not trace:
        record = run_child(workload, seed, seconds, False, name, deadline, inject_nan_op)
        metrics = dict(record["end_to_end"])
    else:
        # One round per unit: the layer split needs no medians, and the
        # untraced twin only supplies the overhead baseline.
        light = replace(workload, rounds=1, unit_every=1)
        plain = run_child(light, seed, seconds, False, name, deadline, inject_nan_op)
        record = run_child(light, seed, seconds, True, name + ".traced", deadline, inject_nan_op)
        record["attempted"] += plain["attempted"]
        record["failed"] += plain["failed"]
        record["errors"] += plain["errors"]
        metrics = dict(record["per_layer"])
        traced_p50 = record["end_to_end"].get("step_ms.p50")
        plain_p50 = plain["end_to_end"].get("step_ms.p50")
        if traced_p50 is not None and plain_p50 is not None:
            metrics["tracing.overhead_ms"] = traced_p50 - plain_p50
            metrics["tracing.step_ms.p50"] = traced_p50
    record["info"].update(workload=name, seed=seed, seconds=seconds, trace=int(trace),
                          git_revision=git_revision(ROOT))
    record["metrics"] = metrics
    return metrics, record


def result_line(metrics: dict, record: dict, wanted: list[dict]) -> dict:
    """The result line: correctness, operation counts and every wanted metric with its unit."""
    out = {}
    missing = []
    for spec in wanted:
        value = metrics.get(spec["name"])
        if value is None and record["per_layer"] and OP_METRIC.match(spec["name"]):
            record["info"].setdefault("ops_not_run", []).append(spec["name"])
            value = 0.0
        if value is None or not math.isfinite(value):
            missing.append(spec["name"])
            continue
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
    failed = record["failed"]
    attempted = max(1, record["attempted"])
    if missing and not failed:
        record["errors"].append(f"metrics not measured: {', '.join(missing)}")
        failed, attempted = 1, attempted + 1
    return {"correct": not failed, "attempted": attempted, "failed": failed, "metrics": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "dualrec")):
        print(f"perfbench: no dualrec sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    started = time.perf_counter()
    metrics, record = run_workload(
        args.workload, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    record["info"]["wall_s"] = time.perf_counter() - started
    with open(os.path.join(OUT, f"{args.workload}.trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    for key, value in sorted(record["info"].items()):
        print(f"# {key}: {json.dumps(value)}")
    for key, value in record["outputs"].items():
        if key == "log_lines":
            for line in value:
                print(f"# train.log: {line}")
        else:
            print(f"# {key}: {value}")
    for error in record["errors"]:
        print(f"# error: {error}")
    print(json.dumps(result_line(metrics, record, wanted)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
