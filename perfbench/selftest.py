"""Self-test of the benchmark on a tiny rung; runs in well under a minute.

Usage: python3 perfbench/selftest.py   (from the repository root)

Checks that every workload's path runs traced and untraced, that every metric
BENCHMARK.json names is printed with its unit, that a NaN injected into a tape
op from the benchmark's side is counted as a failure, and that the benchmark
exits non-zero without a result where the dualrec sources are missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import run
from workloads import WORKLOADS

TINY_SPEC = dict(num_users=60, num_items_a=90, num_items_b=70, latent_dim=4,
                 rate_a=0.15, rate_b=0.12, min_count=3)
SECONDS = 0.3


def tiny(workload):
    return replace(
        workload, spec=TINY_SPEC, candidates=20,
        config=dict(workload.config, k=8, batch_size=64),
        unit_steps=workload.unit_steps and 3, rounds=4, unit_every=2,
    )


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    problems: list[str] = []

    missing = [w["name"] for w in bench["workloads"] if w["name"] not in WORKLOADS]
    if missing:
        problems.append(f"workloads without a definition: {missing}")

    for name, workload in WORKLOADS.items():
        for trace in (0, 1):
            wanted = bench["per_layer"] if trace else bench["end_to_end"]
            metrics, record = run.run_workload(name, tiny(workload), 3, SECONDS, bool(trace))
            line = run.result_line(metrics, record, wanted)
            label = f"{name} trace={trace}"
            if not line["correct"] or line["failed"]:
                problems.append(f"{label}: failed: {record['errors']}")
            for spec in wanted:
                got = line["metrics"].get(spec["name"])
                if got is None or got["unit"] != spec["unit"]:
                    problems.append(f"{label}: metric {spec['name']} missing or without its unit")
            if name == "s-full" and trace and record["info"].get("ops_not_run"):
                problems.append(f"{label}: ops never traced: {record['info']['ops_not_run']}")
            print(f"ok   {label}: {line['attempted']} operations" if not problems
                  else f"FAIL {label}")

    metrics, record = run.run_workload(
        "s-full", tiny(WORKLOADS["s-full"]), 3, SECONDS, False, inject_nan_op="row_cosine"
    )
    line = run.result_line(metrics, record, bench["end_to_end"])
    if line["correct"] or line["failed"] < 1:
        problems.append(f"injected NaN not counted as a failure: {line}")
    else:
        print(f"ok   injected NaN counted: {line['failed']} of {line['attempted']} failed")

    bare = os.path.join(run.OUT, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "s-full", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    else:
        print(f"ok   bare directory refused with exit {proc.returncode}")

    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
