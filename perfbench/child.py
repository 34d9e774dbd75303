"""Run one benchmark workload in this process and write the result as JSON.

Usage: python3 perfbench/child.py JOB.json RESULT.json

``run.py`` starts a fresh child per run. The child drives the real pipeline
through the public library functions: setup (what ``dualrec synth`` does),
load (what ``train`` and ``eval`` pay first), training inside the real
``training.fit`` loop, and ``evaluate_model``. Hooks rebound on ``dualrec``
module attributes take the timestamps; with tracing on they also record spans.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import asdict

import spans

PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


class StopFit(Exception):
    """Raised from a hook to end ``fit`` at a point the benchmark chose."""


class MemoryGuardStop(Exception):
    """The child's resident set outgrew the workload's memory guard."""


class CheckFailed(Exception):
    pass


def rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * PAGE_MB


def hwm_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def step_ms(steps: list[tuple[int, int]]) -> list[float]:
    return [(end - start) / 1e6 for start, end in steps]


def median(values):
    return statistics.median(values) if values else None


def blas_info() -> dict:
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"vendor": blas.get("name"), "version": blas.get("version"), "threads": None}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


class Ops:
    """Operations attempted and failed; an operation is a phase repeat or a step."""

    def __init__(self):
        self.kinds: list[str] = []
        self.ok: list[bool] = []
        self.errors: list[str] = []

    def add(self, kind: str, ok: bool = True, reason: str = "") -> None:
        self.kinds.append(kind)
        self.ok.append(ok)
        if not ok:
            self.errors.append(f"{kind}: {reason}")

    def fail_last(self, kind: str, reason: str) -> None:
        """A check on a finished operation of ``kind`` failed: mark the latest one."""
        self.errors.append(f"{kind}: {reason}")
        for idx in range(len(self.kinds) - 1, -1, -1):
            if self.kinds[idx] == kind:
                self.ok[idx] = False
                return
        self.add(kind, ok=False)

    @property
    def attempted(self) -> int:
        return len(self.kinds)

    @property
    def failed(self) -> int:
        return self.ok.count(False)


class Clock:
    """Timestamps taken by the training hooks (ns, ``perf_counter_ns``)."""

    def __init__(self):
        self.epoch_start = 0
        self.in_step = False
        self.in_train = False
        self.probe = False
        self.unit_steps = 0
        self.last_mark = 0
        self.preps: list[int] = []
        self.steps: list[tuple[int, int]] = []  # (start, end) of each timed step
        self.epochs: list[int] = []
        self.negatives: list[int] = []


class Bench:
    def __init__(self, job: dict):
        self.job = job
        self.wl = job["workload"]
        self.seed = job["seed"]
        self.budget_ns = int(job["seconds"] * 1e9)
        self.ops = Ops()
        self.clk = Clock()
        self.tracer = spans.Tracer() if job["trace"] else None
        self.phase = "setup"
        self.batch_size = 0
        self.times: dict[str, list[float]] = {"setup": [], "load": [], "eval": []}
        self.rss_hwm: dict[str, float] = {}
        self.info: dict = {}
        self.outputs: dict = {}
        self.gc_pause_ns = 0
        self.gc_count = 0
        self._gc_t0 = 0

    # -- hooks --------------------------------------------------------------

    def _span(self, fn, name):
        return self.tracer.wrap(fn, name) if self.tracer else fn

    def _enter(self, phase: str, step_id: int = -1) -> None:
        self.phase = phase
        if self.tracer:
            self.tracer.phase = phase
            self.tracer.step_id = step_id

    def install(self) -> None:
        from dualrec import autodiff, data, disentangle, evaluation, fusion, graph
        from dualrec import model, optim, synthetic, training

        clk, tracer = self.clk, self.tracer
        if tracer:
            # every tape op, primitive or composite, is annotated to return a Value
            for name, fn in list(vars(autodiff).items()):
                if (callable(fn) and getattr(fn, "__module__", "") == autodiff.__name__
                        and getattr(fn, "__annotations__", {}).get("return") == "Value"):
                    setattr(autodiff, name, tracer.wrap_op(fn, name))
            # names imported by value are rebound where they are looked up
            for module, attr, span in (
                (synthetic, "generate_synthetic", "synthetic.generate"),
                (synthetic, "binarize_and_filter", "data.filter"),
                (synthetic, "align_common_users", "data.align"),
                (data, "leave_one_out_split", "data.split"),
                (data, "filter_cold_items", "data.split"),
                (data, "sample_eval_candidates", "data.candidates"),
                (data, "write_split_artifact", "data.write"),
                (data, "read_split_artifact", "data.read"),
                (graph, "build_bipartite_adjacency", "graph.adjacency"),
                (graph, "encode_graph", "graph.encode"),
                (model, "build_model", "model.build"),
                (model, "interpolate", "mixup.interpolate"),
                (training, "score_pairs", "model.score_pairs"),
                (training, "step_losses", "training.step_losses"),
                (disentangle, "encode", "disentangle.encode"),
                (disentangle, "loss_cls1", "disentangle.loss_cls"),
                (disentangle, "loss_cls2", "disentangle.loss_cls"),
                (fusion, "fuse", "fusion.fuse"),
                (fusion, "tower_forward", "fusion.tower"),
                (fusion, "loss_prd", "fusion.loss_prd"),
                (autodiff, "backward", "autodiff.backward"),
                (evaluation, "model_representations", "evaluation.representations"),
                (evaluation, "evaluate_domain", "evaluation.rank"),
            ):
                setattr(module, attr, tracer.wrap(getattr(module, attr), span))
            optim.Adam.zero_grad = tracer.wrap(optim.Adam.zero_grad, "optim.zero_grad")

        negatives = self._span(training.sample_train_negatives, "data.negatives")

        def negatives_hook(*args, **kwargs):
            out = negatives(*args, **kwargs)
            clk.negatives.append(len(out))
            return out

        forward = self._span(training.forward, "model.forward")

        def forward_hook(*args, **kwargs):
            if not clk.in_step:  # first forward of an epoch ends its prep
                now = time.perf_counter_ns()
                clk.preps.append(now - clk.epoch_start)
                self.ops.add("prep")
                if clk.probe:
                    raise StopFit
                clk.in_step = True
                clk.last_mark = now
                clk.unit_steps = 0
                self._enter("train", len(clk.steps))
            return forward(*args, **kwargs)

        adam_step = self._span(optim.Adam.step, "optim.adam")
        guard_mb = self.job["memory_guard_mb"]
        unit_steps = self.wl["unit_steps"]

        def step_hook(optimizer):
            adam_step(optimizer)
            now = time.perf_counter_ns()
            clk.steps.append((clk.last_mark, now))
            clk.last_mark = now
            self.ops.add("step")
            self._enter("train", len(clk.steps))
            used = rss_mb()
            if used > guard_mb:
                raise MemoryGuardStop(f"RSS {used:.0f} MB > guard {guard_mb} MB")
            clk.unit_steps += 1
            if clk.unit_steps == unit_steps:
                raise StopFit

        training.sample_train_negatives = negatives_hook
        training.forward = forward_hook
        optim.Adam.step = step_hook

        if self.job.get("inject_nan_op"):
            self._inject_nan(autodiff, self.job["inject_nan_op"])

    def _inject_nan(self, autodiff, op: str) -> None:
        """Self-test fault: ``op`` returns NaN once training steps have begun."""
        import numpy as np

        original = getattr(autodiff, op)

        def faulty(*args, **kwargs):
            out = original(*args, **kwargs)
            if self.clk.in_step:
                out.data = np.full_like(out.data, np.nan)
            return out

        setattr(autodiff, op, faulty)

    def _on_gc(self, phase, info) -> None:
        if not self.clk.in_train:
            return
        if phase == "start":
            self._gc_t0 = time.perf_counter_ns()
        else:
            self.gc_pause_ns += time.perf_counter_ns() - self._gc_t0
            self.gc_count += 1

    # -- phases -------------------------------------------------------------

    def run(self) -> None:
        import dualrec
        from dualrec import config, data, evaluation, graph, model, synthetic, training

        src = os.path.realpath(os.path.join(self.job["root"], "src", "dualrec"))
        if os.path.dirname(os.path.realpath(dualrec.__file__)) != src:
            raise RuntimeError(f"imported dualrec from {dualrec.__file__}, not {src}")
        self.install()
        wl, seed, clk = self.wl, self.seed, self.clk
        spec = synthetic.SyntheticSpec(**wl["spec"], seed=seed)
        cfg = config.RunConfig(**wl["config"], seed=seed, epochs=1)
        cfg.validate()
        self.batch_size = cfg.batch_size
        self.info["spec"] = asdict(spec)
        self.info["n_candidates"] = wl["candidates"]
        self.info["config"] = config.config_lines(cfg)
        out_dir = os.path.join(self.job["work_dir"], "data")
        bench, logs = self, []

        def setup():  # what `dualrec synth` does
            set_a, set_b = synthetic.generate_synthetic(spec)
            splits = data.freeze_splits(set_a, set_b, spec.seed, wl["candidates"])
            meta = {"num_users": set_a.num_users, "seed": spec.seed,
                    "n_candidates": wl["candidates"], "source": "synthetic"}
            for tag, split in zip("ab", splits):
                data.write_split_artifact(
                    os.path.join(out_dir, f"domain_{tag}"), split,
                    dict(meta, num_items=split.train.num_items),
                )
            return splits

        def load():  # what `dualrec train` and `eval` pay before any work
            read_a, _ = data.read_split_artifact(os.path.join(out_dir, "domain_a"))
            read_b, _ = data.read_split_artifact(os.path.join(out_dir, "domain_b"))
            adj_a = graph.build_bipartite_adjacency(read_a.train)
            adj_b = graph.build_bipartite_adjacency(read_b.train)
            return read_a, read_b, model.build_model(adj_a, adj_b, cfg)

        class Sink:
            """``fit``'s log sink; an epoch line marks the end of the epoch."""

            def write(self, text: str) -> None:
                logs[-1].extend(text.splitlines())
                if not text.startswith(training.LOG_HEADER):
                    clk.epochs.append(time.perf_counter_ns() - clk.epoch_start)
                    clk.in_step = False
                    bench._enter("prep")

        if self.tracer:
            gc.callbacks.append(self._on_gc)
        # Rounds of setup, load, epoch preps, a training unit every few rounds
        # and eval, so that each metric's samples spread over the whole run.
        # Every round repeats the same work on a fresh model; each timed part
        # starts from a collected heap that holds nothing of the round before,
        # as a fresh process would.
        rounds, train_ns = 0, 0
        while rounds < wl["rounds"] or train_ns < self.budget_ns:
            rounds += 1
            report = read_a = read_b = state = None
            self._enter("setup")
            gc.collect()
            t0 = time.perf_counter()
            splits = setup()
            self.times["setup"].append(time.perf_counter() - t0)
            self.ops.add("setup")
            written = [(interaction_count(s.train), len(s.test)) for s in splits]
            splits = None
            self.rss_hwm.setdefault("setup", hwm_mb())

            self._enter("load")
            gc.collect()
            t0 = time.perf_counter()
            read_a, read_b, state = load()
            self.times["load"].append(time.perf_counter() - t0)
            self.ops.add("load")
            self.rss_hwm.setdefault("load", hwm_mb())
            try:
                check_round_trip(written, (read_a, read_b), wl["candidates"])
            except CheckFailed as exc:
                self.ops.fail_last("load", str(exc))
                return

            for _ in range(wl["preps"] - 1):
                gc.collect()
                self._enter("prep")
                clk.probe, clk.in_step = True, False
                clk.epoch_start = time.perf_counter_ns()
                try:
                    training.fit(state, read_a, read_b)
                except StopFit:
                    pass
            clk.probe = False

            # a training unit every unit_every rounds: a `fit` call of one
            # epoch, or of its first unit_steps
            trained = (rounds - 1) % wl["unit_every"] == 0
            if trained:
                gc.collect()
                logs.append([])
                self._enter("prep")
                clk.in_step, clk.in_train = False, True
                clk.epoch_start = time.perf_counter_ns()
                try:
                    training.fit(state, read_a, read_b, log_sink=Sink())
                except StopFit:
                    pass
                except training.NumericalAbortError as exc:
                    self.ops.add("step", ok=False, reason=f"NumericalAbortError: {exc}")
                    return
                except MemoryGuardStop as exc:
                    self.ops.fail_last("step", f"memory guard: {exc}")
                    return
                train_ns += time.perf_counter_ns() - clk.epoch_start
                clk.in_train = False
                self.rss_hwm.setdefault("train", hwm_mb())
                try:
                    check_log(logs[-1], training.LOG_HEADER, 0 if wl["unit_steps"] else 1)
                except CheckFailed as exc:
                    self.ops.fail_last("step", str(exc))
                    return

            self._enter("eval")  # one forward over all users, then ranking
            gc.collect()
            t0 = time.perf_counter()
            report = evaluation.evaluate_model(state, read_a, read_b)
            self.times["eval"].append(time.perf_counter() - t0)
            self.ops.add("eval")
            self.rss_hwm.setdefault("eval", hwm_mb())
            try:
                check_report(report, (read_a, read_b), wl["candidates"])
            except CheckFailed as exc:
                self.ops.fail_last("eval", str(exc))
                return
            if trained:
                for tag, dm in (("a", report.domain_a), ("b", report.domain_b)):
                    self.outputs[f"hr10_{tag}"] = dm.hr
                    self.outputs[f"ndcg10_{tag}"] = dm.ndcg

        self.info["rounds"] = rounds
        self.info["counts"] = {
            "users": read_a.train.num_users,
            "items_a": read_a.train.num_items,
            "items_b": read_b.train.num_items,
            "train_a": interaction_count(read_a.train),
            "train_b": interaction_count(read_b.train),
            "test_a": len(read_a.test),
            "test_b": len(read_b.test),
            "adjacency_nnz": int(state.adjacency_a.matrix.nnz + state.adjacency_b.matrix.nnz),
        }
        self.outputs["log_lines"] = logs[-1]
        self.info["users_ranked"] = report.domain_a.num_test + report.domain_b.num_test
        self.info["candidates_scored"] = sum(
            len(split.eval_candidates[u]) + 1 for split in (read_a, read_b) for u, _ in split.test
        )

    # -- results ------------------------------------------------------------

    def end_to_end(self) -> dict:
        clk = self.clk
        steps_ms = step_ms(clk.steps)
        prep_s = median([ns / 1e9 for ns in clk.preps])
        out = {
            "setup_s": median(self.times["setup"]),
            "load_s": median(self.times["load"]),
            "epoch_prep_s": prep_s,
            "step_ms.p50": median(steps_ms),
            "step_ms.p90": statistics.quantiles(steps_ms, n=10)[-1] if len(steps_ms) > 1 else None,
            "eval_s": median(self.times["eval"]),
            "peak_rss_mb": hwm_mb(),
        }
        counts = self.info["counts"]
        if not self.wl["unit_steps"]:
            out["epoch_s"] = median([ns / 1e9 for ns in clk.epochs])
            self.info["epoch_s"] = "measured"
        else:
            # fit runs max over domains of ceil(samples / batch) steps an epoch
            samples = (counts["train_a"] + clk.negatives[0], counts["train_b"] + clk.negatives[1])
            steps_per_epoch = max(math.ceil(n / self.batch_size) for n in samples)
            self.info["steps_per_epoch"] = steps_per_epoch
            out["epoch_s"] = prep_s + steps_per_epoch * statistics.fmean(steps_ms) / 1e3
            self.info["epoch_s"] = "estimated"
        self.info["timed_steps"] = len(steps_ms)
        return {k: v for k, v in out.items() if v is not None}

    def per_layer(self) -> tuple[dict, list[str]]:
        clk = self.clk
        per_phase = {
            "setup": len(self.times["setup"]),
            "load": len(self.times["load"]),
            "prep": len(clk.preps),
            "eval": len(self.times["eval"]),
        }
        out, failures = spans.layer_metrics(self.tracer, clk.steps, per_phase)
        n_steps = max(1, len(clk.steps))
        counts = self.info["counts"]
        out["graph.adjacency_nnz"] = counts["adjacency_nnz"]
        out["data.train_interactions"] = counts["train_a"] + counts["train_b"]
        out["data.negatives_drawn"] = sum(clk.negatives[:2])
        out["evaluation.users_ranked"] = self.info["users_ranked"]
        out["evaluation.candidates_scored"] = self.info["candidates_scored"]
        out["autodiff.gc_pause_ms"] = self.gc_pause_ns / 1e6 / n_steps
        out["autodiff.gc_collections"] = self.gc_count / n_steps
        for phase, value in self.rss_hwm.items():
            out[f"rss_hwm_mb.{phase}"] = value
        return out, failures


def interaction_count(train) -> int:
    return len(train.interactions)


def check_round_trip(written, read, n_candidates: int) -> None:
    """``written`` holds (train interactions, test users) per domain as set up."""
    for tag, (n_train, n_test), after in zip("ab", written, read):
        if n_train != interaction_count(after.train):
            raise CheckFailed(f"domain {tag}: train interactions changed in the artifact")
        if n_test != len(after.test):
            raise CheckFailed(f"domain {tag}: test count changed in the artifact")
        for u, _ in after.test:
            cands = after.eval_candidates.get(u, ())
            if len(set(cands)) != n_candidates or len(cands) != n_candidates:
                raise CheckFailed(f"domain {tag}: user {u} lacks {n_candidates} distinct candidates")


def check_log(lines: list[str], header: str, epochs: int) -> None:
    if not lines or lines[0] != header:
        raise CheckFailed("train log does not start with training.LOG_HEADER")
    if len(lines) != epochs + 1:
        raise CheckFailed(f"train log holds {len(lines) - 1} epoch lines for {epochs} epochs")
    width = len(header.split("\t"))
    for epoch, line in enumerate(lines[1:]):
        cols = line.split("\t")
        if len(cols) != width or cols[0] != str(epoch):
            raise CheckFailed(f"train log line {line!r} does not match the header")
        if not all(math.isfinite(float(c)) for c in cols[1:]):
            raise CheckFailed(f"non-finite loss in train log line {line!r}")


def check_report(report, splits, n_candidates: int) -> None:
    for tag, dm, split in zip("ab", (report.domain_a, report.domain_b), splits):
        if dm.num_test != len(split.test):
            raise CheckFailed(f"domain {tag}: num_test {dm.num_test} != {len(split.test)} test users")
        bad = [r for r in dm.ranks.values() if not 1 <= r <= n_candidates + 1]
        if bad or len(dm.ranks) != len(split.test):
            raise CheckFailed(f"domain {tag}: ranks outside [1, {n_candidates + 1}]")
        for name, value in (("HR@10", dm.hr), ("NDCG@10", dm.ndcg)):
            if not 0.0 <= value <= 1.0:
                raise CheckFailed(f"domain {tag}: {name} = {value} outside [0, 1]")


def main(job_path: str, result_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    limit = job["address_limit_mb"] * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    bench = Bench(job)
    try:
        bench.run()
    except Exception as exc:  # any failure in a phase is a counted failure
        bench.ops.add(bench.phase, ok=False, reason=f"{type(exc).__name__}: {exc}")
    import numpy
    import scipy

    bench.info.update(
        python=sys.version.split()[0], numpy=numpy.__version__, scipy=scipy.__version__,
        blas=blas_info(), nproc=len(os.sched_getaffinity(0)),
    )
    result = {
        "attempted": bench.ops.attempted,
        "failed": bench.ops.failed,
        "errors": bench.ops.errors,
        "end_to_end": {},
        "per_layer": {},
        "info": bench.info,
        "outputs": bench.outputs,
        "samples": {
            **{f"{phase}_s": times for phase, times in bench.times.items()},
            "epoch_prep_s": [ns / 1e9 for ns in bench.clk.preps],
            "epoch_s": [ns / 1e9 for ns in bench.clk.epochs],
            "step_ms": step_ms(bench.clk.steps),
        },
    }
    if not bench.ops.failed:
        result["end_to_end"] = bench.end_to_end()
        if bench.tracer:
            result["per_layer"], failures = bench.per_layer()
            if failures:
                result["errors"] += failures[:10]
                result["failed"] += 1
                result["attempted"] += 1
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    if bench.tracer:
        with open(os.path.join(job["work_dir"], "spans.json"), "w") as fh:
            json.dump(bench.tracer.dump(), fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
