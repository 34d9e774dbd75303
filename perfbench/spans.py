"""In-memory span recorder and the per-layer figures derived from it.

Spans are recorded from the benchmark's side only: wrappers rebind module
attributes of ``dualrec`` so that each call into a layer's public function
opens and closes a span. A span holds its name, start and end (ns), parent
span, the training step it ran in (-1 outside steps) and the run phase.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

# A traced step's span self times plus its unattributed remainder must add up
# to the step's wall time within this many milliseconds. Spans are stamped in
# integer nanoseconds, so any difference means a span escaped its step.
ADD_UP_TOL_MS = 1e-3

FWD = "autodiff.fwd."
BWD = "autodiff.bwd."


class Tracer:
    def __init__(self):
        # int columns are arrays, which the garbage collector need not scan
        self.names: list[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.steps = array("q")
        self.phases: list[str] = []
        self._stack: list[int] = []
        self.step_id = -1
        self.phase = ""
        self.nodes_in_steps = 0
        self.clock = time.perf_counter_ns

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.steps.append(self.step_id)
        self.phases.append(self.phase)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self._stack.pop()

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        traced.__wrapped__ = fn
        return traced

    def wrap_op(self, fn, name: str):
        """Span the forward call of a tape op and the backward of the node it makes.

        Composite ops (``sub``, ``affine``) return a node whose backward is
        already wrapped by the primitive that made it; that node is left alone.
        """

        def traced(*args, **kwargs):
            idx = self.open(FWD + name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            backward = getattr(out, "_backward", None)
            if backward is not None and not hasattr(backward, "bench_op"):
                out._backward = self._wrap_backward(backward, out.op)
                if self.step_id >= 0:
                    self.nodes_in_steps += 1
            return out

        traced.__wrapped__ = fn
        return traced

    def _wrap_backward(self, backward, op: str):
        name = BWD + op

        def traced(grad):
            idx = self.open(name)
            try:
                backward(grad)
            finally:
                self.close(idx)

        traced.bench_op = op
        return traced

    def dump(self) -> dict:
        return {
            "names": self.names,
            "start_ns": self.starts.tolist(),
            "end_ns": self.ends.tolist(),
            "parent": self.parents.tolist(),
            "step": self.steps.tolist(),
            "phase": self.phases,
        }


def self_times(tracer: Tracer) -> tuple[list[int], list[int]]:
    """Duration and self time (duration minus children's durations) per span."""
    dur = [e - s for s, e in zip(tracer.starts, tracer.ends)]
    own = list(dur)
    for idx, parent in enumerate(tracer.parents):
        if parent >= 0:
            own[parent] -= dur[idx]
    return dur, own


def layer_metrics(
    tracer: Tracer,
    roots: list[tuple[int, int]],
    per_phase: dict[str, int],
) -> tuple[dict[str, float], list[str]]:
    """Per-layer figures plus a list of failed add-up checks.

    ``roots`` holds each timed step's (start, end) in ns; step ``k`` owns the
    spans stamped with step id ``k``. ``per_phase`` gives how many times each
    non-step phase ran, so their span totals become seconds per run of it.
    Module-level spans report inclusive time, autodiff ops report self time.
    """
    dur, own = self_times(tracer)
    n_steps = max(1, len(roots))
    step_incl: dict[str, int] = defaultdict(int)
    step_self: dict[str, int] = defaultdict(int)
    step_calls: dict[str, int] = defaultdict(int)
    phase_incl: dict[tuple[str, str], int] = defaultdict(int)
    phase_self: dict[tuple[str, str], int] = defaultdict(int)
    top_dur = [0] * len(roots)
    span_sum = [0] * len(roots)
    failures: list[str] = []

    for idx, name in enumerate(tracer.names):
        step = tracer.steps[idx]
        if own[idx] < 0:
            failures.append(f"span {name} has negative self time {own[idx]} ns")
        if 0 <= step < len(roots):
            step_incl[name] += dur[idx]
            step_self[name] += own[idx]
            step_calls[name] += 1
            span_sum[step] += own[idx]
            if tracer.parents[idx] < 0:
                top_dur[step] += dur[idx]
                start, end = roots[step]
                if tracer.starts[idx] < start or tracer.ends[idx] > end:
                    failures.append(f"span {name} lies outside step {step}")
        elif step < 0:
            phase_incl[(tracer.phases[idx], name)] += dur[idx]
            phase_self[(tracer.phases[idx], name)] += own[idx]

    unattributed = [(end - start) - top for (start, end), top in zip(roots, top_dur)]
    for step, ((start, end), rest) in enumerate(zip(roots, unattributed)):
        diff_ms = abs(span_sum[step] + rest - (end - start)) / 1e6
        if diff_ms > ADD_UP_TOL_MS or rest < 0:
            failures.append(
                f"step {step}: span self times {span_sum[step]} ns + unattributed "
                f"{rest} ns != wall {end - start} ns"
            )

    def ms(total_ns: int) -> float:
        return total_ns / 1e6 / n_steps

    def sec(phase: str, *names: str, use_self: bool = False) -> float:
        table = phase_self if use_self else phase_incl
        total = sum(table[(phase, name)] for name in names)
        return total / 1e9 / max(1, per_phase.get(phase, 1))

    out: dict[str, float] = {
        "synthetic.generate_s": sec("setup", "synthetic.generate", use_self=True),
        "data.filter_s": sec("setup", "data.filter"),
        "data.align_s": sec("setup", "data.align"),
        "data.split_s": sec("setup", "data.split"),
        "data.candidates_s": sec("setup", "data.candidates"),
        "data.write_s": sec("setup", "data.write"),
        "data.read_s": sec("load", "data.read"),
        "graph.adjacency_s": sec("load", "graph.adjacency"),
        "model.build_s": sec("load", "model.build"),
        "data.negatives_s": sec("prep", "data.negatives"),
        "evaluation.representations_s": sec("eval", "evaluation.representations"),
        "evaluation.rank_s": sec("eval", "evaluation.rank"),
        "training.step_unattributed_ms": ms(sum(unattributed)),
        "autodiff.nodes_per_step": tracer.nodes_in_steps / n_steps,
    }
    for metric, name in (
        ("graph.encode_ms", "graph.encode"),
        ("model.forward_ms", "model.forward"),
        ("model.score_pairs_ms", "model.score_pairs"),
        ("mixup.interpolate_ms", "mixup.interpolate"),
        ("disentangle.encode_ms", "disentangle.encode"),
        ("disentangle.loss_cls_ms", "disentangle.loss_cls"),
        ("fusion.fuse_ms", "fusion.fuse"),
        ("fusion.tower_ms", "fusion.tower"),
        ("fusion.loss_prd_ms", "fusion.loss_prd"),
        ("training.step_losses_ms", "training.step_losses"),
        ("autodiff.backward_ms", "autodiff.backward"),
        ("optim.adam_ms", "optim.adam"),
        ("optim.zero_grad_ms", "optim.zero_grad"),
    ):
        out[metric] = ms(step_incl[name])
    out["autodiff.backward_unattributed_ms"] = ms(step_self["autodiff.backward"])

    ops = sorted({n[len(FWD):] for n in tracer.names if n.startswith(FWD)}
                 | {n[len(BWD):] for n in tracer.names if n.startswith(BWD)})
    for op in ops:
        out[f"autodiff.fwd.{op}_ms"] = ms(step_self[FWD + op])
        out[f"autodiff.bwd.{op}_ms"] = ms(step_self[BWD + op])
        out[f"autodiff.{op}.calls"] = step_calls[FWD + op] / n_steps

    bwd_sum = sum(out[f"autodiff.bwd.{op}_ms"] for op in ops)
    gap = out["autodiff.backward_ms"] - bwd_sum - out["autodiff.backward_unattributed_ms"]
    if abs(gap) > ADD_UP_TOL_MS:
        failures.append(
            f"autodiff.bwd.* + backward_unattributed differs from backward by {gap:.6f} ms/step"
        )
    return out, failures
