"""Reverse-mode automatic differentiation over dense float64 matrices.

Every differentiable quantity in the model is a :class:`Value`: a 2-D
float64 array plus a lazily allocated gradient slot and a backward
closure. Graphs are built dynamically (one per training batch) and swept
once by :func:`backward`; gradients accumulate by summation over fan-out.

A graph is consumed by its sweep: each node drops its closure and its
parent links once its own backward has run, so the tape is freed by
reference counting as the sweep goes, and only the nodes the caller still
holds survive it (with their ``.grad``). For that to work no backward
closure may refer to its own output Value; a closure that did would make
the node a reference cycle that only the cyclic garbage collector frees.

Sparse adjacency matrices, labels, mixing coefficients and sampled noise
enter ops as plain constants and never receive gradients.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

LEAKY_SLOPE = 0.01
PROB_EPS = 1e-12
NORM_EPS = 1e-12
LOG_SIGMA_BOUND = 10.0


class ShapeError(ValueError):
    """Operand dimensions are incompatible."""


class ContractError(RuntimeError):
    """An operation precondition was violated."""


# Diagnostics: number of rows whose norm was clamped inside row_cosine.
_clamp_events = 0


def cosine_clamp_events() -> int:
    return _clamp_events


def reset_cosine_clamp_events() -> None:
    global _clamp_events
    _clamp_events = 0


def _as_matrix(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {arr.shape}")
    return np.ascontiguousarray(arr)


class Value:
    """Node in the computation graph: payload matrix plus gradient slot."""

    __slots__ = ("data", "grad", "op", "_parents", "_backward")

    def __init__(self, data, op: str = "leaf", parents=(), backward=None):
        self.data = _as_matrix(data)
        self.grad: np.ndarray | None = None
        self.op = op
        self._parents = tuple(parents)
        self._backward = backward

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise ContractError(f"item() on non-scalar value of shape {self.shape}")
        return float(self.data[0, 0])

    def __repr__(self) -> str:
        return f"Value(op={self.op!r}, shape={self.shape})"


def _accum(node: Value, grad: np.ndarray) -> None:
    if node.grad is None:
        node.grad = grad.copy()
    else:
        node.grad += grad


def zero_grads(values) -> None:
    for v in values:
        v.grad = None


def _toposort(root: Value) -> list[Value]:
    order: list[Value] = []
    seen: set[int] = set()
    stack: list[tuple[Value, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order  # leaves first


def backward(loss: Value) -> None:
    """Reverse sweep from a scalar loss; accumulates grads into all ancestors.

    The sweep consumes the graph: after a node's backward has run, its
    closure and parent links are dropped. A node nobody else holds is then
    freed, grad included; a node the caller holds keeps its ``.grad`` but
    no longer reaches its ancestors, so a graph can be swept only once.
    """
    if loss.shape != (1, 1):
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    order = _toposort(loss)
    _accum(loss, np.ones((1, 1)))
    while order:
        node = order.pop()
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
        node._backward = None
        node._parents = ()


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

def add(a: Value, b: Value) -> Value:
    if a.shape != b.shape:
        raise ShapeError(f"add: {a.shape} vs {b.shape}")
    out = Value(a.data + b.data, "add", (a, b))

    def bw(g):
        _accum(a, g)
        _accum(b, g)

    out._backward = bw
    return out


def mul_const(a: Value, c) -> Value:
    """Elementwise product with a constant scalar or array (no grad to c)."""
    c = np.asarray(c, dtype=np.float64)
    out = Value(a.data * c, "mul_const", (a,))
    if out.shape != a.shape:
        raise ShapeError(f"mul_const: constant of shape {c.shape} broadcasts {a.shape} to {out.shape}")

    def bw(g):
        _accum(a, g * c)

    out._backward = bw
    return out


def affine_const(a: Value, mul: float, offset: float) -> Value:
    """mul * a + offset, both plain floats."""
    out = Value(a.data * mul + offset, "affine_const", (a,))

    def bw(g):
        _accum(a, g * mul)

    out._backward = bw
    return out


def sub(a: Value, b: Value) -> Value:
    return add(a, mul_const(b, -1.0))


def matmul(a: Value, b: Value) -> Value:
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: {a.shape} @ {b.shape}")
    out = Value(a.data @ b.data, "matmul", (a, b))

    def bw(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    out._backward = bw
    return out


def add_rowvec(x: Value, b: Value) -> Value:
    """x + b with the 1-row vector b broadcast over rows of x."""
    if b.shape[0] != 1 or b.shape[1] != x.shape[1]:
        raise ShapeError(f"add_rowvec: x {x.shape}, b {b.shape}")
    out = Value(x.data + b.data, "add_rowvec", (x, b))

    def bw(g):
        _accum(x, g)
        _accum(b, g.sum(axis=0, keepdims=True))

    out._backward = bw
    return out


def affine(x: Value, w: Value, b: Value) -> Value:
    """x @ w + b (bias broadcast over rows)."""
    return add_rowvec(matmul(x, w), b)


# The matmul bound before set_gradient_fault(True); None while no fault is on.
_unfaulted_matmul = None


def _faulty_matmul(a: Value, b: Value):
    out = _unfaulted_matmul(a, b)

    def bw(g):
        _accum(a, g @ b.data.T)
        _accum(b, (a.data.T @ g) * 1.01)

    out._backward = bw
    return out


def set_gradient_fault(enabled: bool) -> None:
    """Test hook: while on, ``matmul``'s weight-gradient rule is 1% off.

    The module's ``matmul`` is rebound to a faulty twin, so every gradient
    check must fail; turning the fault off restores the op bound before.
    Every caller looks ``matmul`` up in this module at call time.
    """
    global matmul, _unfaulted_matmul
    if enabled and _unfaulted_matmul is None:
        _unfaulted_matmul = matmul
        matmul = _faulty_matmul
    elif not enabled and _unfaulted_matmul is not None:
        matmul, _unfaulted_matmul = _unfaulted_matmul, None


def spmm(a: sp.spmatrix | sp.sparray, x: Value) -> Value:
    """Sparse-dense product a @ x; a is constant and receives no gradient."""
    if a.shape[1] != x.shape[0]:
        raise ShapeError(f"spmm: {a.shape} @ {x.shape}")
    out = Value(np.asarray(a @ x.data), "spmm", (x,))

    def bw(g):
        # a.T of a CSR matrix is a CSC view of the same arrays, not a copy
        _accum(x, np.asarray(a.T @ g))

    out._backward = bw
    return out


def gather_rows(x: Value, idx) -> Value:
    idx = np.asarray(idx, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("gather_rows: index must be 1-D")
    out = Value(x.data[idx], "gather_rows", (x,))

    def bw(g):
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        np.add.at(x.grad, idx, g)

    out._backward = bw
    return out


def concat_cols(parts: list[Value]) -> Value:
    if not parts:
        raise ShapeError("concat_cols: empty input")
    rows = parts[0].shape[0]
    if any(p.shape[0] != rows for p in parts):
        raise ShapeError("concat_cols: row counts differ")
    out = Value(np.hstack([p.data for p in parts]), "concat_cols", tuple(parts))
    widths = [p.shape[1] for p in parts]

    def bw(g):
        start = 0
        for part, width in zip(parts, widths):
            _accum(part, g[:, start:start + width])
            start += width

    out._backward = bw
    return out


def slice_cols(x: Value, start: int, stop: int) -> Value:
    if not (0 <= start < stop <= x.shape[1]):
        raise ShapeError(f"slice_cols: [{start}:{stop}] of {x.shape}")
    out = Value(x.data[:, start:stop].copy(), "slice_cols", (x,))

    def bw(g):
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        x.grad[:, start:stop] += g

    out._backward = bw
    return out


def relu(x: Value) -> Value:
    out = Value(np.maximum(x.data, 0.0), "relu", (x,))
    mask = x.data > 0.0  # subgradient at 0 is 0

    def bw(g):
        _accum(x, g * mask)

    out._backward = bw
    return out


def leaky_relu(x: Value, slope: float = LEAKY_SLOPE) -> Value:
    factor = np.where(x.data > 0.0, 1.0, slope)
    out = Value(x.data * factor, "leaky_relu", (x,))

    def bw(g):
        _accum(x, g * factor)

    out._backward = bw
    return out


def exp(x: Value) -> Value:
    e = np.exp(x.data)
    out = Value(e, "exp", (x,))

    def bw(g):
        _accum(x, g * e)

    out._backward = bw
    return out


def square(x: Value) -> Value:
    out = Value(x.data * x.data, "square", (x,))

    def bw(g):
        _accum(x, 2.0 * x.data * g)

    out._backward = bw
    return out


def clamp(x: Value, lo: float, hi: float) -> Value:
    out = Value(np.clip(x.data, lo, hi), "clamp", (x,))
    mask = (x.data > lo) & (x.data < hi)

    def bw(g):
        _accum(x, g * mask)

    out._backward = bw
    return out


def softmax_rows(x: Value) -> Value:
    """Rowwise softmax with max-subtraction for overflow safety."""
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)
    out = Value(p, "softmax_rows", (x,))

    def bw(g):
        inner = (g * p).sum(axis=1, keepdims=True)
        _accum(x, p * (g - inner))

    out._backward = bw
    return out


def scale_rows(x: Value, c: Value) -> Value:
    """x * c with the single-column c broadcast across columns of x."""
    if c.shape != (x.shape[0], 1):
        raise ShapeError(f"scale_rows: x {x.shape}, c {c.shape}")
    out = Value(x.data * c.data, "scale_rows", (x, c))

    def bw(g):
        _accum(x, g * c.data)
        _accum(c, (g * x.data).sum(axis=1, keepdims=True))

    out._backward = bw
    return out


def row_cosine(s: Value, t: Value) -> Value:
    """Per-row cosine similarity; zero-norm rows are clamped at NORM_EPS."""
    global _clamp_events
    if s.shape != t.shape:
        raise ShapeError(f"row_cosine: {s.shape} vs {t.shape}")
    sn = np.linalg.norm(s.data, axis=1, keepdims=True)
    tn = np.linalg.norm(t.data, axis=1, keepdims=True)
    s_ok = sn >= NORM_EPS
    t_ok = tn >= NORM_EPS
    clamped = int((~s_ok).sum() + (~t_ok).sum())
    if clamped:
        _clamp_events += clamped
    snc = np.maximum(sn, NORM_EPS)
    tnc = np.maximum(tn, NORM_EPS)
    dot = (s.data * t.data).sum(axis=1, keepdims=True)
    cos = dot / (snc * tnc)
    out = Value(cos, "row_cosine", (s, t))

    def bw(g):
        # Norm factors are constants on clamped rows.
        _accum(s, g * (t.data / (snc * tnc) - cos * s.data / (snc * snc) * s_ok))
        _accum(t, g * (s.data / (snc * tnc) - cos * t.data / (tnc * tnc) * t_ok))

    out._backward = bw
    return out


def cross_entropy(p: Value, o) -> Value:
    """Mean over rows of -sum_c o*log(p), with p clamped to the safe band.

    o is a constant label matrix (one-hot or soft rows); gradient flows to
    p only.
    """
    o = np.asarray(o, dtype=np.float64)
    if o.shape != p.shape:
        raise ShapeError(f"cross_entropy: p {p.shape}, labels {o.shape}")
    pc = np.clip(p.data, PROB_EPS, 1.0 - PROB_EPS)
    inside = (p.data > PROB_EPS) & (p.data < 1.0 - PROB_EPS)
    n = p.shape[0]
    loss = -(o * np.log(pc)).sum() / n
    out = Value([[loss]], "cross_entropy", (p,))

    def bw(g):
        _accum(p, g[0, 0] * (-o / pc) * inside / n)

    out._backward = bw
    return out


def kl_div(o, p: Value) -> Value:
    """Mean over rows of KL(o || p); gradient flows to p only."""
    o = np.asarray(o, dtype=np.float64)
    if o.shape != p.shape:
        raise ShapeError(f"kl_div: p {p.shape}, target {o.shape}")
    pc = np.clip(p.data, PROB_EPS, 1.0)
    inside = (p.data > PROB_EPS) & (p.data < 1.0)
    n = p.shape[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(o > 0.0, o * np.log(np.where(o > 0.0, o, 1.0) / pc), 0.0)
    loss = terms.sum() / n
    out = Value([[loss]], "kl_div", (p,))

    def bw(g):
        _accum(p, g[0, 0] * (-o / pc) * inside / n)

    out._backward = bw
    return out


def frobenius_sq(x: Value) -> Value:
    out = Value([[float((x.data * x.data).sum())]], "frobenius_sq", (x,))

    def bw(g):
        _accum(x, 2.0 * g[0, 0] * x.data)

    out._backward = bw
    return out


def mean_all(x: Value) -> Value:
    size = x.data.size
    out = Value([[float(x.data.mean())]], "mean_all", (x,))

    def bw(g):
        _accum(x, np.full_like(x.data, g[0, 0] / size))

    out._backward = bw
    return out


def mse(x: Value, target) -> Value:
    """Mean squared error against a constant target array."""
    target = np.asarray(target, dtype=np.float64)
    if target.shape != x.shape:
        raise ShapeError(f"mse: x {x.shape}, target {target.shape}")
    diff = x.data - target
    size = x.data.size
    out = Value([[float((diff * diff).mean())]], "mse", (x,))

    def bw(g):
        _accum(x, 2.0 * g[0, 0] * diff / size)

    out._backward = bw
    return out


# ---------------------------------------------------------------------------
# Finite-difference gradient checking
# ---------------------------------------------------------------------------

def finite_diff_check(fn, leaves: list[Value], eps: float = 3e-4) -> float:
    """Compare tape gradients of fn(leaves) against finite differences.

    The oracle is the five-point central stencil
    (8(f(x+h) - f(x-h)) - (f(x+2h) - f(x-2h))) / 12h with h = eps. Its
    truncation error is O(h^4), so h can be large enough that the loss's
    float64 roundoff, divided by h, stays well below the 1e-4 tolerance even
    for gradients near 1e-7; h must still be smaller than the distance to
    the nearest kink (ReLU, clamp) of fn. The two differences are taken
    before they are combined, so a coordinate the loss does not depend on
    reads exactly 0.

    fn must rebuild its graph from the given leaves on every call and
    return a scalar Value. Returns the max over all leaf coordinates of
    |g_fd - g_tape| / max(1e-8, |g_fd| + |g_tape|).
    """
    zero_grads(leaves)
    out = fn(leaves)
    backward(out)
    tape_grads = [
        leaf.grad.copy() if leaf.grad is not None else np.zeros_like(leaf.data)
        for leaf in leaves
    ]

    def loss_at(flat, i, x):
        flat[i] = x
        return fn(leaves).item()

    worst = 0.0
    for leaf, tape in zip(leaves, tape_grads):
        flat = leaf.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            d1 = loss_at(flat, i, orig + eps) - loss_at(flat, i, orig - eps)
            d2 = loss_at(flat, i, orig + 2.0 * eps) - loss_at(flat, i, orig - 2.0 * eps)
            flat[i] = orig
            g_fd = (8.0 * d1 - d2) / (12.0 * eps)
            g_tape = tape.reshape(-1)[i]
            rel = abs(g_fd - g_tape) / max(1e-8, abs(g_fd) + abs(g_tape))
            worst = max(worst, rel)
    zero_grads(leaves)
    return worst
