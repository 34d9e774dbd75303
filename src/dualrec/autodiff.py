"""Reverse-mode automatic differentiation over dense float64 matrices.

Every differentiable quantity in the model is a :class:`Value`: a 2-D
float64 array (``data``) plus its tape :class:`Node`. The node holds the
lazily allocated gradient slot, the op name, the parent *nodes* and the
backward closure; it holds no array of its own. Graphs are built
dynamically (one per training batch) and swept once by :func:`backward`;
gradients accumulate by summation over fan-out.

Each backward closure captures exactly the arrays it reads, or only a
shape where it reads no array:

- ``matmul`` keeps both operands and ``affine`` its input and weight (not
  its bias); ``weighted_sum``, ``row_cosine`` and ``frobenius_sq`` keep
  their inputs;
- ``exp`` and ``softmax_rows`` keep their own output;
- ``relu``, ``clamp`` and ``square`` keep a local derivative array (a
  mask or ``2x``), not their input; ``leaky_relu`` keeps its bool
  ``x > 0`` mask and rebuilds its {1, ``LEAKY_SLOPE``} factor from it in
  the backward;
- ``cross_entropy`` and ``kl_div`` keep the clipped probabilities, their
  band mask and the constant targets;
- ``add``, ``concat_cols``, ``spmm``, ``mul_const`` and ``affine_const``
  keep no input or output array, only their constants; ``gather_rows`` and
  ``mean_all`` keep only a shape.

So a forward intermediate is freed as soon as the forward code drops its
Value, unless some backward reads it; in ``relu(affine(spmm(A, E), W, b))``
the ``affine`` output goes at once, and the ``spmm`` output lives on in the
``affine`` backward.

A graph is consumed by its sweep: each node drops its closure, and with it
the arrays the closure kept, and its parent links once its own backward has
run, so the tape is freed by reference counting as the sweep goes, and only
the nodes the caller still holds (through their Values) survive it, with
their ``.grad``. For that to work no backward closure may refer to its own
output node or Value; a closure that did would make the node a reference
cycle that only the cyclic garbage collector frees.

Every one-parent elementwise op but ``leaky_relu`` (``mul_const``,
``affine_const``, ``relu``, ``exp``, ``square``, ``clamp``) is built by
:func:`_elementwise`: the op computes its output and, when taped, its local
derivative array in the forward, and the shared backward multiplies the
upstream gradient by that array, which is all it keeps. ``leaky_relu``
multiplies by the factor it rebuilds from its kept mask.

Inside a ``with no_grad():`` scope nothing is recorded: every op computes
the same output bits, but returns a Value with no parents and no backward
closure, and the elementwise ops do not form their local derivative arrays.
Such a Value cannot be swept (:func:`backward` rejects it), and it holds no
reference to its inputs, so each intermediate is freed as soon as the
caller drops it. Evaluation and the finite-difference probes run the one
model forward inside this scope.

Sparse adjacency matrices, labels, mixing coefficients and sampled noise
enter ops as plain constants and never receive gradients.
"""

from __future__ import annotations

import contextlib
import math
import sys
from collections.abc import Iterator

import numpy as np
import scipy.sparse as sp

LEAKY_SLOPE = 0.01
PROB_EPS = 1e-12
NORM_EPS = 1e-12
LOG_SIGMA_BOUND = 10.0


class ContractError(RuntimeError):
    """An operation precondition was violated, such as incompatible operand shapes."""


# Diagnostics: number of rows whose norm was clamped inside row_cosine.
_clamp_events = 0

# False inside a no_grad() scope: ops then record no parents and no backward.
_taping = True


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Scope in which ops build untaped Values; the previous mode is restored on exit."""
    global _taping
    was_taping = _taping
    _taping = False
    try:
        yield
    finally:
        _taping = was_taping


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
        raise ContractError(f"expected a 2-D matrix, got shape {arr.shape}")
    return np.ascontiguousarray(arr)


class Node:
    """Tape entry of one Value: gradient slot, op name, parent nodes, backward.

    A node holds no payload: what its backward reads it captured itself, so
    a parent link keeps the parent's tape alive but not the parent's array.
    """

    __slots__ = ("grad", "op", "_parents", "_backward")

    def __init__(self, op: str):
        self.grad: np.ndarray | None = None
        self.op = op
        self._parents: tuple[Node, ...] = ()
        self._backward = None


class Value:
    """Payload matrix plus its tape node; the tape attributes read through to the node."""

    __slots__ = ("data", "node")

    def __init__(self, data, op: str = "leaf"):
        self.data = _as_matrix(data)
        self.node = Node(op)

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    @property
    def op(self) -> str:
        return self.node.op

    @property
    def grad(self) -> np.ndarray | None:
        return self.node.grad

    @grad.setter
    def grad(self, grad: np.ndarray | None) -> None:
        self.node.grad = grad

    @property
    def _backward(self):
        return self.node._backward

    @_backward.setter
    def _backward(self, backward) -> None:
        self.node._backward = backward

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise ContractError(f"item() on non-scalar value of shape {self.shape}")
        return float(self.data[0, 0])

    def __repr__(self) -> str:
        return f"Value(op={self.op!r}, shape={self.shape})"


class Params(dict):
    """Named leaf Values in draw order, each drawn from ``N(mean, std)`` on one generator.

    Every weight is named where it is drawn, so a model's names, shapes and
    initial bits come from one place.
    """

    def __init__(self, rng: np.random.Generator, std: float):
        super().__init__()
        self.rng = rng
        self.std = std

    def new(self, name: str, shape: tuple[int, int], mean: float = 0.0) -> Value:
        if name in self:
            raise ContractError(f"parameter {name!r} is already drawn")
        if math.prod(shape) * 8 > sys.maxsize:  # numpy would raise a ValueError instead
            raise MemoryError(f"parameter {name!r} of shape {shape} exceeds the address space")
        self[name] = leaf = Value(self.rng.normal(mean, self.std, size=shape))
        return leaf


def _accum(node: Node, grad: np.ndarray, shared: bool = False) -> None:
    """Add ``grad`` into ``node.grad``; the first gradient is stored as is.

    A backward passes ``shared=True`` when ``grad`` is also reachable
    elsewhere (its own upstream gradient, or a view of it), so the stored
    array is copied and later ``+=`` cannot write through to another node.
    """
    if node.grad is None:
        node.grad = grad.copy() if shared else grad
    else:
        node.grad += grad


def zero_grads(values) -> None:
    for v in values:
        v.grad = None


def _toposort(root: Node) -> list[Node]:
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
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
    closure and parent links are dropped, and with the closure the arrays
    it kept. A node nobody else holds is then freed, grad included; a node
    the caller holds (through its Value) keeps its ``.grad`` but no longer
    reaches its ancestors, so a graph can be swept only once: a second
    sweep, like a sweep of a loss built under :func:`no_grad`, raises
    ContractError.
    """
    if loss.shape != (1, 1):
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    root = loss.node
    if root.op != "leaf" and root._backward is None:
        raise ContractError(
            f"backward: the {root.op} loss has no tape (built under no_grad, or already swept)"
        )
    order = _toposort(root)
    _accum(root, np.ones((1, 1)))
    while order:
        node = order.pop()
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
        node._backward = None
        node._parents = ()


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

def _output(data, op: str, parents: tuple[Node, ...], backward):
    """The output of ``op``: taped with its parent nodes and backward, or bare under no_grad."""
    out = Value(data, op)
    if _taping:
        out.node._parents = parents
        out.node._backward = backward
    return out


def _elementwise(x: Value, data, op: str, local):
    """Node ``op`` over the single parent x whose backward is ``g * local()``.

    ``local`` forms the local derivative array; it is called only when the
    op is taped, and the backward keeps that array instead of x's payload
    (it is ``exp``'s own output, a mask for ``relu`` and ``clamp``).
    """
    if not _taping:
        return Value(data, op)
    d = local()
    xn = x.node

    def bw(g):
        _accum(xn, g * d)

    return _output(data, op, (xn,), bw)


def add(a: Value, b: Value) -> Value:
    if a.shape != b.shape:
        raise ContractError(f"add: {a.shape} vs {b.shape}")
    an, bn = a.node, b.node

    def bw(g):
        _accum(an, g, shared=True)
        _accum(bn, g, shared=True)

    return _output(a.data + b.data, "add", (an, bn), bw)


def mul_const(a: Value, c) -> Value:
    """Elementwise product with a constant scalar or array (no grad to c)."""
    c = np.asarray(c, dtype=np.float64)
    out = _elementwise(a, a.data * c, "mul_const", lambda: c)
    if out.shape != a.shape:
        raise ContractError(
            f"mul_const: constant of shape {c.shape} broadcasts {a.shape} to {out.shape}"
        )
    return out


def affine_const(a: Value, mul: float, offset: float) -> Value:
    """mul * a + offset, both plain floats."""
    return _elementwise(a, a.data * mul + offset, "affine_const", lambda: mul)


def sub(a: Value, b: Value) -> Value:
    return add(a, mul_const(b, -1.0))


def matmul(a: Value, b: Value) -> Value:
    if a.shape[1] != b.shape[0]:
        raise ContractError(f"matmul: {a.shape} @ {b.shape}")
    lhs, rhs = a.data, b.data
    an, bn = a.node, b.node

    def bw(g):
        _accum(an, g @ rhs.T)
        _accum(bn, lhs.T @ g)

    return _output(lhs @ rhs, "matmul", (an, bn), bw)


def affine(x: Value, w: Value, b: Value) -> Value:
    """x @ w + b, with the 1-row bias b broadcast over the rows."""
    if x.shape[1] != w.shape[0]:
        raise ContractError(f"affine: {x.shape} @ {w.shape}")
    if b.shape != (1, w.shape[1]):
        raise ContractError(f"affine: bias {b.shape} for width {w.shape[1]}")
    lhs, rhs = x.data, w.data
    xn, wn, bn = x.node, w.node, b.node

    def bw(g):
        _accum(xn, g @ rhs.T)
        _accum(wn, lhs.T @ g)
        _accum(bn, g.sum(axis=0, keepdims=True))

    out = lhs @ rhs
    out += b.data
    return _output(out, "affine", (xn, wn, bn), bw)


def spmm(a: sp.spmatrix | sp.sparray, x: Value) -> Value:
    """Sparse-dense product a @ x; a is constant and receives no gradient."""
    if a.shape[1] != x.shape[0]:
        raise ContractError(f"spmm: {a.shape} @ {x.shape}")
    xn = x.node

    def bw(g):
        # a.T of a CSR matrix is a CSC view of the same arrays, not a copy
        _accum(xn, np.asarray(a.T @ g))

    return _output(np.asarray(a @ x.data), "spmm", (xn,), bw)


def gather_rows(x: Value, idx) -> Value:
    """Rows ``idx`` of ``x``; the backward writes by rows when ``idx`` is
    strictly increasing and otherwise scatter-adds, bitwise as ``np.add.at``."""
    idx = np.asarray(idx, dtype=np.intp)
    if idx.ndim != 1:
        raise ContractError("gather_rows: index must be 1-D")
    xn, shape = x.node, x.shape

    def bw(g):
        if (idx[1:] > idx[:-1]).all():
            # each row is read at most once: its gradient is its row of g
            out = np.zeros(shape)
            out[idx] = g
            _accum(xn, out)
            return
        # scatter-add as the product of g with the transposed one-hot
        # selector; scipy sums each output row in index order, so the result
        # equals np.add.at into zeros bit for bit
        n = idx.shape[0]
        sel = sp.csr_matrix((np.ones(n), idx, np.arange(n + 1)), shape=(n, shape[0]))
        _accum(xn, np.asarray(sel.T @ g))

    return _output(x.data[idx], "gather_rows", (xn,), bw)


def concat_cols(parts: list[Value]) -> Value:
    if not parts:
        raise ContractError("concat_cols: empty input")
    rows = parts[0].shape[0]
    if any(p.shape[0] != rows for p in parts):
        raise ContractError("concat_cols: row counts differ")
    nodes = tuple(p.node for p in parts)
    widths = [p.shape[1] for p in parts]

    def bw(g):
        start = 0
        for node, width in zip(nodes, widths):
            _accum(node, g[:, start:start + width], shared=True)
            start += width

    return _output(np.hstack([p.data for p in parts]), "concat_cols", nodes, bw)


def relu(x: Value) -> Value:
    # subgradient at 0 is 0
    return _elementwise(x, np.maximum(x.data, 0.0), "relu", lambda: x.data > 0.0)


def _leaky_factor(pos: np.ndarray) -> np.ndarray:
    """``np.where(pos, 1.0, LEAKY_SLOPE)`` bit for bit, without the per-entry
    branch of a scalar ``np.where``."""
    factor = pos.astype(np.float64)
    return np.maximum(factor, LEAKY_SLOPE, out=factor)


def leaky_relu(x: Value) -> Value:
    # the backward keeps the bool mask, not a float64 factor of x's shape
    pos = x.data > 0.0
    xn = x.node

    def bw(g):
        _accum(xn, g * _leaky_factor(pos))

    return _output(x.data * _leaky_factor(pos), "leaky_relu", (xn,), bw)


def exp(x: Value) -> Value:
    e = np.exp(x.data)
    return _elementwise(x, e, "exp", lambda: e)


def square(x: Value) -> Value:
    return _elementwise(x, x.data * x.data, "square", lambda: 2.0 * x.data)


def clamp(x: Value, lo: float, hi: float) -> Value:
    return _elementwise(
        x, np.clip(x.data, lo, hi), "clamp", lambda: (x.data > lo) & (x.data < hi)
    )


def softmax_rows(x: Value) -> Value:
    """Rowwise softmax with max-subtraction for overflow safety."""
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)
    xn = x.node

    def bw(g):
        inner = (g * p).sum(axis=1, keepdims=True)
        _accum(xn, p * (g - inner))

    return _output(p, "softmax_rows", (xn,), bw)


def weighted_sum(parts: list[Value], weights: Value) -> Value:
    """Per-row mix sum_c weights[:, c] * parts[c] of same-shape parts, added in part order."""
    if not parts:
        raise ContractError("weighted_sum: empty input")
    shape = parts[0].shape
    if any(p.shape != shape for p in parts) or weights.shape != (shape[0], len(parts)):
        raise ContractError(
            f"weighted_sum: parts {[p.shape for p in parts]}, weights {weights.shape}"
        )
    datas, wd = [p.data for p in parts], weights.data
    nodes, wn = tuple(p.node for p in parts), weights.node

    def bw(g):
        # each column sum is added onto zeros, so a -0.0 sum is stored as +0.0
        wg = np.zeros(wd.shape)
        for c, (node, xd) in enumerate(zip(nodes, datas)):
            _accum(node, g * wd[:, c:c + 1])
            wg[:, c] += (g * xd).sum(axis=1)
        _accum(wn, wg)

    out = datas[0] * wd[:, :1]
    for c in range(1, len(parts)):
        out += datas[c] * wd[:, c:c + 1]
    return _output(out, "weighted_sum", (*nodes, wn), bw)


def row_cosine(s: Value, t: Value) -> Value:
    """Per-row cosine similarity; zero-norm rows are clamped at NORM_EPS."""
    global _clamp_events
    if s.shape != t.shape:
        raise ContractError(f"row_cosine: {s.shape} vs {t.shape}")
    sd, td = s.data, t.data
    sn = np.linalg.norm(sd, axis=1, keepdims=True)
    tn = np.linalg.norm(td, axis=1, keepdims=True)
    s_ok = sn >= NORM_EPS
    t_ok = tn >= NORM_EPS
    clamped = int((~s_ok).sum() + (~t_ok).sum())
    if clamped:
        _clamp_events += clamped
    snc = np.maximum(sn, NORM_EPS)
    tnc = np.maximum(tn, NORM_EPS)
    dot = (sd * td).sum(axis=1, keepdims=True)
    cos = dot / (snc * tnc)
    s_node, t_node = s.node, t.node

    def bw(g):
        # Norm factors are constants on clamped rows.
        _accum(s_node, g * (td / (snc * tnc) - cos * sd / (snc * snc) * s_ok))
        _accum(t_node, g * (sd / (snc * tnc) - cos * td / (tnc * tnc) * t_ok))

    return _output(cos, "row_cosine", (s_node, t_node), bw)


def cross_entropy(p: Value, o) -> Value:
    """Mean over rows of -sum_c o*log(p), with p clamped to the safe band.

    o is a constant label matrix (one-hot or soft rows); gradient flows to
    p only.
    """
    o = np.asarray(o, dtype=np.float64)
    if o.shape != p.shape:
        raise ContractError(f"cross_entropy: p {p.shape}, labels {o.shape}")
    pc = np.clip(p.data, PROB_EPS, 1.0 - PROB_EPS)
    inside = (p.data > PROB_EPS) & (p.data < 1.0 - PROB_EPS)
    n = p.shape[0]
    loss = -(o * np.log(pc)).sum() / n
    pn = p.node

    def bw(g):
        _accum(pn, g[0, 0] * (-o / pc) * inside / n)

    return _output([[loss]], "cross_entropy", (pn,), bw)


def kl_div(o, p: Value) -> Value:
    """Mean over rows of KL(o || p); gradient flows to p only."""
    o = np.asarray(o, dtype=np.float64)
    if o.shape != p.shape:
        raise ContractError(f"kl_div: p {p.shape}, target {o.shape}")
    pc = np.clip(p.data, PROB_EPS, 1.0)
    inside = (p.data > PROB_EPS) & (p.data < 1.0)
    n = p.shape[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(o > 0.0, o * np.log(np.where(o > 0.0, o, 1.0) / pc), 0.0)
    loss = terms.sum() / n
    pn = p.node

    def bw(g):
        _accum(pn, g[0, 0] * (-o / pc) * inside / n)

    return _output([[loss]], "kl_div", (pn,), bw)


def frobenius_sq(x: Value) -> Value:
    xd, xn = x.data, x.node

    def bw(g):
        _accum(xn, 2.0 * g[0, 0] * xd)

    return _output([[float((xd * xd).sum())]], "frobenius_sq", (xn,), bw)


def mean_all(x: Value) -> Value:
    xn, shape, size = x.node, x.shape, x.data.size

    def bw(g):
        _accum(xn, np.full(shape, g[0, 0] / size))

    return _output([[float(x.data.mean())]], "mean_all", (xn,), bw)


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
    return a scalar Value. The tape gradients come from one taped call; the
    probes run under :func:`no_grad`, so an op whose untaped output differs
    from its taped output fails the check too. Returns the max over all
    leaf coordinates of |g_fd - g_tape| / max(1e-8, |g_fd| + |g_tape|).
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
    with no_grad():
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
