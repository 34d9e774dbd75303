"""Wrong gradient rules, for tests that check the gradient checks.

The shipped code has no fault switch: these rules reach it only through
pytest's ``monkeypatch``.

Bind one with ``monkeypatch.setattr(autodiff, "matmul", faulty_matmul)`` (or
``"affine"``, ``faulty_affine``; ``"spmm"``, ``transposeless_spmm``; ``"exp"``,
``untaped_drift_exp``): every
caller looks the op up on the module at call time, so while it is bound every
gradient check that reaches the op must fail. ``nan_gradient_backward``,
bound as ``"backward"``, leaves a NaN in one parameter gradient of every sweep,
for tests of the training loop's gradient check.
"""

import numpy as np

from dualrec import autodiff as ad

_matmul = ad.matmul
_affine = ad.affine
_spmm = ad.spmm
_exp = ad.exp
_backward = ad.backward


def faulty_matmul(a, b):
    """``matmul`` whose weight-gradient rule is 1% off."""
    out = _matmul(a, b)
    lhs, rhs, an, bn = a.data, b.data, a.node, b.node

    def bw(g):
        ad._accum(an, g @ rhs.T)
        ad._accum(bn, (lhs.T @ g) * 1.01)

    out._backward = bw
    return out


def faulty_affine(x, w, b):
    """``affine`` whose weight-gradient rule is 1% off."""
    out = _affine(x, w, b)
    lhs, rhs, xn, wn, bn = x.data, w.data, x.node, w.node, b.node

    def bw(g):
        ad._accum(xn, g @ rhs.T)
        ad._accum(wn, (lhs.T @ g) * 1.01)
        ad._accum(bn, g.sum(axis=0, keepdims=True))

    out._backward = bw
    return out


def transposeless_spmm(a, x):
    """``spmm`` whose backward multiplies by ``a`` where ``a.T`` belongs."""
    out = _spmm(a, x)
    xn = x.node

    def bw(g):
        ad._accum(xn, np.asarray(a @ g))

    out._backward = bw
    return out


def untaped_drift_exp(x):
    """``exp`` whose tape-free branch computes e**(1.01 x) while its taped
    branch, gradient included, is right: only a check that probes tape-free
    sees it."""
    if ad._taping:
        return _exp(x)
    return ad.Value(np.exp(1.01 * x.data), "exp")


def nan_gradient_backward(loss):
    """``backward`` that then sets the first entry of one leaf's gradient to NaN."""
    leaves = [node for node in ad._toposort(loss.node) if node.op == "leaf"]
    _backward(loss)
    leaf = next(node for node in leaves if node.grad is not None)
    leaf.grad = leaf.grad.copy()  # the stored gradient may be shared with another node
    leaf.grad.flat[0] = np.nan
