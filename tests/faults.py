"""A wrong gradient rule, for tests that check the gradient checks.

Bind it with ``monkeypatch.setattr(autodiff, "matmul", faulty_matmul)``:
every caller looks ``matmul`` up on the module at call time, so while it is
bound every gradient check must fail.
"""

from dualrec import autodiff as ad

_matmul = ad.matmul


def faulty_matmul(a, b):
    """``matmul`` whose weight-gradient rule is 1% off."""
    out = _matmul(a, b)

    def bw(g):
        ad._accum(a, g @ b.data.T)
        ad._accum(b, (a.data.T @ g) * 1.01)

    out._backward = bw
    return out
