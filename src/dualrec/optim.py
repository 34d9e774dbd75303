"""Adam optimizer over named Value parameters."""

from __future__ import annotations

import numpy as np

from .autodiff import ContractError, Value

BETA1 = 0.9  # first-moment decay
BETA2 = 0.999  # second-moment decay
EPS = 1e-8  # added to the root of the second moment


class Adam:
    """Standard Adam with bias correction.

    Parameters are a name -> Value mapping whose iteration order is fixed
    at construction; the moment buffers are keyed by the same names so an
    update is deterministic given (params, grads, state).
    """

    def __init__(self, params: dict[str, Value], lr: float = 0.001):
        self.params = dict(params)
        self.lr = lr
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            elif g.shape != p.data.shape:
                raise ContractError(
                    f"gradient shape {g.shape} != parameter shape {p.data.shape} for {name!r}")
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None
