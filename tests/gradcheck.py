"""Finite-difference gradient checking for the tests: compares the gradient
the tape computes with central differences."""

from typing import Callable

import numpy as np

from logcad.tensor import GradGraph, Tensor


def gradient_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-4) -> float:
    """Max relative error between the analytic gradient of ``f`` at ``x`` and
    central finite differences with step ``eps``.

    ``f`` must be scalar-valued. Relative error per coordinate is
    ``|analytic - numeric| / max(|analytic|, |numeric|, 1e-8)``.
    """
    if eps <= 0:
        raise ValueError("gradient_check: eps must be positive")
    x.grad = None
    with GradGraph() as g:
        out = f(x)
        if out.size != 1:
            raise ValueError(f"gradient_check: f must be scalar-valued, got shape {out.shape}")
        g.backward(out)
    analytic = x.grad.copy() if x.grad is not None else np.zeros_like(x.data)

    flat = x.data.reshape(-1)
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x).item()
        flat[i] = orig - eps
        lo = f(x).item()
        flat[i] = orig
        numeric[i] = (hi - lo) / (2.0 * eps)
    numeric = numeric.reshape(x.shape)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))

