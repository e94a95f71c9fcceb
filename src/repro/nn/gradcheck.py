"""Numerical gradient checking for layers and networks.

The backward passes in this framework are hand-derived; these helpers
compare them against central finite differences.  They are used by the
test suite for every layer type and for a whole small network, which is
the strongest correctness evidence a from-scratch framework can offer.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from .layers.base import Layer, input_gradient

__all__ = ["numerical_gradient", "check_layer_gradients", "max_relative_error"]


def numerical_gradient(
    f: Callable[[], float], x: np.ndarray, eps: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of scalar ``f()`` w.r.t. array ``x``.

    ``x`` is perturbed in place and restored; ``f`` must re-read ``x``
    on every call.
    """
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = f()
        flat[i] = original - eps
        minus = f()
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2.0 * eps)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """``max |a - n| / max(|a|, |n|, 1e-8)`` over all entries."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_layer_gradients(
    layer: Layer,
    x: np.ndarray,
    rng: np.random.Generator,
    eps: float = 1e-5,
) -> Tuple[float, dict]:
    """Compare a layer's backward pass against finite differences.

    The scalar objective is ``sum(forward(x) * R)`` for a fixed random
    ``R``, whose analytic gradient w.r.t. the output is exactly ``R``.

    Returns
    -------
    (input_error, param_errors):
        Max relative error for the input gradient and a dict of the
        same per parameter key.
    """
    out = layer.forward(x, training=True)
    r = rng.standard_normal(out.shape)

    def objective() -> float:
        return float(np.sum(layer.forward(x, training=True) * r))

    # Analytic gradients (recompute forward so caches match `objective`).
    layer.forward(x, training=True)
    grad_in = input_gradient(layer, r.copy())
    input_error = max_relative_error(grad_in, numerical_gradient(objective, x, eps))

    param_errors = {}
    for key, value in layer.params.items():
        analytic = layer.grads[key].copy()
        numeric = numerical_gradient(objective, value, eps)
        param_errors[key] = max_relative_error(analytic, numeric)
    return input_error, param_errors
