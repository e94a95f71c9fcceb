"""Fully connected (dense) layer."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...rng import default_generator
from .base import Layer

__all__ = ["Dense"]


class Dense(Layer):
    """Affine map ``y = x @ W + b``.

    Parameters
    ----------
    name:
        Layer name (weights appear as ``<name>/weight`` to the trainer).
    in_features, out_features:
        Input/output widths.
    weight_init_std:
        Std of the zero-mean Gaussian weight init.  ``None`` uses He
        initialization ``sqrt(2 / in_features)``; the GM regularizer's
        starting precisions are derived from the value actually used,
        exposed as :attr:`weight_init_std`.
    rng:
        Seeded generator for initialization.
    """

    def __init__(
        self,
        name: str,
        in_features: int,
        out_features: int,
        weight_init_std: Optional[float] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__(name)
        if min(in_features, out_features) < 1:
            raise ValueError("in_features and out_features must be >= 1")
        rng = rng if rng is not None else default_generator()
        if weight_init_std is None:
            weight_init_std = float(np.sqrt(2.0 / in_features))
        self.weight_init_std = float(weight_init_std)
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.weight = self.add_param(
            "weight",
            rng.normal(0.0, self.weight_init_std, size=(in_features, out_features)),
        )
        self.bias = self.add_param("bias", np.zeros(out_features))
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"{self.name}: expected (N, {self.in_features}), got {x.shape}"
            )
        self._x = x if training else None
        return x @ self.weight + self.bias

    def backward(self, grad_out: np.ndarray) -> Optional[np.ndarray]:
        if self._x is None:
            raise RuntimeError(f"{self.name}: backward before training forward")
        self.grads["weight"][...] = self._x.T @ grad_out
        self.grads["bias"][...] = grad_out.sum(axis=0)
        if not self.input_grad:
            return None
        return grad_out @ self.weight.T
