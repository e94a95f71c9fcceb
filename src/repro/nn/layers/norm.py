"""Normalization layers: batch normalization and local response norm.

The Alex-CIFAR-10 model of Table III uses **LRN** (local response
normalization across channels, Krizhevsky et al. 2012); the ResNet uses
**batch normalization** — which the paper notes acts as an implicit
regularizer and is why ResNet benefits less from explicit L2 (Section
V-B3).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import Layer

__all__ = ["BatchNorm2D", "LocalResponseNorm"]


class BatchNorm2D(Layer):
    """Per-channel batch normalization for ``(N, C, H, W)`` tensors.

    Running statistics (exponential moving average) are used at
    inference time.  The scale ``gamma`` and offset ``beta`` are
    trainable but *not* regularized (see
    :meth:`Layer.regularizable_keys`).
    """

    def __init__(self, name: str, channels: int, momentum: float = 0.9, eps: float = 1e-5):
        super().__init__(name)
        if channels < 1:
            raise ValueError(f"channels must be >= 1, got {channels}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.channels = int(channels)
        self.momentum = float(momentum)
        self.eps = float(eps)
        self.gamma = self.add_param("gamma", np.ones(channels))
        self.beta = self.add_param("beta", np.zeros(channels))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self._cache: Optional[dict] = None

    def cast_extras(self, dtype: np.dtype) -> None:
        """Running statistics follow the compute dtype: left at float64
        they would silently upcast every inference forward."""
        self.running_mean = self.running_mean.astype(dtype)
        self.running_var = self.running_var.astype(dtype)

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise ValueError(
                f"{self.name}: expected (N, {self.channels}, H, W), got {x.shape}"
            )
        if training:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            self.running_mean = (
                self.momentum * self.running_mean + (1.0 - self.momentum) * mean
            )
            self.running_var = (
                self.momentum * self.running_var + (1.0 - self.momentum) * var
            )
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
        out = (
            self.gamma[None, :, None, None] * x_hat
            + self.beta[None, :, None, None]
        )
        if training:
            self._cache = {"x_hat": x_hat, "inv_std": inv_std}
        else:
            self._cache = None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward before training forward")
        x_hat = self._cache["x_hat"]
        inv_std = self._cache["inv_std"]
        n, _, h, w = grad_out.shape
        m = n * h * w
        self.grads["gamma"][...] = (grad_out * x_hat).sum(axis=(0, 2, 3))
        self.grads["beta"][...] = grad_out.sum(axis=(0, 2, 3))
        g = grad_out * self.gamma[None, :, None, None]
        sum_g = g.sum(axis=(0, 2, 3), keepdims=True)
        sum_gx = (g * x_hat).sum(axis=(0, 2, 3), keepdims=True)
        grad_in = (
            inv_std[None, :, None, None] / m * (m * g - sum_g - x_hat * sum_gx)
        )
        return grad_in


class LocalResponseNorm(Layer):
    """Across-channel LRN (Krizhevsky et al., 2012).

    ``y_c = x_c / (k + (alpha / n) * sum_{c' in window} x_{c'}^2) ** beta``

    with a window of ``n`` adjacent channels centered at ``c``.  The
    Caffe CIFAR-10 "alexnet" recipe uses n=3, alpha=5e-5, beta=0.75,
    which are the defaults here.
    """

    def __init__(
        self,
        name: str,
        size: int = 3,
        alpha: float = 5e-5,
        beta: float = 0.75,
        k: float = 1.0,
    ):
        super().__init__(name)
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        self.size = int(size)
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.k = float(k)
        self._cache: Optional[dict] = None

    def _window_sum(self, a: np.ndarray) -> np.ndarray:
        """``sum_{|c' - c| <= size // 2} a_{c'}`` for every channel ``c``.

        The window is clipped at the first and last channel: one
        shifted-slice add per neighbour on each side, ``size // 2``
        pairs (DESIGN.md §4j).  The sum keeps ``a``'s memory order, so
        on channel-last activations the slices run along the
        contiguous axis.
        """
        out = a.copy(order="K")
        for d in range(1, min(self.size // 2, a.shape[1] - 1) + 1):
            out[:, d:] += a[:, :-d]
            out[:, :-d] += a[:, d:]
        return out

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError(f"{self.name}: expected (N, C, H, W), got {x.shape}")
        window = self._window_sum(x * x)
        denom_base = self.k + (self.alpha / self.size) * window
        denom = denom_base**self.beta
        out = x / denom
        if training:
            self._cache = {"x": x, "denom_base": denom_base, "denom": denom}
        else:
            self._cache = None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward before training forward")
        x = self._cache["x"]
        denom_base = self._cache["denom_base"]
        denom = self._cache["denom"]
        # dy_c/dx_c (direct) and the cross-channel term through the window.
        direct = grad_out / denom
        # For each channel c', sum over channels c whose window contains c':
        # dL/dx_{c'} -= 2 alpha beta / n * x_{c'} * sum_c [g_c x_c / base_c^{beta+1}]
        # The window is symmetric, so summing over the windows that
        # contain c' is the same window sum.  base^(beta+1) = denom*base.
        inner = grad_out * x / (denom * denom_base)
        cross = (2.0 * self.alpha * self.beta / self.size) * x * self._window_sum(inner)
        return direct - cross
