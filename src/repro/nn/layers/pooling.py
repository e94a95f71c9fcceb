"""Max and average pooling layers."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...core.fusion import Workspace
from ..im2col import conv_output_size, pad_channel_last, window_view
from .base import Layer

__all__ = ["MaxPool2D", "AvgPool2D", "GlobalAvgPool2D"]


class _Pool2D(Layer):
    """Shared plumbing for window pooling over ``(N, C, H, W)``.

    Pooling reduces the ``window * window`` strided slices of the
    channel-last input (one per window offset) directly; no patch
    matrix is built.  ``pad`` must be smaller than ``window``, so every
    window holds at least one input cell.
    """

    #: Value of the pad border.
    pad_value = 0.0

    def __init__(self, name: str, window: int, stride: Optional[int] = None, pad: int = 0):
        super().__init__(name)
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        stride = window if stride is None else stride
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        if not 0 <= pad < window:
            raise ValueError(f"pad must be in [0, window={window}), got {pad}")
        self.window = int(window)
        self.stride = int(stride)
        self.pad = int(pad)
        self._cache: Optional[dict] = None
        # The training forward's padded input; inference forwards may
        # run concurrently and allocate their own.
        self._workspace = Workspace()

    def _slices(self, x: np.ndarray, training: bool):
        """The ``window * window`` strided ``(N, OH, OW, C)`` slices of
        the padded channel-last input, window offsets row-major."""
        _, _, h, w = x.shape
        k = self.window
        out_h = conv_output_size(h, k, self.stride, self.pad)
        out_w = conv_output_size(w, k, self.stride, self.pad)
        img = pad_channel_last(
            x, self.pad, self.pad_value,
            workspace=self._workspace if training else None,
        )
        view = window_view(img, k, k, self.stride, out_h, out_w)
        return [view[:, :, :, dy, dx] for dy in range(k) for dx in range(k)]

    def _grad_slices(self, input_shape: tuple, grad_out: np.ndarray):
        """A zero channel-last gradient image of the padded input and its
        writable slices, in :meth:`_slices` order."""
        n, c, h, w = input_shape
        _, _, out_h, out_w = grad_out.shape
        k, s, p = self.window, self.stride, self.pad
        grad = np.zeros((n, h + 2 * p, w + 2 * p, c), dtype=grad_out.dtype)
        return grad, [
            grad[:, dy : dy + s * out_h : s, dx : dx + s * out_w : s]
            for dy in range(k)
            for dx in range(k)
        ]

    def _crop(self, grad: np.ndarray, input_shape: tuple) -> np.ndarray:
        """The input gradient: the gradient image without its pad."""
        _, _, h, w = input_shape
        p = self.pad
        return grad[:, p : p + h, p : p + w].transpose(0, 3, 1, 2)


class MaxPool2D(_Pool2D):
    """Max pooling (``MaxPooling`` rows of Table III).

    The pad border is ``-inf``: a padded cell never wins a window's max
    and so never receives gradient.  A window's gradient goes to its
    first maximum in row-major window order.
    """

    pad_value = -np.inf

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        slices = self._slices(x, training)
        out = slices[0].copy()
        for piece in slices[1:]:
            np.maximum(out, piece, out=out)
        if training:
            self._cache = {"slices": slices, "out": out, "input_shape": x.shape}
        else:
            self._cache = None
        return out.transpose(0, 3, 1, 2)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward before training forward")
        cache = self._cache
        out = cache["out"]
        g = grad_out.transpose(0, 2, 3, 1)
        grad, targets = self._grad_slices(cache["input_shape"], grad_out)
        # A window's gradient goes to the first slice holding its max.
        seen = np.zeros(out.shape, dtype=bool)
        for piece, target in zip(cache["slices"], targets):
            hit = piece == out
            target += g * (hit > seen)
            seen |= hit
        return self._crop(grad, cache["input_shape"])


class AvgPool2D(_Pool2D):
    """Average pooling (``AvgPooling`` rows of Table III).

    Every window is divided by ``window * window``: pad cells count, as
    zeros.
    """

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        slices = self._slices(x, training)
        out = slices[0].copy()
        for piece in slices[1:]:
            out += piece
        out /= self.window * self.window
        self._cache = {"input_shape": x.shape} if training else None
        return out.transpose(0, 3, 1, 2)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward before training forward")
        input_shape = self._cache["input_shape"]
        g = grad_out.transpose(0, 2, 3, 1) / (self.window * self.window)
        grad, targets = self._grad_slices(input_shape, grad_out)
        for target in targets:
            target += g
        return self._crop(grad, input_shape)


class GlobalAvgPool2D(Layer):
    """Spatial mean over the whole feature map (ResNet's final pooling)."""

    def __init__(self, name: str):
        super().__init__(name)
        self._input_shape: Optional[tuple] = None

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError(f"{self.name}: expected (N, C, H, W), got {x.shape}")
        self._input_shape = x.shape if training else None
        return x.mean(axis=(2, 3))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError(f"{self.name}: backward before training forward")
        n, c, h, w = self._input_shape
        grad = grad_out[:, None, None, :] / (h * w)
        return np.broadcast_to(grad, (n, h, w, c)).copy().transpose(0, 3, 1, 2)
