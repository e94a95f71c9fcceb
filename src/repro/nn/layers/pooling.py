"""Max and average pooling layers."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...core.fusion import Workspace
from ..im2col import IndexCache, col2im, im2col
from .base import Layer

__all__ = ["MaxPool2D", "AvgPool2D", "GlobalAvgPool2D"]


class _Pool2D(Layer):
    """Shared plumbing for window pooling over ``(N, C, H, W)``.

    ``pad`` must be smaller than ``window``, so every window holds at
    least one input cell.
    """

    #: Value of the pad border in the unfolded windows.
    pad_value = 0.0

    def __init__(self, name: str, window: int, stride: Optional[int] = None, pad: int = 0):
        super().__init__(name)
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if not 0 <= pad < window:
            raise ValueError(f"pad must be in [0, window={window}), got {pad}")
        self.window = int(window)
        self.stride = int(stride) if stride is not None else int(window)
        self.pad = int(pad)
        self._cache: Optional[dict] = None
        # Training-only im2col buffers (inference forwards may run
        # concurrently and allocate) and the read-only index per input
        # geometry.
        self._workspace = Workspace()
        self._indices: IndexCache = {}

    def _unfold(self, x: np.ndarray, training: bool):
        n, c, h, w = x.shape
        k = self.window
        col, out_h, out_w = im2col(
            x, k, k, self.stride, self.pad,
            workspace=self._workspace if training else None,
            indices=self._indices,
            pad_value=self.pad_value,
        )
        # Rows: (N*OH*OW, C*k*k) -> (N*OH*OW*C, k*k), pooling per channel;
        # im2col rows are laid out [c][kh][kw], so a plain reshape splits
        # channels correctly.
        col = col.reshape(-1, k * k)
        return col, out_h, out_w, (n, c, h, w)

    def _fold(self, grad_col: np.ndarray, input_shape: tuple) -> np.ndarray:
        """Scatter window gradients, in :meth:`_unfold`'s ``(rows * C,
        k * k)`` layout, onto the input."""
        k = self.window
        return col2im(
            grad_col, input_shape, k, k, self.stride, self.pad,
            indices=self._indices,
        )


class MaxPool2D(_Pool2D):
    """Max pooling (``MaxPooling`` rows of Table III).

    The pad border is ``-inf``: a padded cell never wins a window's max
    and so never receives gradient.
    """

    pad_value = -np.inf

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        col, out_h, out_w, shape = self._unfold(x, training)
        n, c, _, _ = shape
        argmax = col.argmax(axis=1)
        out = col[np.arange(col.shape[0]), argmax]
        out = out.reshape(n, out_h, out_w, c).transpose(0, 3, 1, 2)
        if training:
            self._cache = {
                "argmax": argmax,
                "col_shape": col.shape,
                "input_shape": shape,
                "out_hw": (out_h, out_w),
            }
        else:
            self._cache = None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward before training forward")
        cache = self._cache
        grad_rows = grad_out.transpose(0, 2, 3, 1).reshape(-1)  # rows*C
        grad_col = self._workspace.zeros(
            ("grad_col",), cache["col_shape"], grad_out.dtype
        )
        grad_col[np.arange(grad_col.shape[0]), cache["argmax"]] = grad_rows
        return self._fold(grad_col, cache["input_shape"])


class AvgPool2D(_Pool2D):
    """Average pooling (``AvgPooling`` rows of Table III).

    Every window is divided by ``window * window``: pad cells count, as
    zeros.
    """

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        col, out_h, out_w, shape = self._unfold(x, training)
        n, c, _, _ = shape
        out = col.mean(axis=1)
        out = out.reshape(n, out_h, out_w, c).transpose(0, 3, 1, 2)
        if training:
            self._cache = {"col_shape": col.shape, "input_shape": shape}
        else:
            self._cache = None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward before training forward")
        cache = self._cache
        k = self.window
        grad_rows = grad_out.transpose(0, 2, 3, 1).reshape(-1)
        grad_col = np.repeat(grad_rows[:, None], k * k, axis=1) / (k * k)
        return self._fold(grad_col, cache["input_shape"])


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
        grad = grad_out[:, :, None, None] / (h * w)
        return np.broadcast_to(grad, (n, c, h, w)).copy()
