"""2-D convolution layer (channel-last im2col + GEMM)."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ...core.fusion import Workspace
from ...rng import default_generator
from ..im2col import conv_input_grad, im2col, tap_window
from .base import Layer

__all__ = ["Conv2D"]


class Conv2D(Layer):
    """Cross-correlation with learned filters, ``(N, C, H, W)`` shapes.

    The output is channel-last in memory (see :mod:`repro.nn.im2col`);
    ``weight`` keeps its ``(OC, C, kh, kw)`` shape.  The unfold and the
    GEMMs run over the kernel taps that can reach a real cell of the
    input (:func:`~repro.nn.im2col.tap_window`, worked out from the
    input's shape on every call); the others multiply only padding, and
    their weight gradient is exactly zero.  As a network's first layer,
    :meth:`backward` computes only the parameter gradients.

    Parameters
    ----------
    name:
        Layer name.
    in_channels, out_channels:
        Channel counts.
    kernel_size:
        Square kernel extent (the paper uses 5x5 and 3x3).
    stride, pad:
        Stride and symmetric zero padding.
    weight_init_std:
        Std of the Gaussian weight init.  ``None`` = He initialization
        ``sqrt(2 / (in_channels * k * k))``, the scheme the paper's
        ResNet uses ([30] in the paper); the value actually used is
        exposed as :attr:`weight_init_std` for GM calibration.
    rng:
        Seeded generator.
    """

    def __init__(
        self,
        name: str,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        pad: int = 0,
        weight_init_std: Optional[float] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__(name)
        if min(in_channels, out_channels, kernel_size, stride) < 1:
            raise ValueError("channels, kernel_size and stride must be >= 1")
        if pad < 0:
            raise ValueError(f"pad must be >= 0, got {pad}")
        rng = rng if rng is not None else default_generator()
        fan_in = in_channels * kernel_size * kernel_size
        if weight_init_std is None:
            weight_init_std = float(np.sqrt(2.0 / fan_in))
        self.weight_init_std = float(weight_init_std)
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.pad = int(pad)
        self.weight = self.add_param(
            "weight",
            rng.normal(
                0.0,
                self.weight_init_std,
                size=(out_channels, in_channels, kernel_size, kernel_size),
            ),
        )
        self.bias = self.add_param("bias", np.zeros(out_channels))
        self._col: Optional[np.ndarray] = None
        self._input_shape: Optional[tuple] = None
        # Training buffers: the im2col patch matrix is k^2 times the
        # activation size, and reallocating it every iteration
        # dominated this layer's allocation traffic.  Only the training
        # forward and backward (the trainer's one thread) use them;
        # inference forwards may run concurrently and allocate their
        # own patch matrix.
        self._workspace = Workspace()

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"{self.name}: expected (N, {self.in_channels}, H, W), got {x.shape}"
            )
        n = x.shape[0]
        k = self.kernel_size
        rows, cols = self._taps(x.shape)
        col, out_h, out_w = im2col(
            x, k, k, self.stride, self.pad,
            workspace=self._workspace if training else None,
            taps=(rows, cols),
        )
        # (OC, th*tw*C) in the patch columns' [th][tw][c] order; its
        # transpose is BLAS's transposed operand, not a copy.
        w_mat = self.weight[:, :, rows, cols].transpose(0, 2, 3, 1).reshape(
            self.out_channels, -1
        )
        out = col @ w_mat.T
        out += self.bias
        if training:
            self._col = col
            self._input_shape = x.shape
        else:
            self._col = None
            self._input_shape = None
        # Channel-last memory behind the (N, OC, OH, OW) shape.
        return out.reshape(n, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)

    def backward(self, grad_out: np.ndarray) -> Optional[np.ndarray]:
        if self._col is None or self._input_shape is None:
            raise RuntimeError(f"{self.name}: backward before training forward")
        rows, cols = self._taps(self._input_shape)
        # (N*OH*OW, OC) aligned with the im2col rows; a free view when
        # grad_out is channel-last.
        grad_mat = grad_out.transpose(0, 2, 3, 1).reshape(-1, self.out_channels)
        grad_w = self.grads["weight"]
        block = (grad_mat.T @ self._col).reshape(
            self.out_channels, rows.stop - rows.start, cols.stop - cols.start,
            self.in_channels,
        ).transpose(0, 3, 1, 2)
        if block.shape != grad_w.shape:
            # The taps outside the window met only padding.
            grad_w.fill(0.0)
        grad_w[:, :, rows, cols] = block
        self.grads["bias"][...] = grad_mat.sum(axis=0)
        if not self.input_grad:
            return None
        return conv_input_grad(
            grad_out, self.weight[:, :, rows, cols], self._input_shape,
            self.stride, self.pad, workspace=self._workspace,
            origin=(rows.start, cols.start),
        )

    def _taps(self, shape: Tuple[int, ...]) -> Tuple[slice, slice]:
        """The kernel rows and columns that can reach a real cell of an
        ``(N, C, H, W)`` input of ``shape``."""
        k, stride, pad = self.kernel_size, self.stride, self.pad
        return tap_window(shape[2], k, stride, pad), tap_window(shape[3], k, stride, pad)
