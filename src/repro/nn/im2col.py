"""Channel-last sliding windows: im2col for convolution forwards and the
transposed convolution that is their input gradient.

Image layers keep the public ``(N, C, H, W)`` shape but store their
activations channel-last: the memory is ``(N, H, W, C)`` C-contiguous
and the layer hands out its ``transpose(0, 3, 1, 2)`` view.  A layer
reads its input through ``x.transpose(0, 2, 3, 1)``, which is free when
the producer was channel-last (and a plain strided read otherwise, e.g.
for dataset batches).  See DESIGN.md §4j.

- :func:`pad_channel_last` gives the channel-last image with a border of
  ``pad`` cells (zeros for convolutions, ``-inf`` for max pooling).
- :func:`window_view` is a read-only ``as_strided`` view
  ``(N, out_h, out_w, kh, kw, C)`` of every window of such an image;
  ``window_view(...)[:, :, :, dy, dx]`` is the strided slice of window
  offset ``(dy, dx)``, which is all pooling needs.
- :func:`im2col` copies that view into the ``(N * out_h * out_w,
  kh * kw * C)`` patch matrix with columns ``[kh][kw][c]``: each inner
  copy is ``kw * C`` contiguous elements.  The convolution weight
  ``(OC, C, kh, kw)`` meets it as ``weight.transpose(0, 2, 3, 1)``.
- :func:`conv_input_grad` is the input gradient of such a convolution
  as a transposed convolution: the stride-dilated output gradient in a
  zero buffer, one window copy and one GEMM with the flipped kernel.
  Nothing is scattered.

``im2col`` and ``conv_input_grad`` accept an optional
:class:`~repro.core.fusion.Workspace`: the patch matrix is ``k^2`` times
larger than the activation it unfolds, so the training forward and
backward reuse their buffers across iterations.  The values produced
are identical either way — buffer reuse changes *where* results are
written, never *what* is computed.  A returned array may be a view into
its workspace and stays valid until the next call with the same
workspace and key, so only the owner's one training thread may pass
one; inference forwards allocate.
"""

from __future__ import annotations

from typing import Hashable, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..core.fusion import Workspace

__all__ = [
    "conv_output_size",
    "pad_channel_last",
    "window_view",
    "im2col",
    "conv_input_grad",
]


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Output spatial extent of a convolution/pooling window."""
    out = (size + 2 * pad - kernel) // stride + 1
    if out < 1:
        raise ValueError(
            f"window (kernel={kernel}, stride={stride}, pad={pad}) "
            f"does not fit input of size {size}"
        )
    return out


def _buffer(
    workspace: Optional[Workspace],
    key: Hashable,
    shape: Tuple[int, ...],
    dtype: np.dtype,
) -> np.ndarray:
    if workspace is None:
        return np.empty(shape, dtype=dtype)
    return workspace.get(key, shape, dtype)


def pad_channel_last(
    x: np.ndarray,
    pad: int,
    fill: float = 0.0,
    workspace: Optional[Workspace] = None,
) -> np.ndarray:
    """``(N, H + 2 pad, W + 2 pad, C)`` channel-last image of ``(N, C, H,
    W)`` input ``x``, bordered with ``fill``.

    Without padding this is the free view ``x.transpose(0, 2, 3, 1)``.
    """
    xt = x.transpose(0, 2, 3, 1)
    if pad == 0:
        return xt
    n, h, w, c = xt.shape
    img = _buffer(workspace, ("pad",), (n, h + 2 * pad, w + 2 * pad, c), x.dtype)
    img.fill(fill)
    img[:, pad : pad + h, pad : pad + w] = xt
    return img


def window_view(
    img: np.ndarray, kh: int, kw: int, stride: int, out_h: int, out_w: int
) -> np.ndarray:
    """Read-only ``(N, out_h, out_w, kh, kw, C)`` view of the windows of
    the channel-last image ``img``: entry ``[n, oy, ox, dy, dx, c]`` is
    ``img[n, oy * stride + dy, ox * stride + dx, c]``."""
    n, _, _, c = img.shape
    sn, sh, sw, sc = img.strides
    return as_strided(
        img,
        shape=(n, out_h, out_w, kh, kw, c),
        strides=(sn, sh * stride, sw * stride, sh, sw, sc),
        writeable=False,
    )


def im2col(
    x: np.ndarray,
    kh: int,
    kw: int,
    stride: int,
    pad: int,
    workspace: Optional[Workspace] = None,
) -> Tuple[np.ndarray, int, int]:
    """Unfold the zero-padded sliding windows of ``(N, C, H, W)`` input.

    Returns
    -------
    (col, out_h, out_w):
        ``col`` has shape ``(N * out_h * out_w, kh * kw * C)``; rows
        iterate images first, then output positions row-major, and
        columns are ``[kh][kw][c]``.  With a ``workspace`` the array is
        a reused buffer (valid until the next call with it), otherwise
        freshly allocated.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kh, stride, pad)
    out_w = conv_output_size(w, kw, stride, pad)
    img = pad_channel_last(x, pad, workspace=workspace)
    col = _buffer(
        workspace, ("col",), (n * out_h * out_w, kh * kw * c), x.dtype
    )
    col.reshape(n, out_h, out_w, kh, kw, c)[...] = window_view(
        img, kh, kw, stride, out_h, out_w
    )
    return col, out_h, out_w


def _placed(top: int, stride: int, count: int, size: int) -> Tuple[int, int]:
    """``[lo, hi)``: the outputs ``o < count`` whose row ``top + o *
    stride`` lies in ``[0, size)`` (``lo == hi`` when there are none)."""
    lo = max(0, -(top // stride))
    hi = min(count, (size - 1 - top) // stride + 1)
    return lo, max(lo, hi)


def conv_input_grad(
    grad: np.ndarray,
    weight: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    stride: int,
    pad: int,
    workspace: Optional[Workspace] = None,
) -> np.ndarray:
    """Gradient w.r.t. the input of a convolution, as a transposed one.

    ``grad`` is the ``(N, OC, OH, OW)`` output gradient of the
    convolution of an ``input_shape`` input with ``weight`` ``(OC, C,
    kh, kw)``.  Input cell ``y`` (per axis) receives ``grad[oy] *
    weight[dy]`` for every ``oy * stride + dy = y + pad``.  Placing
    ``grad[oy]`` at row ``kh - 1 - pad + oy * stride`` of a zero buffer
    of height ``H + kh - 1`` turns that into a stride-1 correlation of
    the buffer with the flipped kernel; rows outside the buffer belong
    to windows that lie wholly in the pad and are dropped.

    Returns the channel-last ``(N, C, H, W)`` gradient, in ``grad``'s
    dtype.
    """
    n, oc, out_h, out_w = grad.shape
    _, c, h, w = input_shape
    kh, kw = weight.shape[2:]
    top, left = kh - 1 - pad, kw - 1 - pad
    buf = _buffer(
        workspace, ("grad_pad",), (n, h + kh - 1, w + kw - 1, oc), grad.dtype
    )
    buf.fill(0)
    y0, y1 = _placed(top, stride, out_h, h + kh - 1)
    x0, x1 = _placed(left, stride, out_w, w + kw - 1)
    buf[
        :,
        top + y0 * stride : top + y1 * stride : stride,
        left + x0 * stride : left + x1 * stride : stride,
    ] = grad.transpose(0, 2, 3, 1)[:, y0:y1, x0:x1]
    col = _buffer(workspace, ("grad_col",), (n * h * w, kh * kw * oc), grad.dtype)
    col.reshape(n, h, w, kh, kw, oc)[...] = window_view(buf, kh, kw, 1, h, w)
    # (C, kh * kw * OC) with the kernel flipped, as BLAS's transposed operand.
    flipped = weight.transpose(1, 2, 3, 0)[:, ::-1, ::-1].reshape(c, -1)
    return (col @ flipped.T).reshape(n, h, w, c).transpose(0, 3, 1, 2)
