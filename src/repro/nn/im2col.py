"""im2col / col2im through one gather/scatter index per window geometry.

The convolution and pooling layers lower their sliding-window
computation to matrix multiplication via the classic im2col transform
(as Caffe and SINGA do on CPU).  ``im2col`` unfolds ``(N, C, H, W)``
input into a ``(N * out_h * out_w, C * kh * kw)`` patch matrix;
``col2im`` scatters patch-space gradients back, summing overlaps.

Both are driven by :func:`window_index`: for one image, the flat
position in the padded ``(C, H + 2 pad, W + 2 pad)`` input of every
patch-matrix entry.  It depends only on the window geometry ``(C, H,
W, kh, kw, stride, pad)`` — not on the batch size or the data — so a
layer builds it once and keeps it in a read-only per-layer ``indices``
dict.  ``im2col`` is then one ``np.take`` of the padded input into the
patch matrix, and ``col2im`` one ``np.bincount`` scatter-add of the
patch gradients onto the padded input, cast back to the gradient's
dtype (``np.bincount`` accumulates in float64).  See DESIGN.md §4j.

``im2col`` accepts an optional :class:`~repro.core.fusion.Workspace`:
the patch matrix is ``k^2`` times larger than the activation it
unfolds, so the training forward reuses its buffers across iterations.
The values produced are identical either way — buffer reuse changes
*where* results are written, never *what* is computed.  A returned
array may be a view into its workspace and stays valid until the next
``im2col`` call with the same workspace, so only the owner's one
training thread may pass one; inference forwards allocate.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..core.fusion import Workspace

__all__ = ["conv_output_size", "window_index", "im2col", "col2im"]

#: ``(C, H, W, kh, kw, stride, pad)`` of one unfold.
Geometry = Tuple[int, int, int, int, int, int, int]
#: A layer's per-geometry :func:`window_index` cache.
IndexCache = Dict[Geometry, np.ndarray]


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Output spatial extent of a convolution/pooling window."""
    out = (size + 2 * pad - kernel) // stride + 1
    if out < 1:
        raise ValueError(
            f"window (kernel={kernel}, stride={stride}, pad={pad}) "
            f"does not fit input of size {size}"
        )
    return out


def window_index(
    c: int, h: int, w: int, kh: int, kw: int, stride: int, pad: int
) -> np.ndarray:
    """Flat padded-input position of each patch-matrix entry of one image.

    Entry ``[(oy * out_w + ox) * C * kh * kw + (ch * kh + dy) * kw + dx]``
    is the offset of ``(ch, oy * stride + dy, ox * stride + dx)`` in the
    C-contiguous ``(C, H + 2 pad, W + 2 pad)`` padded image, i.e. rows
    iterate output positions row-major and columns ``[c][kh][kw]``.  The
    array is read-only.
    """
    out_h = conv_output_size(h, kh, stride, pad)
    out_w = conv_output_size(w, kw, stride, pad)
    hp, wp = h + 2 * pad, w + 2 * pad
    # Axes (out_h, out_w, C, kh, kw), broadcast.
    oy = np.arange(out_h).reshape(-1, 1, 1, 1, 1)
    ox = np.arange(out_w).reshape(-1, 1, 1, 1)
    ch = np.arange(c).reshape(-1, 1, 1)
    dy = np.arange(kh).reshape(-1, 1)
    dx = np.arange(kw)
    index = ((ch * hp + stride * oy + dy) * wp + stride * ox + dx).reshape(-1)
    index.setflags(write=False)
    return index


def _index(indices: Optional[IndexCache], geometry: Geometry) -> np.ndarray:
    """:func:`window_index` of ``geometry``, from ``indices`` when cached."""
    if indices is None:
        return window_index(*geometry)
    index = indices.get(geometry)
    if index is None:
        index = indices[geometry] = window_index(*geometry)
    return index


def im2col(
    x: np.ndarray,
    kh: int,
    kw: int,
    stride: int,
    pad: int,
    workspace: Optional[Workspace] = None,
    indices: Optional[IndexCache] = None,
    pad_value: float = 0.0,
) -> Tuple[np.ndarray, int, int]:
    """Unfold sliding windows into rows.

    ``indices`` is the caller's :func:`window_index` cache (built on
    the fly without one); ``pad_value`` fills the border (max pooling
    pads with ``-inf`` so the border never wins).

    Returns
    -------
    (col, out_h, out_w):
        ``col`` has shape ``(N * out_h * out_w, C * kh * kw)``; rows
        iterate images first, then output positions row-major.  With a
        ``workspace`` the array is a reused buffer (valid until the next
        call with it), otherwise freshly allocated.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kh, stride, pad)
    out_w = conv_output_size(w, kw, stride, pad)
    index = _index(indices, (c, h, w, kh, kw, stride, pad))
    if pad > 0:
        padded_shape = (n, c, h + 2 * pad, w + 2 * pad)
        if workspace is None:
            img = np.empty(padded_shape, dtype=x.dtype)
        else:
            img = workspace.get(("im2col", "pad"), padded_shape, x.dtype)
        img.fill(pad_value)
        img[:, :, pad : pad + h, pad : pad + w] = x
    else:
        img = x
    shape = (n * out_h * out_w, c * kh * kw)
    if workspace is None:
        col = np.empty(shape, dtype=x.dtype)
    else:
        col = workspace.get(("im2col", "col"), shape, x.dtype)
    # ``index`` is in range by construction: "clip" skips numpy's
    # buffered bounds check.
    np.take(img.reshape(n, -1), index, axis=1, out=col.reshape(n, -1), mode="clip")
    return col, out_h, out_w


def col2im(
    col: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    pad: int,
    indices: Optional[IndexCache] = None,
) -> np.ndarray:
    """Inverse of :func:`im2col` for gradients (overlaps are summed).

    One ``np.bincount`` over the per-image index, offset by image;
    gradient that lands on the pad border is dropped.  The result has
    ``col``'s dtype and may be a view into the padded gradient.
    """
    n, c, h, w = input_shape
    hp, wp = h + 2 * pad, w + 2 * pad
    cells = c * hp * wp
    index = _index(indices, (c, h, w, kh, kw, stride, pad))
    flat = index + np.arange(0, n * cells, cells)[:, None]
    img = np.bincount(
        flat.reshape(-1), weights=col.reshape(-1), minlength=n * cells
    ).reshape(n, c, hp, wp)
    if pad > 0:
        img = img[:, :, pad : pad + h, pad : pad + w]
    return img.astype(col.dtype, copy=False)
