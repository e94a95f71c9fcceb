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
- :func:`tap_window` is the range of kernel offsets, per axis, that
  land on a real (non-pad) cell for some output; a tap outside it only
  ever multiplies padding, so a convolution may unfold and multiply
  just the window (``im2col``'s ``taps``).
- :func:`conv_input_grad` is the input gradient of such a convolution
  as a transposed convolution, run once per stride phase: the output
  gradient in a zero buffer, one window copy and one GEMM with the
  phase's flipped sub-kernel.  Nothing is scatter-added, and no phase
  multiplies the zeros a stride would dilate the gradient with.

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

from typing import Hashable, List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..core.fusion import Workspace

__all__ = [
    "conv_output_size",
    "pad_channel_last",
    "window_view",
    "tap_window",
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


def tap_window(size: int, kernel: int, stride: int, pad: int) -> slice:
    """The kernel offsets along one axis that can meet a real cell.

    With tap ``d``, output ``o`` reads padded row ``o * stride + d``;
    the real rows are ``[pad, pad + size)``.  Over the ``out`` outputs,
    tap ``d`` reads rows ``d`` to ``d + (out - 1) * stride``, so it can
    reach a real row only if ``pad - (out - 1) * stride <= d <= pad +
    size - 1``.  A tap outside that window multiplies nothing but
    padding, so dropping it drops only zero products.  At stride 1 the
    rows a tap reads are contiguous and the window is exactly the taps
    that reach a real row; at a larger stride they may step over the
    real rows, and the window may keep a tap that meets only padding.
    The window is empty when every window of the axis lies in the pad.
    """
    out = conv_output_size(size, kernel, stride, pad)
    return slice(max(0, pad - (out - 1) * stride), min(kernel, pad + size))


def im2col(
    x: np.ndarray,
    kh: int,
    kw: int,
    stride: int,
    pad: int,
    workspace: Optional[Workspace] = None,
    taps: Optional[Tuple[slice, slice]] = None,
) -> Tuple[np.ndarray, int, int]:
    """Unfold the zero-padded sliding windows of ``(N, C, H, W)`` input.

    ``taps`` is the ``(rows, cols)`` pair of kernel-offset slices to
    unfold, such as each axis's :func:`tap_window`; by default the
    whole ``kh x kw`` kernel.

    Returns
    -------
    (col, out_h, out_w):
        ``col`` has shape ``(N * out_h * out_w, th * tw * C)`` for
        ``th x tw`` taps; rows iterate images first, then output
        positions row-major, and columns are ``[th][tw][c]``.  With a
        ``workspace`` the array is a reused buffer (valid until the
        next call with it), otherwise freshly allocated.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kh, stride, pad)
    out_w = conv_output_size(w, kw, stride, pad)
    rows, cols = taps if taps is not None else (slice(0, kh), slice(0, kw))
    th, tw = rows.stop - rows.start, cols.stop - cols.start
    img = pad_channel_last(x, pad, workspace=workspace)
    col = _buffer(workspace, ("col",), (n * out_h * out_w, th * tw * c), x.dtype)
    col.reshape(n, out_h, out_w, th, tw, c)[...] = window_view(
        img[:, rows.start :, cols.start :], th, tw, stride, out_h, out_w
    )
    return col, out_h, out_w


def _phases(
    size: int, taps: int, stride: int, top: int, out: int
) -> Tuple[List[Tuple[slice, slice, int, int, int]], int, int]:
    """One axis of the input gradient's phase split.

    For a kernel of ``taps`` offsets whose first sits ``top`` rows above
    input row 0, each phase ``r < stride`` that has a cell and meets a
    tap gives ``(cells, kernel, first, count, n_taps)``: its ``count``
    input cells ``r::stride``, its sub-kernel ``(r + top) % stride ::
    stride`` of ``n_taps`` taps, and the first gradient row its windows
    read.  Returns the phases and the range ``[lo, hi)`` of gradient
    rows, out of range ones included, that the ``out`` rows and every
    window cover.
    """
    phases, lo, hi = [], 0, out
    for r in range(min(stride, size)):
        d = (r + top) % stride
        if d < taps:
            n_taps = (taps - 1 - d) // stride + 1
            first = (r + top) // stride - (n_taps - 1)
            count = (size - 1 - r) // stride + 1
            phases.append(
                (slice(r, size, stride), slice(d, taps, stride), first, count, n_taps)
            )
            lo, hi = min(lo, first), max(hi, first + count + n_taps - 1)
    return phases, lo, hi


def conv_input_grad(
    grad: np.ndarray,
    weight: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    stride: int,
    pad: int,
    workspace: Optional[Workspace] = None,
    origin: Tuple[int, int] = (0, 0),
) -> np.ndarray:
    """Gradient w.r.t. the input of a convolution, as transposed ones.

    ``grad`` is the ``(N, OC, OH, OW)`` output gradient of the
    convolution of an ``input_shape`` input with a kernel whose taps
    from ``origin`` (per axis) on are ``weight`` ``(OC, C, th, tw)``:
    the whole kernel by default, or the crop ``im2col`` unfolded with
    ``taps``.  Per axis, with ``top = pad - origin``, input cell ``y``
    receives ``grad[o] * weight[d]`` for every ``o * stride + d = y +
    top``.

    The cells ``y = r + j * stride`` of phase ``r`` meet only the taps
    ``d = (r + top) % stride + t * stride``, through ``o = j + (r + top)
    // stride - t``: a stride-1 transposed convolution, i.e. a stride-1
    correlation of the gradient with the flipped sub-kernel
    ``weight[(r + top) % stride :: stride]``.  Every phase reads its
    windows from one copy of the gradient in a zero border (rows a
    window reads outside the gradient belong to output positions that
    do not exist), copies them once and runs one GEMM, then writes
    ``[ry::stride, rx::stride]`` of the result; a phase that meets no
    tap stays zero.  So the GEMMs multiply the gradient by each tap
    once, as the forward does, and never by the zeros a stride would
    dilate it with.  At stride 1 the one phase is the whole gradient.

    Returns the channel-last ``(N, C, H, W)`` gradient, in ``grad``'s
    dtype.
    """
    n, c, h, w = input_shape
    _, oc, out_h, out_w = grad.shape
    ys, y0, y1 = _phases(h, weight.shape[2], stride, pad - origin[0], out_h)
    xs, x0, x1 = _phases(w, weight.shape[3], stride, pad - origin[1], out_w)
    if stride > 1 or not (ys and xs):
        # The phases write their cells of one array; the cells of a phase
        # that meets no tap get no product and stay zero.
        grad_in = np.empty((n, h, w, c), dtype=grad.dtype)
        if len(ys) * len(xs) < min(stride, h) * min(stride, w):
            grad_in.fill(0)
    buf = _buffer(workspace, ("grad_pad",), (n, y1 - y0, x1 - x0, oc), grad.dtype)
    buf.fill(0)
    buf[:, -y0 : out_h - y0, -x0 : out_w - x0] = grad.transpose(0, 2, 3, 1)
    kernel = weight.transpose(2, 3, 0, 1)  # (th, tw, OC, C)
    # Each phase's GEMM consumes its patch matrix before the next phase
    # builds one, so one buffer, sized for the largest, holds them all.
    largest = max((hy * ty for *_, hy, ty in ys), default=0) * max(
        (wx * tx for *_, wx, tx in xs), default=0
    )
    patches = _buffer(workspace, ("grad_col",), (n * largest * oc,), grad.dtype)
    for rows, ky, fy, hy, ty in ys:
        for cols, kx, fx, wx, tx in xs:
            size = (n * hy * wx, ty * tx * oc)
            col = patches[: size[0] * size[1]].reshape(size)
            col.reshape(n, hy, wx, ty, tx, oc)[...] = window_view(
                buf[:, fy - y0 :, fx - x0 :], ty, tx, 1, hy, wx
            )
            # The flipped sub-kernel, rows in the patch columns' order.
            flipped = kernel[ky, kx][::-1, ::-1].reshape(-1, c)
            part = (col @ flipped).reshape(n, hy, wx, c)
            if stride == 1:  # the one phase is the whole gradient
                return part.transpose(0, 3, 1, 2)
            grad_in[:, rows, cols] = part
    return grad_in.transpose(0, 3, 1, 2)
