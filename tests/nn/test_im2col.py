"""Unit tests for the channel-last unfold, the conv input gradient and
the LRN window sum.

The references are channel-first loops: the strided-slice im2col/col2im
the layers once used (one slice copy or ``+=`` per kernel offset), a
per-window pooling loop and a per-channel LRN loop.
"""

import numpy as np
import pytest

from repro.core.fusion import Workspace
from repro.nn.im2col import (
    conv_input_grad,
    conv_output_size,
    im2col,
    pad_channel_last,
    window_view,
)
from repro.nn.layers import (
    AvgPool2D,
    Conv2D,
    Dense,
    Flatten,
    LocalResponseNorm,
    MaxPool2D,
    ReLU,
)
from repro.nn.models import alex_cifar10


def reference_im2col(x, kh, kw, stride, pad):
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kh, stride, pad)
    out_w = conv_output_size(w, kw, stride, pad)
    img = np.pad(x, [(0, 0), (0, 0), (pad, pad), (pad, pad)], mode="constant")
    col6 = np.empty((n, c, kh, kw, out_h, out_w), dtype=x.dtype)
    for dy in range(kh):
        y_end = dy + stride * out_h
        for dx in range(kw):
            x_end = dx + stride * out_w
            col6[:, :, dy, dx, :, :] = img[:, :, dy:y_end:stride, dx:x_end:stride]
    col = col6.transpose(0, 4, 5, 1, 2, 3).reshape(n * out_h * out_w, c * kh * kw)
    return col, out_h, out_w


def reference_col2im(col, input_shape, kh, kw, stride, pad):
    n, c, h, w = input_shape
    out_h = conv_output_size(h, kh, stride, pad)
    out_w = conv_output_size(w, kw, stride, pad)
    col6 = col.reshape(n, out_h, out_w, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    img = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=col.dtype)
    for dy in range(kh):
        y_end = dy + stride * out_h
        for dx in range(kw):
            x_end = dx + stride * out_w
            img[:, :, dy:y_end:stride, dx:x_end:stride] += col6[:, :, dy, dx, :, :]
    return img[:, :, pad : pad + h, pad : pad + w]


GEOMETRIES = [
    (k, stride, pad)
    for k in (1, 2, 3, 5)
    for stride in (1, 2)
    for pad in (0, 1, 2)
]


def channel_first_columns(col, k, c):
    """Reorder ``[kh][kw][c]`` patch columns to the reference's ``[c][kh][kw]``."""
    return col.reshape(-1, k, k, c).transpose(0, 3, 1, 2).reshape(col.shape)


@pytest.mark.parametrize("k, stride, pad", GEOMETRIES)
def test_unfold_matches_reference_loop(k, stride, pad):
    rng = np.random.default_rng(100 * k + 10 * stride + pad)
    for n in (1, 3):
        for c in (1, 4):
            x = rng.standard_normal((n, c, 6, 7))
            expected, oh, ow = reference_im2col(x, k, k, stride, pad)
            col, out_h, out_w = im2col(x, k, k, stride, pad)
            assert (out_h, out_w) == (oh, ow)
            assert np.array_equal(channel_first_columns(col, k, c), expected)
            # The same patches from channel-last input memory.
            x_last = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
            assert np.array_equal(im2col(x_last, k, k, stride, pad)[0], col)
            oc = 3
            workspace = Workspace()
            for dtype, rtol in ((np.float64, 1e-12), (np.float32, 1e-5)):
                weight = rng.standard_normal((oc, c, k, k)).astype(dtype)
                grad = rng.standard_normal((n, oc, oh, ow)).astype(dtype)
                back = conv_input_grad(grad, weight, x.shape, stride, pad)
                grad_col = grad.transpose(0, 2, 3, 1).reshape(-1, oc) @ weight.reshape(oc, -1)
                ref = reference_col2im(grad_col, x.shape, k, k, stride, pad)
                assert back.dtype == dtype
                assert back.shape == x.shape
                assert back.transpose(0, 2, 3, 1).flags.c_contiguous
                scale = np.abs(ref).max()
                assert np.abs(back - ref).max() <= rtol * scale
                # Reused buffers change where, never what.
                for _ in range(2):
                    reused = conv_input_grad(
                        grad, weight, x.shape, stride, pad, workspace=workspace
                    )
                    assert np.array_equal(reused, back)


def test_window_view_is_read_only():
    img = np.arange(2 * 5 * 4 * 3, dtype=np.float64).reshape(2, 5, 4, 3)
    view = window_view(img, 3, 2, 1, 3, 3)
    assert not view.flags.writeable
    assert view.shape == (2, 3, 3, 3, 2, 3)
    assert np.shares_memory(view, img)
    # [n, oy, ox, dy, dx] is the cell (oy * stride + dy, ox * stride + dx).
    assert np.array_equal(view[1, 2, 1, 0, 1], img[1, 2, 2])


def test_pad_channel_last_fills_border():
    img = pad_channel_last(np.zeros((1, 1, 2, 2)), 1, -np.inf)
    assert img.shape == (1, 4, 4, 1)
    windows = window_view(img, 3, 3, 1, 2, 2)
    assert np.isneginf(windows).sum(axis=(3, 4, 5)).tolist() == [[[5, 5], [5, 5]]]
    x = np.ones((2, 3, 4, 4))
    assert np.shares_memory(pad_channel_last(x, 0), x)


def test_im2col_keeps_float32():
    x = np.ones((2, 3, 4, 4), dtype=np.float32)
    col, _, _ = im2col(x, 3, 3, 1, 1)
    assert col.dtype == np.float32


def test_output_size_formula():
    assert conv_output_size(32, 3, 1, 1) == 32
    assert conv_output_size(32, 2, 2, 0) == 16
    assert conv_output_size(5, 3, 2, 0) == 2


def test_output_size_rejects_oversized_kernel():
    with pytest.raises(ValueError):
        conv_output_size(2, 5, 1, 0)


def test_im2col_identity_kernel():
    x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
    col, oh, ow = im2col(x, 1, 1, 1, 0)
    assert (oh, ow) == (4, 4)
    assert np.allclose(col.reshape(-1), x.reshape(-1))


def test_im2col_extracts_correct_patches():
    x = np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3)
    col, oh, ow = im2col(x, 2, 2, 1, 0)
    assert (oh, ow) == (2, 2)
    # First patch is the top-left 2x2 window.
    assert np.allclose(col[0], [0, 1, 3, 4])
    assert np.allclose(col[3], [4, 5, 7, 8])


def test_im2col_respects_padding():
    x = np.ones((1, 1, 2, 2))
    col, oh, ow = im2col(x, 3, 3, 1, 1)
    assert (oh, ow) == (2, 2)
    # Top-left window sees 5 zeros from the pad border.
    assert col[0].sum() == 4.0


def patch_identity(c, k):
    """A ``(k*k*c, c, k, k)`` weight whose output channel ``j`` is patch
    column ``j``."""
    return np.eye(k * k * c).reshape(k * k * c, k, k, c).transpose(0, 3, 1, 2)


def test_conv_input_grad_inverts_nonoverlapping_windows(rng):
    x = rng.normal(size=(2, 3, 4, 4))
    col, oh, ow = im2col(x, 2, 2, 2, 0)
    grad = col.reshape(2, oh, ow, -1).transpose(0, 3, 1, 2)
    back = conv_input_grad(grad, patch_identity(3, 2), x.shape, 2, 0)
    assert np.allclose(back, x)


def test_conv_input_grad_sums_overlaps():
    x = np.ones((1, 1, 3, 3))
    col, oh, ow = im2col(x, 2, 2, 1, 0)
    grad = col.reshape(1, oh, ow, -1).transpose(0, 3, 1, 2)
    back = conv_input_grad(grad, patch_identity(1, 2), x.shape, 1, 0)
    # Center pixel is covered by all four 2x2 windows.
    assert back[0, 0, 1, 1] == 4.0
    assert back[0, 0, 0, 0] == 1.0


def test_im2col_channel_layout(rng):
    # Each row is laid out [kh][kw][channel]: channels vary fastest.
    x = rng.normal(size=(1, 2, 2, 2))
    col, _, _ = im2col(x, 2, 2, 1, 0)
    assert col.shape == (1, 8)
    assert np.allclose(col[0, 0::2], x[0, 0].reshape(-1))
    assert np.allclose(col[0, 1::2], x[0, 1].reshape(-1))


def reference_window_sum(a, size):
    half = size // 2
    c = a.shape[1]
    out = np.zeros_like(a)
    for ch in range(c):
        out[:, ch] = a[:, max(0, ch - half) : min(c, ch + half + 1)].sum(axis=1)
    return out


@pytest.mark.parametrize("size", [1, 3, 5])
@pytest.mark.parametrize("channels", [1, 2, 4, 7])
def test_lrn_window_sum_matches_per_channel_loop(size, channels, rng):
    a = rng.standard_normal((2, channels, 3, 2))
    lrn = LocalResponseNorm("lrn", size=size, alpha=0.5)
    window = reference_window_sum(a * a, size)
    assert np.allclose(lrn._window_sum(a * a), window, rtol=1e-14, atol=0.0)
    expected = a / (1.0 + 0.5 / size * window) ** 0.75
    assert np.allclose(lrn.forward(a, training=False), expected, rtol=1e-14, atol=0.0)


def test_float32_alex_gradients_stay_float32(rng):
    net = alex_cifar10(image_size=8, seed=0)
    net.to_dtype(np.float32)
    x = rng.standard_normal((3, 3, 8, 8)).astype(np.float32)
    loss, grads = net.loss_and_gradients(x, np.array([0, 1, 2]))
    assert np.isfinite(loss)
    assert [g.dtype for g in grads] == [np.dtype(np.float32)] * len(grads)


def test_lrn_window_sum_keeps_channel_last(rng):
    a = rng.standard_normal((2, 3, 4, 5)).transpose(0, 3, 1, 2)  # (N, C, H, W)
    window = LocalResponseNorm("lrn", size=3)._window_sum(a)
    assert window.transpose(0, 2, 3, 1).flags.c_contiguous
    assert np.allclose(window, reference_window_sum(a, 3), rtol=1e-14, atol=0.0)


def reference_pool(x, layer, reduce, fill):
    """Per-window pooling loop over channel-first ``x``."""
    n, c, h, w = x.shape
    k, s, p = layer.window, layer.stride, layer.pad
    out_h = conv_output_size(h, k, s, p)
    out_w = conv_output_size(w, k, s, p)
    img = np.pad(x, [(0, 0), (0, 0), (p, p), (p, p)], constant_values=fill)
    out = np.empty((n, c, out_h, out_w))
    for i in range(out_h):
        for j in range(out_w):
            out[:, :, i, j] = reduce(
                img[:, :, i * s : i * s + k, j * s : j * s + k], axis=(2, 3)
            )
    return out


def reference_forward(net, x):
    """The network's forward from the channel-first reference loops."""
    out = x
    for layer in net.layers:
        if isinstance(layer, Conv2D):
            k, oc = layer.kernel_size, layer.out_channels
            col, oh, ow = reference_im2col(out, k, k, layer.stride, layer.pad)
            out = col @ layer.weight.reshape(oc, -1).T + layer.bias
            out = np.ascontiguousarray(
                out.reshape(x.shape[0], oh, ow, oc).transpose(0, 3, 1, 2)
            )
        elif isinstance(layer, MaxPool2D):
            out = reference_pool(out, layer, np.max, -np.inf)
        elif isinstance(layer, AvgPool2D):
            out = reference_pool(out, layer, np.mean, 0.0)
        elif isinstance(layer, LocalResponseNorm):
            window = reference_window_sum(out * out, layer.size)
            out = out / (layer.k + layer.alpha / layer.size * window) ** layer.beta
        elif isinstance(layer, ReLU):
            out = np.maximum(out, 0.0)
        elif isinstance(layer, Flatten):
            out = out.reshape(out.shape[0], -1)
        elif isinstance(layer, Dense):
            out = out @ layer.weight + layer.bias
        else:
            raise AssertionError(f"no reference for {layer!r}")
    return out


def test_alex_stack_matches_channel_first_reference(rng):
    """Channel-last memory behind (N, C, H, W) shapes: same logits as the
    channel-first loops, and every image activation stays channel-last.

    The final map is 2x2, so this also pins Flatten's channel-major
    order, which the dense weights and checkpoints rely on.
    """
    net = alex_cifar10(image_size=16, seed=0)
    x = rng.standard_normal((3, 3, 16, 16))
    expected = reference_forward(net, x)
    for training in (False, True):
        logits = net.forward(x, training=training)
        assert np.abs(logits - expected).max() <= 1e-12 * np.abs(expected).max()
    out = x
    for layer in net.layers:
        out = layer.forward(out, training=True)
        if out.ndim == 4:
            assert out.transpose(0, 2, 3, 1).flags.c_contiguous, layer.name
