"""Unit tests for the im2col/col2im lowering and the LRN window sum.

The reference unfold is the strided-slice loop the layers used before
the gather/scatter index: one slice copy (or ``+=``) per kernel offset.
"""

import numpy as np
import pytest

from repro.nn.im2col import col2im, conv_output_size, im2col, window_index
from repro.nn.layers import LocalResponseNorm
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


@pytest.mark.parametrize("k, stride, pad", GEOMETRIES)
def test_unfold_matches_reference_loop(k, stride, pad):
    rng = np.random.default_rng(100 * k + 10 * stride + pad)
    for n in (1, 3):
        for c in (1, 4):
            x = rng.standard_normal((n, c, 6, 7))
            expected, oh, ow = reference_im2col(x, k, k, stride, pad)
            indices = {}
            col, out_h, out_w = im2col(x, k, k, stride, pad, indices=indices)
            assert (out_h, out_w) == (oh, ow)
            assert np.array_equal(col, expected)
            for dtype, rtol in ((np.float64, 1e-12), (np.float32, 1e-5)):
                grad = rng.standard_normal(col.shape).astype(dtype)
                back = col2im(grad, x.shape, k, k, stride, pad, indices=indices)
                ref = reference_col2im(grad, x.shape, k, k, stride, pad)
                assert back.dtype == dtype
                assert back.shape == x.shape
                scale = np.abs(ref).max()
                assert np.abs(back - ref).max() <= rtol * scale
            # One index per geometry, shared by the gather and the scatter.
            assert list(indices) == [(c, 6, 7, k, k, stride, pad)]


def test_window_index_is_read_only_and_batch_free():
    index = window_index(2, 5, 4, 3, 3, 1, 1)
    assert not index.flags.writeable
    assert index.size == 2 * 3 * 3 * 5 * 4  # one image's patch matrix
    assert index.max() < 2 * 7 * 6


def test_im2col_pad_value_fills_border():
    col, _, _ = im2col(np.zeros((1, 1, 2, 2)), 3, 3, 1, 1, pad_value=-np.inf)
    assert np.isneginf(col).sum(axis=1).tolist() == [5, 5, 5, 5]


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


def test_col2im_inverts_for_nonoverlapping_windows(rng):
    x = rng.normal(size=(2, 3, 4, 4))
    col, _, _ = im2col(x, 2, 2, 2, 0)
    back = col2im(col, x.shape, 2, 2, 2, 0)
    assert np.allclose(back, x)


def test_col2im_sums_overlaps():
    x = np.ones((1, 1, 3, 3))
    col, _, _ = im2col(x, 2, 2, 1, 0)
    back = col2im(col, x.shape, 2, 2, 1, 0)
    # Center pixel is covered by all four 2x2 windows.
    assert back[0, 0, 1, 1] == 4.0
    assert back[0, 0, 0, 0] == 1.0


def test_im2col_channel_layout(rng):
    # Each row is laid out [channel][kh][kw].
    x = rng.normal(size=(1, 2, 2, 2))
    col, _, _ = im2col(x, 2, 2, 1, 0)
    assert col.shape == (1, 8)
    assert np.allclose(col[0, :4], x[0, 0].reshape(-1))
    assert np.allclose(col[0, 4:], x[0, 1].reshape(-1))


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
