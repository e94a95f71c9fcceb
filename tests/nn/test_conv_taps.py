"""Conv2D over the kernel taps that reach its input, and its input
gradient split by stride phase.

A convolution unfolds and multiplies only each axis's
:func:`~repro.nn.im2col.tap_window`, and its input gradient runs one
stride-1 transposed convolution per stride phase.  The references know
nothing of either: a per-output, per-tap channel-first loop for the
forward, central differences for the gradients, and the brute-force set
of taps that land on a real cell for the window.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import check_layer_gradients
from repro.nn.im2col import conv_output_size, tap_window
from repro.nn.layers import Conv2D
from repro.nn.models import alex_cifar10
from test_im2col import reference_forward

TOL = 1e-5

# (height, width, kernel, stride, pad, taps unfolded per axis)
GEOMETRIES = [
    pytest.param((2, 2, 5, 1, 2, (3, 3)), id="2x2-k5-p2"),  # Alex conv3 at 8x8 images
    pytest.param((1, 1, 3, 1, 1, (1, 1)), id="1x1-k3-p1"),  # the centre tap only
    pytest.param((2, 4, 5, 1, 2, (3, 5)), id="2x4-k5-p2"),  # rows crop, columns do not
    pytest.param((6, 6, 3, 2, 1, (3, 3)), id="6x6-k3-s2-p1"),  # four phases
    pytest.param((7, 7, 5, 3, 2, (5, 5)), id="7x7-k5-s3-p2"),  # nine unequal phases
    pytest.param((5, 5, 2, 3, 0, (2, 2)), id="5x5-k2-s3-p0"),  # a phase with no tap
    pytest.param((1, 1, 1, 3, 1, (0, 0)), id="1x1-k1-s3-p1"),  # every window in the pad
]


def reached_taps(size, kernel, stride, pad):
    """The taps that land on a real cell for some output, by brute force."""
    out = conv_output_size(size, kernel, stride, pad)
    return {
        d
        for d in range(kernel)
        for o in range(out)
        if pad <= o * stride + d < pad + size
    }


def reference_conv(x, weight, bias, stride, pad):
    """Channel-first loop over outputs and the whole kernel."""
    n, _, h, w = x.shape
    oc, _, k, _ = weight.shape
    out_h = conv_output_size(h, k, stride, pad)
    out_w = conv_output_size(w, k, stride, pad)
    img = np.pad(x, [(0, 0), (0, 0), (pad, pad), (pad, pad)])
    out = np.empty((n, oc, out_h, out_w))
    for i in range(out_h):
        for j in range(out_w):
            patch = img[:, :, i * stride : i * stride + k, j * stride : j * stride + k]
            out[:, :, i, j] = np.tensordot(patch, weight, axes=([1, 2, 3], [1, 2, 3]))
    return out + bias[:, None, None]


def make_conv(geometry, seed, in_channels=3, out_channels=4):
    h, w, k, stride, pad, _ = geometry
    rng = np.random.default_rng(seed)
    layer = Conv2D("conv", in_channels, out_channels, k, stride=stride, pad=pad, rng=rng)
    layer.bias[...] = rng.standard_normal(out_channels)
    return layer, rng.standard_normal((2, in_channels, h, w)), rng


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_forward_matches_channel_first_loop(geometry):
    layer, x, _ = make_conv(geometry, seed=1)
    expected = reference_conv(x, layer.weight, layer.bias, layer.stride, layer.pad)
    for training in (False, True):
        out = layer.forward(x, training=training)
        assert out.shape == expected.shape
        assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max()
    # The training forward unfolded only the window's taps.
    th, tw = geometry[5]
    assert layer._col.shape == (2 * expected.shape[2] * expected.shape[3], th * tw * 3)


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_gradients_match_finite_differences(geometry):
    layer, x, rng = make_conv(geometry, seed=2)
    input_error, param_errors = check_layer_gradients(layer, x, rng)
    assert input_error < TOL
    assert param_errors["weight"] < TOL
    assert param_errors["bias"] < TOL


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_weight_gradient_is_written_in_full(geometry):
    """Every backward overwrites the whole weight gradient, and a tap
    that reaches no real cell gets exactly zero."""
    h, w, k, stride, pad, _ = geometry
    layer, x, rng = make_conv(geometry, seed=3)
    out = layer.forward(x, training=True)
    layer.grads["weight"].fill(np.nan)
    layer.backward(rng.standard_normal(out.shape))
    grad = layer.grads["weight"]
    assert np.isfinite(grad).all()
    rows = reached_taps(h, k, stride, pad)
    cols = reached_taps(w, k, stride, pad)
    for dy in range(k):
        for dx in range(k):
            if dy not in rows or dx not in cols:
                assert not grad[:, :, dy, dx].any(), (dy, dx)


@pytest.mark.parametrize("geometry", [GEOMETRIES[0], GEOMETRIES[3]])
def test_float32_cast_keeps_float32(geometry):
    layer, x, rng = make_conv(geometry, seed=4)
    layer.cast_params(np.float32)
    out = layer.forward(x.astype(np.float32), training=True)
    grad_in = layer.backward(rng.standard_normal(out.shape).astype(np.float32))
    assert out.dtype == grad_in.dtype == np.float32
    assert layer.grads["weight"].dtype == layer.grads["bias"].dtype == np.float32
    expected = reference_conv(x, layer.weight.astype(np.float64),
                              layer.bias.astype(np.float64), layer.stride, layer.pad)
    assert np.abs(out - expected).max() <= 1e-5 * np.abs(expected).max()


def test_alex_timing_stack_matches_channel_first_reference(rng):
    """At the Figs. 5-7 timing size conv3 sees 2x2 maps and runs its
    central 3x3 taps; the logits still equal the full-kernel loops'."""
    net = alex_cifar10(image_size=8, seed=0)
    x = rng.standard_normal((3, 3, 8, 8))
    expected = reference_forward(net, x)
    for training in (False, True):
        logits = net.forward(x, training=training)
        assert np.abs(logits - expected).max() <= 1e-12 * np.abs(expected).max()


@given(
    size=st.integers(1, 9),
    kernel=st.integers(1, 7),
    stride=st.integers(1, 3),
    pad=st.integers(0, 4),
)
@settings(max_examples=300, deadline=None)
def test_window_holds_every_reached_tap(size, kernel, stride, pad):
    if size + 2 * pad < kernel:
        with pytest.raises(ValueError):
            tap_window(size, kernel, stride, pad)
        return
    window = set(range(kernel)[tap_window(size, kernel, stride, pad)])
    reached = reached_taps(size, kernel, stride, pad)
    if stride == 1:
        assert window == reached
    else:
        assert reached <= window
