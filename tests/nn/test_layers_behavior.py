"""Behavioural unit tests for individual layers (beyond gradient checks)."""

import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.nn.layers import (
    AvgPool2D,
    BatchNorm2D,
    Conv2D,
    Dense,
    LocalResponseNorm,
    MaxPool2D,
    ReLU,
    SoftmaxCrossEntropy,
    softmax,
)
from repro.nn.models import alex_cifar10


def test_dense_affine_map(rng):
    layer = Dense("d", 3, 2, weight_init_std=0.0, rng=rng)
    layer.weight[...] = [[1, 0], [0, 1], [1, 1]]
    layer.bias[...] = [10, 20]
    out = layer.forward(np.array([[1.0, 2.0, 3.0]]), training=False)
    assert np.allclose(out, [[14.0, 25.0]])


def test_conv_matches_manual_cross_correlation(rng):
    layer = Conv2D("c", 1, 1, 2, stride=1, pad=0, weight_init_std=0.0, rng=rng)
    layer.weight[...] = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    layer.bias[...] = [0.5]
    x = np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3)
    out = layer.forward(x, training=False)
    # Top-left: 0*1 + 1*2 + 3*3 + 4*4 + 0.5 = 27.5
    assert out.shape == (1, 1, 2, 2)
    assert np.isclose(out[0, 0, 0, 0], 27.5)


def test_conv_same_padding_preserves_spatial():
    layer = Conv2D("c", 3, 8, 5, stride=1, pad=2, rng=np.random.default_rng(0))
    out = layer.forward(np.zeros((2, 3, 16, 16)), training=False)
    assert out.shape == (2, 8, 16, 16)


def test_conv_rejects_wrong_channels():
    layer = Conv2D("c", 3, 4, 3, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        layer.forward(np.zeros((1, 2, 8, 8)), training=False)


def test_maxpool_selects_maximum():
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    out = MaxPool2D("mp", 2, 2).forward(x, training=False)
    assert np.allclose(out, [[[[4.0]]]])


def test_avgpool_averages():
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    out = AvgPool2D("ap", 2, 2).forward(x, training=False)
    assert np.allclose(out, [[[[2.5]]]])


def test_padded_maxpool_ignores_the_pad():
    # All-negative input: a zero pad border would win every edge window.
    x = -np.arange(1.0, 17.0).reshape(1, 1, 4, 4)
    layer = MaxPool2D("mp", 3, 2, pad=1)
    out = layer.forward(x, training=True)
    assert np.array_equal(out, [[[[-1.0, -2.0], [-5.0, -6.0]]]])
    grad = layer.backward(np.ones_like(out))
    # Each window's unit gradient reaches its winning input cell.
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[0, 1] = expected[1, 0] = expected[1, 1] = 1.0
    assert np.array_equal(grad[0, 0], expected)


@pytest.mark.parametrize("cls", [MaxPool2D, AvgPool2D])
def test_pool_rejects_pad_not_below_window(cls):
    with pytest.raises(ValueError):
        cls("p", 2, 2, pad=2)
    cls("p", 3, 2, pad=2)


@pytest.mark.parametrize("cls", [MaxPool2D, AvgPool2D])
@pytest.mark.parametrize("stride", [0, -1])
def test_pool_rejects_stride_below_one(cls, stride):
    with pytest.raises(ValueError, match="stride"):
        cls("p", 2, stride=stride)


def test_avgpool_counts_pad_cells_in_the_mean():
    out = AvgPool2D("ap", 3, 1, pad=1).forward(np.ones((1, 1, 2, 2)), training=False)
    assert np.allclose(out, 4.0 / 9.0)


def test_concurrent_inference_matches_serial_outputs():
    """Inference forwards on one model from many threads (as the
    server's leading callers run them) give the single-threaded bits."""
    net = alex_cifar10(image_size=16, seed=0)
    n_threads = (os.cpu_count() or 1) + 2
    rng = np.random.default_rng(7)
    batches = [rng.standard_normal((4, 3, 16, 16)) for _ in range(n_threads)]
    expected = [net.forward(b, training=False) for b in batches]
    mismatches = []
    calls = [0] * n_threads
    deadline = time.monotonic() + 3.0

    def worker(i):
        for _ in range(100):
            if time.monotonic() > deadline:
                break
            calls[i] += 1
            if not np.array_equal(net.forward(batches[i], training=False), expected[i]):
                mismatches.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert min(calls) > 0
    assert not mismatches, f"{len(mismatches)} of {sum(calls)} outputs differ"


def test_relu_zeroes_negatives():
    out = ReLU("r").forward(np.array([[-1.0, 0.0, 2.0]]), training=False)
    assert np.allclose(out, [[0.0, 0.0, 2.0]])


def test_batchnorm_normalizes_in_training(rng):
    bn = BatchNorm2D("bn", 4)
    x = rng.normal(3.0, 2.0, size=(16, 4, 5, 5))
    out = bn.forward(x, training=True)
    assert np.allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-7)
    assert np.allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-3)


def test_batchnorm_running_stats_used_at_inference(rng):
    bn = BatchNorm2D("bn", 2, momentum=0.0)  # running stats = last batch
    x = rng.normal(5.0, 3.0, size=(32, 2, 4, 4))
    bn.forward(x, training=True)
    out = bn.forward(x, training=False)
    assert np.allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=0.05)


def test_batchnorm_gamma_beta_affect_output(rng):
    bn = BatchNorm2D("bn", 2)
    bn.gamma[...] = [2.0, 1.0]
    bn.beta[...] = [0.0, 5.0]
    x = rng.normal(size=(8, 2, 3, 3))
    out = bn.forward(x, training=True)
    assert np.allclose(out.mean(axis=(0, 2, 3)), [0.0, 5.0], atol=1e-6)
    assert np.allclose(out.std(axis=(0, 2, 3)), [2.0, 1.0], atol=1e-2)


def test_batchnorm_regularizable_keys_empty():
    assert BatchNorm2D("bn", 2).regularizable_keys() == []


def test_lrn_identity_when_alpha_zero(rng):
    lrn = LocalResponseNorm("lrn", alpha=0.0)
    x = rng.normal(size=(2, 4, 3, 3))
    assert np.allclose(lrn.forward(x, training=False), x)


def test_lrn_suppresses_high_energy_channels(rng):
    lrn = LocalResponseNorm("lrn", size=3, alpha=1.0, beta=0.75)
    x = np.ones((1, 3, 1, 1))
    out = lrn.forward(x, training=False)
    assert np.all(out < 1.0)  # denominators > 1


def test_softmax_rows_sum_to_one(rng):
    probs = softmax(rng.normal(size=(5, 10)))
    assert np.allclose(probs.sum(axis=1), 1.0)
    assert np.all(probs > 0)


def test_softmax_stable_with_large_logits():
    probs = softmax(np.array([[1000.0, 0.0]]))
    assert np.isclose(probs[0, 0], 1.0)


def test_cross_entropy_loss_and_gradient(rng):
    head = SoftmaxCrossEntropy()
    logits = rng.normal(size=(6, 4))
    labels = rng.integers(0, 4, size=6)
    loss, grad = head.loss_and_gradient(logits.copy(), labels)
    # Numeric check on the logits.
    eps = 1e-6
    for i in range(6):
        for j in range(4):
            lp = logits.copy()
            lp[i, j] += eps
            lm = logits.copy()
            lm[i, j] -= eps
            num = (head.loss_and_gradient(lp, labels)[0]
                   - head.loss_and_gradient(lm, labels)[0]) / (2 * eps)
            assert grad[i, j] == pytest.approx(num, abs=1e-5)


def test_cross_entropy_validates_labels(rng):
    head = SoftmaxCrossEntropy()
    with pytest.raises(ValueError):
        head.loss_and_gradient(rng.normal(size=(3, 2)), np.array([0, 1, 2]))
    with pytest.raises(ValueError):
        head.loss_and_gradient(rng.normal(size=(3, 2)), np.array([0, 1]))


def test_cross_entropy_perfect_prediction_near_zero_loss():
    head = SoftmaxCrossEntropy()
    logits = np.array([[100.0, 0.0], [0.0, 100.0]])
    loss, _ = head.loss_and_gradient(logits, np.array([0, 1]))
    assert loss < 1e-6
