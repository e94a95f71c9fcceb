"""Unit tests for the fixed-form baseline regularizers.

Every gradient is checked against a numerical derivative of the penalty
(at points away from the L1/Huber kinks), and so is the GM
regularizer's Eq. (10) ``g_reg`` with its mixture held fixed.
"""

import numpy as np
import pytest

from repro.core import (
    ElasticNetRegularizer,
    GMHyperParams,
    GMRegularizer,
    HuberRegularizer,
    L1Regularizer,
    L2Regularizer,
    NoRegularizer,
)


def numeric_grad(reg, w, eps=1e-6):
    grad = np.zeros_like(w)
    for i in range(w.size):
        wp, wm = w.copy(), w.copy()
        wp[i] += eps
        wm[i] -= eps
        grad[i] = (reg.penalty(wp) - reg.penalty(wm)) / (2 * eps)
    return grad


@pytest.fixture
def w(rng):
    values = rng.normal(0, 1.0, size=20)
    # Keep points away from |w|=0 kinks for numerical differentiation.
    values[np.abs(values) < 0.05] = 0.3
    return values


def test_no_regularizer_is_zero(w):
    reg = NoRegularizer()
    assert reg.penalty(w) == 0.0
    assert np.array_equal(reg.gradient(w), np.zeros_like(w))


def test_l1_penalty_and_gradient(w):
    reg = L1Regularizer(strength=2.5)
    assert np.isclose(reg.penalty(w), 2.5 * np.abs(w).sum())
    assert np.allclose(reg.gradient(w), numeric_grad(reg, w), atol=1e-5)


def test_l2_penalty_and_gradient(w):
    reg = L2Regularizer(strength=3.0)
    assert np.isclose(reg.penalty(w), 1.5 * np.square(w).sum())
    assert np.allclose(reg.gradient(w), numeric_grad(reg, w), atol=1e-5)


def test_l2_gradient_is_strength_times_w(w):
    reg = L2Regularizer(strength=7.0)
    assert np.allclose(reg.gradient(w), 7.0 * w)


def test_elastic_net_interpolates(w):
    strength = 4.0
    pure_l1 = ElasticNetRegularizer(strength, l1_ratio=1.0)
    pure_l2 = ElasticNetRegularizer(strength, l1_ratio=0.0)
    assert np.isclose(pure_l1.penalty(w), L1Regularizer(strength).penalty(w))
    assert np.isclose(pure_l2.penalty(w), L2Regularizer(strength).penalty(w))


def test_elastic_net_gradient_numeric(w):
    reg = ElasticNetRegularizer(strength=2.0, l1_ratio=0.3)
    assert np.allclose(reg.gradient(w), numeric_grad(reg, w), atol=1e-5)


def test_huber_is_quadratic_near_zero_linear_far():
    reg = HuberRegularizer(strength=1.0, mu=1.0)
    small = np.array([0.2])
    large = np.array([5.0])
    assert np.isclose(reg.penalty(small), 0.02)  # x^2 / (2 mu)
    assert np.isclose(reg.penalty(large), 4.5)  # |x| - mu/2


def test_huber_gradient_continuous_at_threshold():
    reg = HuberRegularizer(strength=1.0, mu=0.7)
    below = reg.gradient(np.array([0.7 - 1e-9]))[0]
    above = reg.gradient(np.array([0.7 + 1e-9]))[0]
    assert abs(below - above) < 1e-6


def test_huber_gradient_numeric(w):
    reg = HuberRegularizer(strength=1.5, mu=0.8)
    # Avoid the kink at |w| = mu.
    safe = w[np.abs(np.abs(w) - 0.8) > 0.05]
    assert np.allclose(reg.gradient(safe), numeric_grad(reg, safe), atol=1e-5)


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("at_zero", [False, True], ids=["w", "w=0"])
def test_gm_gradient_numeric(w, k, at_zero):
    point = np.zeros_like(w) if at_zero else w
    reg = GMRegularizer(
        n_dimensions=w.size,
        weight_init_std=1.0,
        hyperparams=GMHyperParams(n_components=k),
    )
    # The E-step kernel's g_reg, differentiated with pi/lambda frozen:
    # no M-step runs between prepare() and the penalty evaluations.
    reg.prepare(point, iteration=0)
    assert reg.mixture.n_components == k
    assert np.allclose(reg.gradient(point), numeric_grad(reg, point), atol=1e-5)


@pytest.mark.parametrize("cls", [L1Regularizer, L2Regularizer])
def test_negative_strength_rejected(cls):
    with pytest.raises(ValueError):
        cls(strength=-1.0)


def test_elastic_net_validates_ratio():
    with pytest.raises(ValueError):
        ElasticNetRegularizer(1.0, l1_ratio=1.5)


def test_huber_validates_mu():
    with pytest.raises(ValueError):
        HuberRegularizer(1.0, mu=0.0)


def test_zero_strength_is_no_op(w):
    for reg in (L1Regularizer(0.0), L2Regularizer(0.0),
                ElasticNetRegularizer(0.0), HuberRegularizer(0.0)):
        assert reg.penalty(w) == 0.0
        assert np.allclose(reg.gradient(w), 0.0)


def test_prepare_update_hooks_are_noops(w):
    reg = L2Regularizer(1.0)
    before = reg.gradient(w).copy()
    reg.prepare(w, iteration=0)
    reg.update(w, iteration=0)
    reg.epoch_end(0)
    assert np.array_equal(reg.gradient(w), before)
