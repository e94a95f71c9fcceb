"""Finite-difference gradient checks for every layer type.

This is the framework's primary correctness evidence: every hand-derived
backward pass is compared against central differences of the forward
pass on small random inputs.
"""

import numpy as np
import pytest

from repro.nn import check_layer_gradients
from repro.nn.layers import (
    AvgPool2D,
    BatchNorm2D,
    Conv2D,
    Dense,
    Flatten,
    GlobalAvgPool2D,
    LocalResponseNorm,
    MaxPool2D,
    ReLU,
    ResidualBlock,
    Sigmoid,
    Tanh,
)

TOL = 1e-5


def build_cases(rng):
    return [
        (Dense("dense", 6, 4, rng=rng), rng.standard_normal((3, 6))),
        (Conv2D("conv", 2, 3, 3, stride=1, pad=1, rng=rng),
         rng.standard_normal((2, 2, 5, 5))),
        (Conv2D("conv_s2", 3, 2, 3, stride=2, pad=1, rng=rng),
         rng.standard_normal((2, 3, 6, 6))),
        (MaxPool2D("maxpool", 2, 2), rng.standard_normal((2, 2, 4, 4))),
        (AvgPool2D("avgpool", 2, 2), rng.standard_normal((2, 2, 4, 4))),
        (AvgPool2D("avgpool3", 3, 2, pad=1), rng.standard_normal((1, 2, 5, 5))),
        (GlobalAvgPool2D("gap"), rng.standard_normal((2, 3, 4, 4))),
        (BatchNorm2D("bn", 3), rng.standard_normal((4, 3, 3, 3))),
        (LocalResponseNorm("lrn"), rng.standard_normal((2, 5, 3, 3))),
        (ReLU("relu"), rng.standard_normal((3, 7)) + 0.05),
        (Sigmoid("sigmoid"), rng.standard_normal((3, 7))),
        (Tanh("tanh"), rng.standard_normal((3, 7))),
        (Flatten("flatten"), rng.standard_normal((2, 3, 2, 2))),
        (ResidualBlock("rb_id", 3, 3, stride=1, rng=rng),
         rng.standard_normal((2, 3, 4, 4))),
        (ResidualBlock("rb_proj", 2, 4, stride=2, rng=rng),
         rng.standard_normal((2, 2, 6, 6))),
        # All-negative input: a padded cell must never win the max.
        (MaxPool2D("maxpool_pad", 3, 2, pad=1),
         -np.abs(rng.standard_normal((2, 2, 5, 5))) - 0.1),
        # Fewer channels than the window.
        (LocalResponseNorm("lrn5", size=5, alpha=1e-2), rng.standard_normal((2, 3, 3, 3))),
    ]


@pytest.mark.parametrize("case_index", range(17))
def test_layer_input_gradient(case_index):
    rng = np.random.default_rng(500 + case_index)
    layer, x = build_cases(rng)[case_index]
    input_error, param_errors = check_layer_gradients(layer, x, rng)
    assert input_error < TOL, f"{layer.name}: input grad error {input_error}"
    for key, err in param_errors.items():
        assert err < TOL, f"{layer.name}/{key}: param grad error {err}"


def test_residual_block_child_parameter_gradients():
    """ResidualBlock parameters live in child layers; check them too."""
    rng = np.random.default_rng(42)
    block = ResidualBlock("rb", 2, 3, stride=2, rng=rng)
    x = rng.standard_normal((2, 2, 4, 4))
    r = rng.standard_normal(block.forward(x, training=True).shape)

    def objective():
        return float(np.sum(block.forward(x, training=True) * r))

    block.forward(x, training=True)
    block.backward(r.copy())
    from repro.nn import numerical_gradient

    for name, value, grad in block.parameter_items():
        analytic = grad.copy()
        numeric = numerical_gradient(objective, value)
        # Conv biases are exactly cancelled by the following batch norm
        # (mean subtraction), so both gradients are ~0 there and a pure
        # relative comparison would amplify finite-difference noise; use
        # a combined absolute + relative tolerance instead.
        assert np.allclose(analytic, numeric, rtol=1e-4, atol=5e-3), (
            f"{name}: max abs diff {np.abs(analytic - numeric).max()}"
        )


def test_backward_before_forward_raises():
    rng = np.random.default_rng(0)
    layer = Dense("d", 3, 2, rng=rng)
    with pytest.raises(RuntimeError):
        layer.backward(np.zeros((1, 2)))


def test_inference_forward_does_not_cache():
    rng = np.random.default_rng(0)
    layer = ReLU("r")
    layer.forward(rng.standard_normal((2, 3)), training=False)
    with pytest.raises(RuntimeError):
        layer.backward(np.zeros((2, 3)))
