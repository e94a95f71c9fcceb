"""Tests for the Network container and the Table III architectures."""

import numpy as np
import pytest

from repro.core import GMRegularizer, L2Regularizer
from repro.nn import Network, alex_cifar10, resnet20, resnet_cifar
from repro.nn.layers import Dense, ReLU
from repro.optim import Trainer


def tiny_mlp(rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    return Network([
        Dense("fc1", 8, 16, rng=rng),
        ReLU("relu1"),
        Dense("fc2", 16, 3, rng=rng),
    ], name="tiny")


def test_network_forward_shape(rng):
    net = tiny_mlp()
    out = net.forward(rng.normal(size=(5, 8)), training=False)
    assert out.shape == (5, 3)


@pytest.mark.parametrize("build", ["mlp", "alex"])
def test_first_layer_skips_only_its_input_gradient(build, rng):
    if build == "mlp":
        net, x = tiny_mlp(), rng.normal(size=(4, 8))
    else:
        net, x = alex_cifar10(image_size=8, seed=0), rng.normal(size=(4, 3, 8, 8))
    y = np.array([0, 1, 2, 0])
    assert [layer.input_grad for layer in net.layers] == (
        [False] + [True] * (len(net.layers) - 1)
    )
    _, grads = net.loss_and_gradients(x, y)
    skipped = [g.copy() for g in grads]
    first = net.layers[0]
    out = first.forward(x, training=True)
    assert first.backward(np.ones_like(out)) is None
    # With the input gradient computed, every parameter gradient is the same.
    first.input_grad = True
    _, grads = net.loss_and_gradients(x, y)
    assert all(np.array_equal(a, b) for a, b in zip(skipped, grads))
    assert first.backward(np.ones_like(out)).shape == x.shape


def test_network_gradient_check(rng):
    net = tiny_mlp()
    x = rng.normal(size=(4, 8))
    y = rng.integers(0, 3, size=4)
    _loss, grads = net.loss_and_gradients(x, y)
    eps = 1e-6
    for param, grad in zip(net.parameters(), grads):
        flat = param.value.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(0, flat.size, max(1, flat.size // 5)):
            original = flat[i]
            flat[i] = original + eps
            lp, _ = net.loss_and_gradients(x, y)
            flat[i] = original - eps
            lm, _ = net.loss_and_gradients(x, y)
            flat[i] = original
            assert gflat[i] == pytest.approx((lp - lm) / (2 * eps), abs=1e-4), \
                param.name


def test_network_trains_to_fit_small_data(rng):
    net = tiny_mlp()
    x = rng.normal(size=(30, 8))
    y = rng.integers(0, 3, size=30)
    Trainer(net, lr=0.5, batch_size=10).fit(x, y, epochs=100, rng=rng)
    assert np.mean(net.predict(x) == y) > 0.9


def test_attach_regularizers_weights_only():
    net = tiny_mlp()
    net.attach_regularizers(lambda name, m, std: L2Regularizer(1.0))
    regs = net.weight_regularizers()
    assert set(regs) == {"fc1/weight", "fc2/weight"}
    for param in net.parameters():
        if param.name.endswith("/weight"):
            assert param.regularizer is not None
        else:
            assert param.regularizer is None


def test_attach_regularizers_factory_arguments():
    net = tiny_mlp()
    seen = {}

    def factory(name, m, std):
        seen[name] = (m, std)
        return None

    net.attach_regularizers(factory)
    assert seen["fc1/weight"][0] == 8 * 16
    assert seen["fc2/weight"][0] == 16 * 3


def test_predict_batched_matches_full(rng):
    net = tiny_mlp()
    x = rng.normal(size=(20, 8))
    assert np.array_equal(net.predict(x, batch_size=7), net.predict(x))


def test_predict_on_zero_rows_returns_empty_labels(rng):
    net = tiny_mlp()
    labels = net.predict(np.empty((0, 8)))
    assert labels.shape == (0,)
    assert labels.dtype == net.predict(rng.normal(size=(2, 8))).dtype


def test_empty_network_rejected():
    with pytest.raises(ValueError):
        Network([])


def test_alex_weight_count_matches_paper():
    model = alex_cifar10(image_size=32, seed=0)
    weights_only = sum(
        p.value.size for p in model.parameters() if p.name.endswith("/weight")
    )
    assert weights_only == 89440  # the paper's Alex-CIFAR-10 dimension


def test_alex_forward_shape():
    model = alex_cifar10(image_size=16, width_scale=0.5, seed=0)
    out = model.forward(np.zeros((2, 3, 16, 16)), training=False)
    assert out.shape == (2, 10)


def test_alex_rejects_bad_image_size():
    with pytest.raises(ValueError):
        alex_cifar10(image_size=20)


def test_resnet20_depth():
    model = resnet20(seed=0)
    # 6n+2 weighted layers: conv1 + 9 blocks x 2 convs + dense = 20
    conv_and_dense = [
        p.name for p in model.parameters()
        if p.name.endswith("/weight") and "br2" not in p.name
    ]
    assert len(conv_and_dense) == 20


def test_resnet_layer_names_match_table5():
    model = resnet20(seed=0)
    names = {p.name for p in model.parameters()}
    for expected in ("conv1/weight", "2a-br1-conv1/weight",
                     "3a-br2-conv/weight", "4a-br1-conv2/weight",
                     "ip5/weight"):
        assert expected in names


def test_resnet_forward_shape():
    model = resnet_cifar(n_blocks_per_stage=1, base_width=8, seed=0)
    out = model.forward(np.zeros((2, 3, 16, 16), dtype=np.float64),
                        training=False)
    assert out.shape == (2, 10)


def test_per_layer_gm_regularizers_are_distinct():
    model = alex_cifar10(image_size=16, width_scale=0.25, seed=0)
    model.attach_regularizers(
        lambda name, m, std: GMRegularizer(n_dimensions=m, weight_init_std=std)
    )
    regs = model.weight_regularizers()
    assert len(regs) == 4  # conv1-3 + dense
    assert len({id(r) for r in regs.values()}) == 4


def test_network_summary_mentions_all_layers():
    net = tiny_mlp()
    summary = net.summary()
    for name in ("fc1", "relu1", "fc2"):
        assert name in summary
