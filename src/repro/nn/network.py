"""Sequential network container implementing ``TrainableModel``.

A :class:`Network` is an ordered stack of layers ending (implicitly) in
a softmax cross-entropy head.  It exposes the paper's integration
surface: after construction, :meth:`attach_regularizers` walks the
layers and attaches a per-layer regularizer to every weight tensor —
for the GM tool one :class:`~repro.core.GMRegularizer` per layer, each
calibrated from that layer's actual ``weight_init_std`` (Section V-E)
and learning its own ``(pi, lambda)`` (Tables IV/V).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.regularizers import Regularizer
from ..optim.trainer import Parameter
from .layers.base import Layer, input_gradient
from .layers.loss import SoftmaxCrossEntropy

__all__ = ["Network", "RegularizerFactory"]

# factory(layer_name, n_dimensions, weight_init_std) -> Regularizer | None
RegularizerFactory = Callable[[str, int, float], Optional[Regularizer]]


class Network:
    """A feed-forward stack of layers with a softmax cross-entropy head."""

    def __init__(self, layers: List[Layer], name: str = "network"):
        if not layers:
            raise ValueError("a network needs at least one layer")
        self.name = name
        self.layers = list(layers)
        # Nobody reads the first layer's input gradient, so its backward
        # may skip computing it (DESIGN.md §4j).
        for index, layer in enumerate(self.layers):
            layer.input_grad = index > 0
        self.loss_head = SoftmaxCrossEntropy()
        self._parameters: List[Parameter] = []
        self._grad_refs: List[np.ndarray] = []
        self._weight_regularizers: Dict[str, Regularizer] = {}
        self._dtype: Optional[np.dtype] = None
        self._rebuild_parameters()

    # ------------------------------------------------------------------
    # Parameter plumbing
    # ------------------------------------------------------------------
    def _rebuild_parameters(self) -> None:
        self._parameters = []
        self._grad_refs = []
        for layer in self.layers:
            for qualified, value, grad in layer.parameter_items():
                reg = self._weight_regularizers.get(qualified)
                self._parameters.append(Parameter(qualified, value, reg))
                self._grad_refs.append(grad)

    def attach_regularizers(self, factory: RegularizerFactory) -> None:
        """Attach a regularizer to every *weight* tensor.

        ``factory`` receives the qualified parameter name (e.g.
        ``"conv1/weight"``), the tensor's scalar dimension count ``M``
        and the layer's weight-init std, and returns a regularizer or
        ``None``.  Biases and normalization parameters never get one.
        """
        self._weight_regularizers.clear()
        for layer in self.layers:
            self._attach_for_layer(layer, factory)
        self._rebuild_parameters()

    def _attach_for_layer(self, layer: Layer, factory: RegularizerFactory) -> None:
        children = getattr(layer, "children", None)
        if callable(children):
            for child in children():
                self._attach_for_layer(child, factory)
            return
        for key in layer.regularizable_keys():
            value = layer.params[key]
            init_std = float(getattr(layer, "weight_init_std", 0.1))
            reg = factory(f"{layer.name}/{key}", value.size, init_std)
            if reg is not None:
                self._weight_regularizers[f"{layer.name}/{key}"] = reg

    def weight_regularizers(self) -> Dict[str, Regularizer]:
        """``{qualified_weight_name: regularizer}`` currently attached."""
        return dict(self._weight_regularizers)

    # ------------------------------------------------------------------
    # Compute dtype (the float32 fast path)
    # ------------------------------------------------------------------
    @property
    def dtype(self) -> Optional[np.dtype]:
        """Compute dtype set by :meth:`to_dtype` (``None`` = float64)."""
        return self._dtype

    def to_dtype(self, dtype) -> "Network":
        """Cast every layer's parameters and state to ``dtype`` in place.

        The float32 fast path: layers initialize in float64 (identical
        starting values across precisions), then the assembled network
        is converted once.  Inputs are cast on entry to :meth:`forward`,
        so the whole forward/backward pipeline — im2col patch matrices,
        BLAS matmuls, activation caches — runs at the reduced precision
        and halved memory traffic.  Call *before*
        :meth:`attach_regularizers` / trainer construction so
        regularizers and optimizer state bind the cast arrays.

        Returns ``self`` for chaining.
        """
        dtype = np.dtype(dtype)
        if dtype.kind != "f":
            raise ValueError(f"dtype must be floating, got {dtype}")
        self._dtype = None if dtype == np.dtype(np.float64) else dtype
        for layer in self.layers:
            layer.cast_params(dtype)
        self._rebuild_parameters()
        return self

    # ------------------------------------------------------------------
    # TrainableModel interface
    # ------------------------------------------------------------------
    def parameters(self) -> List[Parameter]:
        return self._parameters

    def loss_and_gradients(
        self, x: np.ndarray, y: np.ndarray
    ) -> Tuple[float, List[np.ndarray]]:
        logits = self.forward(x, training=True)
        loss, grad = self.loss_head.loss_and_gradient(logits, y)
        self.backward(grad)
        return loss, list(self._grad_refs)

    def predict(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Class predictions, evaluated in inference mode in chunks."""
        outputs = [np.empty(0, dtype=np.intp)]
        for lo in range(0, x.shape[0], batch_size):
            logits = self.forward(x[lo : lo + batch_size], training=False)
            outputs.append(np.argmax(logits, axis=1))
        return np.concatenate(outputs)

    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        out = x if self._dtype is None else np.asarray(x, dtype=self._dtype)
        for layer in self.layers:
            out = layer.forward(out, training)
        return out

    def backward(self, grad: np.ndarray) -> None:
        """Backpropagate the loss gradient into every layer's ``grads``;
        the first layer's input gradient is not computed."""
        for layer in reversed(self.layers[1:]):
            grad = input_gradient(layer, grad)
        self.layers[0].backward(grad)

    # ------------------------------------------------------------------
    @property
    def n_parameters(self) -> int:
        """Total scalar parameter count (the paper reports 89440 for
        Alex-CIFAR-10 and 270896 for ResNet-20 at full scale)."""
        return int(sum(p.value.size for p in self._parameters))

    def summary(self) -> str:
        """One line per layer with its parameter count."""
        lines = [f"Network {self.name!r}: {self.n_parameters} parameters"]
        for layer in self.layers:
            lines.append(
                f"  {layer.name:24s} {type(layer).__name__:18s}"
                f" {layer.n_parameters:8d} params"
            )
        return "\n".join(lines)
