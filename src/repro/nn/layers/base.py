"""Layer base class of the from-scratch deep-learning framework.

The paper integrates its regularization tool with Apache SINGA, a
layer-based deep-learning platform.  This package is the offline
substitute: a small but complete layer framework with explicit
forward/backward passes, in the style of SINGA/Caffe.

Conventions shared by every layer:

- activations are ``(N, ...)`` numpy arrays with the batch first;
  convolutional tensors have the shape ``(N, C, H, W)`` but image
  layers store them channel-last: the memory is ``(N, H, W, C)``
  C-contiguous and the layer returns its ``transpose(0, 3, 1, 2)``
  view, so the next layer's ``x.transpose(0, 2, 3, 1)`` is free
  (DESIGN.md §4j).  Any memory order is accepted on input;
- ``forward(x, training)`` returns the output and caches whatever the
  backward pass needs;
- ``backward(grad_out)`` consumes the gradient w.r.t. the output and
  returns the gradient w.r.t. the input, accumulating parameter
  gradients into ``grads`` (aligned with ``params``).  A network's
  first layer has :attr:`Layer.input_grad` off: nobody reads its input
  gradient, so layers whose input gradient costs a GEMM return
  ``None`` there instead;
- parameters are exposed as named numpy arrays so the trainer can
  attach per-layer regularizers to the *weights* and leave biases and
  normalization scales unregularized, as the paper does.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["Layer", "input_gradient"]


class Layer:
    """Base class: a (possibly parameterless) differentiable transform."""

    #: Whether :meth:`backward` must return the input gradient.  Set by
    #: :class:`~repro.nn.network.Network` from the layer's position: off
    #: for the first layer only.
    input_grad = True

    def __init__(self, name: str):
        self.name = name
        # Parallel dicts: parameter arrays and their gradient accumulators.
        self.params: Dict[str, np.ndarray] = {}
        self.grads: Dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        """Compute the layer output; cache state needed by backward."""
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> Optional[np.ndarray]:
        """Gradient w.r.t. the input; fills ``self.grads`` for parameters.

        May return ``None`` when :attr:`input_grad` is off.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    def add_param(self, key: str, value: np.ndarray) -> np.ndarray:
        """Register a trainable array and its zeroed gradient buffer.

        Parameters are always created in float64 so every precision
        starts from identical values; :meth:`cast_params` converts an
        assembled model to a lower compute dtype afterwards.
        """
        value = np.ascontiguousarray(value, dtype=np.float64)
        self.params[key] = value
        self.grads[key] = np.zeros_like(value)
        return value

    def cast_params(self, dtype: np.dtype) -> None:
        """Convert every parameter and gradient buffer to ``dtype``.

        The float32 fast path: parameters are initialized in float64
        (identical starting values across precisions) and cast in place
        here.  Both the ``params``/``grads`` dicts and any instance
        attributes aliasing the same arrays (``self.weight`` et al.) are
        rebound, so layer code keeps working unchanged.  Composite
        layers recurse into ``children()``; layers holding non-parameter
        state in other dtypes override :meth:`cast_extras`.
        """
        dtype = np.dtype(dtype)
        children = getattr(self, "children", None)
        if callable(children):
            for child in children():
                child.cast_params(dtype)
        for key, value in list(self.params.items()):
            if value.dtype == dtype:
                continue
            old_grad = self.grads[key]
            new_value = np.ascontiguousarray(value, dtype=dtype)
            new_grad = old_grad.astype(dtype)
            for attr, ref in list(vars(self).items()):
                if ref is value:
                    setattr(self, attr, new_value)
                elif ref is old_grad:
                    setattr(self, attr, new_grad)
            self.params[key] = new_value
            self.grads[key] = new_grad
        self.cast_extras(dtype)

    def cast_extras(self, dtype: np.dtype) -> None:
        """Hook for non-parameter floating state (e.g. batch-norm running
        statistics); the base layer has none."""

    def parameter_items(self) -> List[Tuple[str, np.ndarray, np.ndarray]]:
        """``(qualified_name, value, grad)`` triples for the trainer."""
        return [
            (f"{self.name}/{key}", self.params[key], self.grads[key])
            for key in self.params
        ]

    @property
    def n_parameters(self) -> int:
        """Total scalar parameters in this layer."""
        return int(sum(p.size for p in self.params.values()))

    def regularizable_keys(self) -> List[str]:
        """Parameter keys that should carry a regularizer.

        By default only ``"weight"`` — biases, batch-norm scales and
        offsets stay unregularized, matching standard weight-decay
        practice and the paper's per-layer weight GMs.
        """
        return [key for key in self.params if key == "weight"]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def input_gradient(layer: Layer, grad_out: np.ndarray) -> np.ndarray:
    """``layer.backward(grad_out)`` for a caller that reads the input
    gradient; raises if the layer skipped it (``input_grad`` off)."""
    grad = layer.backward(grad_out)
    if grad is None:
        raise RuntimeError(f"{layer.name}: input gradient skipped (input_grad off)")
    return grad
