"""Residual block (He et al., 2016) as a composite layer.

Matches the ResNet rows of Table III: two 3x3 convolutions with batch
norm and ReLU in the residual branch ("br1" in the paper's Table V
naming), an identity shortcut within a stage, and a 3x3 stride-2
projection convolution ("br2") at stage transitions where the channel
count doubles and the spatial extent halves.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ...rng import default_generator
from .base import Layer, input_gradient
from .conv import Conv2D
from .norm import BatchNorm2D

__all__ = ["ResidualBlock"]


class ResidualBlock(Layer):
    """``out = relu(bn2(conv2(relu(bn1(conv1(x))))) + shortcut(x))``.

    Parameters
    ----------
    name:
        Block name; children are named ``<name>-br1-conv1``,
        ``<name>-br1-conv2`` and (when projecting) ``<name>-br2-conv``,
        mirroring the layer names of the paper's Table V.
    in_channels, out_channels:
        Channel counts; differing counts force a projection shortcut.
    stride:
        Stride of the first convolution (2 at stage transitions).
    rng:
        Seeded generator shared by the child convolutions.
    """

    def __init__(
        self,
        name: str,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__(name)
        rng = rng if rng is not None else default_generator()
        self.conv1 = Conv2D(
            f"{name}-br1-conv1", in_channels, out_channels, 3, stride=stride,
            pad=1, rng=rng,
        )
        self.bn1 = BatchNorm2D(f"{name}-br1-bn1", out_channels)
        self.conv2 = Conv2D(
            f"{name}-br1-conv2", out_channels, out_channels, 3, stride=1,
            pad=1, rng=rng,
        )
        self.bn2 = BatchNorm2D(f"{name}-br1-bn2", out_channels)
        self.projection: Optional[Conv2D] = None
        self.projection_bn: Optional[BatchNorm2D] = None
        if stride != 1 or in_channels != out_channels:
            self.projection = Conv2D(
                f"{name}-br2-conv", in_channels, out_channels, 3, stride=stride,
                pad=1, rng=rng,
            )
            self.projection_bn = BatchNorm2D(f"{name}-br2-bn", out_channels)
        self._relu_mask1: Optional[np.ndarray] = None
        self._relu_mask_out: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def children(self) -> List[Layer]:
        """Child layers in forward order (projection last)."""
        kids: List[Layer] = [self.conv1, self.bn1, self.conv2, self.bn2]
        if self.projection is not None:
            kids.append(self.projection)
            if self.projection_bn is None:
                raise RuntimeError(
                    f"{self.name}: projection exists without projection_bn"
                )
            kids.append(self.projection_bn)
        return kids

    def parameter_items(self) -> List[Tuple[str, np.ndarray, np.ndarray]]:
        items: List[Tuple[str, np.ndarray, np.ndarray]] = []
        for child in self.children():
            items.extend(child.parameter_items())
        return items

    @property
    def n_parameters(self) -> int:
        return int(sum(child.n_parameters for child in self.children()))

    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        branch = self.conv1.forward(x, training)
        branch = self.bn1.forward(branch, training)
        mask1 = branch > 0.0
        branch = np.where(mask1, branch, 0.0)
        branch = self.conv2.forward(branch, training)
        branch = self.bn2.forward(branch, training)
        if self.projection is not None:
            if self.projection_bn is None:
                raise RuntimeError(
                    f"{self.name}: projection exists without projection_bn"
                )
            shortcut = self.projection_bn.forward(
                self.projection.forward(x, training), training
            )
        else:
            shortcut = x
        out = branch + shortcut
        mask_out = out > 0.0
        out = np.where(mask_out, out, 0.0)
        if training:
            self._relu_mask1 = mask1
            self._relu_mask_out = mask_out
        else:
            self._relu_mask1 = None
            self._relu_mask_out = None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._relu_mask1 is None or self._relu_mask_out is None:
            raise RuntimeError(f"{self.name}: backward before training forward")
        grad = np.where(self._relu_mask_out, grad_out, 0.0)
        # Residual branch.
        grad_branch = self.bn2.backward(grad)
        grad_branch = input_gradient(self.conv2, grad_branch)
        grad_branch = np.where(self._relu_mask1, grad_branch, 0.0)
        grad_branch = self.bn1.backward(grad_branch)
        grad_branch = input_gradient(self.conv1, grad_branch)
        # Shortcut branch.
        if self.projection is not None:
            if self.projection_bn is None:
                raise RuntimeError(
                    f"{self.name}: projection exists without projection_bn"
                )
            grad_shortcut = input_gradient(
                self.projection, self.projection_bn.backward(grad)
            )
        else:
            grad_shortcut = grad
        return grad_branch + grad_shortcut
