"""Optimization: SGD with momentum and the Algorithm 1/2 training loops."""

from .schedules import ConstantLR, ExponentialDecayLR, LRSchedule, StepDecayLR
from .sgd import SGD
from .trainer import (
    EpochRecord,
    NonFiniteError,
    Parameter,
    TrainableModel,
    Trainer,
    TrainingHistory,
)

__all__ = [
    "SGD",
    "LRSchedule",
    "ConstantLR",
    "StepDecayLR",
    "ExponentialDecayLR",
    "Parameter",
    "TrainableModel",
    "Trainer",
    "TrainingHistory",
    "EpochRecord",
    "NonFiniteError",
]
