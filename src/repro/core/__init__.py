"""Core of the reproduction: the adaptive GM regularization tool.

This package implements the paper's primary contribution — an adaptive
regularizer that learns a zero-mean Gaussian-Mixture prior over the model
parameters with a lightweight EM interleaved into SGD — together with the
four fixed-form baseline regularizers it is evaluated against.

Public surface
--------------
:class:`GMRegularizer`
    The adaptive tool (Sections III/IV of the paper).
:class:`GaussianMixture`
    Zero-mean 1-D mixture value object with stable densities and
    responsibilities.
:class:`GMHyperParams`
    The ``K / gamma / a / alpha`` policy of Section V-B1.
:class:`LazyUpdateSchedule`
    Algorithm 2's update-interval logic (``E``, ``Im``, ``Ig``).
:func:`initialize_mixture` and friends
    The identical / linear / proportional init strategies of Section V-E.
Baselines
    :class:`NoRegularizer`, :class:`L1Regularizer`, :class:`L2Regularizer`,
    :class:`ElasticNetRegularizer`, :class:`HuberRegularizer`.
"""

from .em import (
    em_step,
    em_step_from_stats,
    gm_loss_terms,
    update_mixing_coefficients,
    update_precisions,
)
from .fusion import (
    EStepResult,
    Workspace,
    stacked_estep,
    stacked_prepare,
)
from .gaussian_mixture import GaussianMixture, log_normal_pdf
from .gm_regularizer import GMRegularizer
from .hyperparams import DEFAULT_GAMMA_GRID, GMHyperParams, gamma_grid
from .initialization import (
    INIT_METHODS,
    base_precision_from_weight_init,
    identical_precisions,
    initialize_mixture,
    linear_precisions,
    proportional_precisions,
)
from .guidance import Recommendation, make_recommended_regularizer, recommend
from .lazy import LazyUpdateSchedule
from .serialization import (
    gm_regularizer_from_dict,
    gm_regularizer_to_dict,
    load_gm_regularizer,
    save_gm_regularizer,
)
from .regularizers import (
    ElasticNetRegularizer,
    HuberRegularizer,
    L1Regularizer,
    L2Regularizer,
    NoRegularizer,
    Regularizer,
)

__all__ = [
    "GaussianMixture",
    "log_normal_pdf",
    "GMRegularizer",
    "GMHyperParams",
    "gamma_grid",
    "DEFAULT_GAMMA_GRID",
    "LazyUpdateSchedule",
    "INIT_METHODS",
    "base_precision_from_weight_init",
    "identical_precisions",
    "linear_precisions",
    "proportional_precisions",
    "initialize_mixture",
    "em_step",
    "em_step_from_stats",
    "gm_loss_terms",
    "update_precisions",
    "update_mixing_coefficients",
    "EStepResult",
    "Workspace",
    "stacked_estep",
    "stacked_prepare",
    "Recommendation",
    "recommend",
    "make_recommended_regularizer",
    "gm_regularizer_to_dict",
    "gm_regularizer_from_dict",
    "save_gm_regularizer",
    "load_gm_regularizer",
    "Regularizer",
    "NoRegularizer",
    "L1Regularizer",
    "L2Regularizer",
    "ElasticNetRegularizer",
    "HuberRegularizer",
]
