"""Checkpointing for the GM regularizer state.

Long training runs (the paper trains 160-200 epochs) need to stop and
resume; these helpers serialize a :class:`GMRegularizer`'s full state
(mixture, hyper-parameters, lazy schedule, counters, cached gradient)
to a plain JSON-compatible dict and restore it exactly, so a resumed
run continues byte-for-byte where it left off.
"""

from __future__ import annotations

import json
from typing import Any, Dict

import numpy as np

from .gaussian_mixture import GaussianMixture
from .gm_regularizer import GMRegularizer
from .hyperparams import GMHyperParams
from .lazy import LazyUpdateSchedule

__all__ = ["gm_regularizer_to_dict", "gm_regularizer_from_dict",
           "save_gm_regularizer", "load_gm_regularizer"]

_FORMAT_VERSION = 1


def gm_regularizer_to_dict(reg: GMRegularizer) -> Dict[str, Any]:
    """Serialize the regularizer to a JSON-compatible dict."""
    return {
        "format_version": _FORMAT_VERSION,
        "n_dimensions": reg.n_dimensions,
        "init_method": reg.init_method,
        "prune_components": reg.prune_components,
        "merge_components": reg.merge_components,
        "hyperparams": {
            "n_components": reg.hyperparams.n_components,
            "gamma": reg.hyperparams.gamma,
            "a_scale": reg.hyperparams.a_scale,
            "alpha_exponent": reg.hyperparams.alpha_exponent,
        },
        "schedule": {
            "model_interval": reg.schedule.model_interval,
            "gm_interval": reg.schedule.gm_interval,
            "eager_epochs": reg.schedule.eager_epochs,
        },
        "mixture": {
            "pi": reg.mixture.pi.tolist(),
            "lam": reg.mixture.lam.tolist(),
        },
        "epoch": reg._epoch,
        "estep_count": reg.estep_count,
        "mstep_count": reg.mstep_count,
        "density_evals": reg.density_evals,
        "cached_reg_grad": (
            None if reg._cached_reg_grad is None
            else reg._cached_reg_grad.tolist()
        ),
    }


def gm_regularizer_from_dict(state: Dict[str, Any]) -> GMRegularizer:
    """Reconstruct a regularizer from :func:`gm_regularizer_to_dict`.

    Keys this version no longer writes are ignored: checkpoints from
    before the single E-step kernel carry ``fused``, ``kernel``,
    ``compute_dtype`` and ``accumulate_dtype``, which selected between
    E-step paths that no longer exist.
    """
    version = state.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported GM checkpoint format {version!r}; "
            f"expected {_FORMAT_VERSION}"
        )
    hp = GMHyperParams(**state["hyperparams"])
    schedule = LazyUpdateSchedule(**state["schedule"])
    reg = GMRegularizer(
        n_dimensions=int(state["n_dimensions"]),
        hyperparams=hp,
        init_method=state["init_method"],
        schedule=schedule,
        prune_components=bool(state["prune_components"]),
        merge_components=bool(state["merge_components"]),
    )
    reg.mixture = GaussianMixture(
        pi=np.asarray(state["mixture"]["pi"]),
        lam=np.asarray(state["mixture"]["lam"]),
    )
    reg._epoch = int(state["epoch"])
    reg._n_estep = int(state["estep_count"])
    reg._n_mstep = int(state["mstep_count"])
    reg._n_density_evals = int(state.get("density_evals", 0))
    cached = state["cached_reg_grad"]
    reg._cached_reg_grad = (
        None if cached is None else np.asarray(cached, dtype=np.float64)
    )
    return reg


def save_gm_regularizer(reg: GMRegularizer, path: str) -> None:
    """Write the regularizer state to a JSON file."""
    with open(path, "w") as fh:
        json.dump(gm_regularizer_to_dict(reg), fh)


def load_gm_regularizer(path: str) -> GMRegularizer:
    """Read a regularizer state written by :func:`save_gm_regularizer`."""
    with open(path) as fh:
        return gm_regularizer_from_dict(json.load(fh))
