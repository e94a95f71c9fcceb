"""Tests for GM regularizer checkpointing."""

import json

import numpy as np
import pytest

from repro.core import (
    GMHyperParams,
    GMRegularizer,
    LazyUpdateSchedule,
    gm_regularizer_from_dict,
    gm_regularizer_to_dict,
    load_gm_regularizer,
    save_gm_regularizer,
)


@pytest.fixture
def trained_reg(rng):
    reg = GMRegularizer(
        n_dimensions=200,
        weight_init_std=0.1,
        hyperparams=GMHyperParams(gamma=0.01, alpha_exponent=0.7),
        init_method="proportional",
        schedule=LazyUpdateSchedule(model_interval=5, gm_interval=10,
                                    eager_epochs=1),
    )
    w = np.concatenate([rng.normal(0, 0.02, 180), rng.normal(0, 0.5, 20)])
    for it in range(50):
        reg.prepare(w, it)
        reg.update(w, it)
    reg.epoch_end(0)
    return reg, w


def test_roundtrip_preserves_mixture(trained_reg):
    reg, _w = trained_reg
    restored = gm_regularizer_from_dict(gm_regularizer_to_dict(reg))
    assert np.array_equal(restored.pi, reg.pi)
    assert np.array_equal(restored.lam, reg.lam)
    assert restored.n_dimensions == reg.n_dimensions
    assert restored.init_method == reg.init_method


def test_roundtrip_preserves_schedule_and_counters(trained_reg):
    reg, _w = trained_reg
    restored = gm_regularizer_from_dict(gm_regularizer_to_dict(reg))
    assert restored.schedule == reg.schedule
    assert restored.estep_count == reg.estep_count
    assert restored.mstep_count == reg.mstep_count
    assert restored._epoch == reg._epoch


def test_roundtrip_preserves_hyperparams(trained_reg):
    reg, _w = trained_reg
    restored = gm_regularizer_from_dict(gm_regularizer_to_dict(reg))
    assert restored.hyperparams == reg.hyperparams


def test_resumed_regularizer_continues_identically(trained_reg):
    reg, w = trained_reg
    restored = gm_regularizer_from_dict(gm_regularizer_to_dict(reg))
    for it in range(50, 70):
        reg.prepare(w, it)
        reg.update(w, it)
        restored.prepare(w, it)
        restored.update(w, it)
    assert np.allclose(reg.pi, restored.pi)
    assert np.allclose(reg.lam, restored.lam)
    assert np.array_equal(reg.gradient(w), restored.gradient(w))


def test_cached_gradient_survives_roundtrip(trained_reg):
    reg, w = trained_reg
    cached_before = reg.gradient(w).copy()
    restored = gm_regularizer_from_dict(gm_regularizer_to_dict(reg))
    assert np.array_equal(restored.gradient(w), cached_before)


def test_file_roundtrip(tmp_path, trained_reg):
    reg, _w = trained_reg
    path = str(tmp_path / "gm.json")
    save_gm_regularizer(reg, path)
    restored = load_gm_regularizer(path)
    assert np.array_equal(restored.pi, reg.pi)


def test_unknown_format_version_rejected(trained_reg):
    reg, _w = trained_reg
    state = gm_regularizer_to_dict(reg)
    state["format_version"] = 999
    with pytest.raises(ValueError):
        gm_regularizer_from_dict(state)


def test_loads_checkpoint_with_retired_kernel_keys(trained_reg):
    """A state dict written when the E-step had selectable paths (keys
    ``fused``/``kernel``/``compute_dtype``/``accumulate_dtype``) loads,
    and the resumed regularizer continues from its pi/lambda."""
    reg, w = trained_reg
    state = gm_regularizer_to_dict(reg)
    for key in ("fused", "kernel", "compute_dtype", "accumulate_dtype"):
        assert key not in state
    state.update(
        fused=True, kernel="exact", compute_dtype="float64",
        accumulate_dtype="float64",
    )
    restored = gm_regularizer_from_dict(json.loads(json.dumps(state)))
    assert np.array_equal(restored.pi, reg.pi)
    assert np.array_equal(restored.lam, reg.lam)
    assert np.array_equal(restored.gradient(w), reg.gradient(w))
    # The next due E-step gives Eq. (10) under the restored mixture.
    restored.prepare(w, 50)
    assert restored.estep_count == reg.estep_count + 1
    resp = reg.mixture.responsibilities(w)
    np.testing.assert_allclose(
        restored.gradient(w), (resp @ reg.lam) * w, rtol=1e-12
    )
