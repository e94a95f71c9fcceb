"""Unit tests for the E-step kernel (repro.core.fusion).

Covers:

- the kernel's ``g_reg``/``S0``/``S1`` agree with the reference
  responsibilities (:meth:`GaussianMixture.responsibilities`) at
  tolerances fixed from the dtype (float64: few-ulp; float32:
  single-precision scale), and a regularizer trajectory agrees with a
  ``responsibilities`` + ``em_step`` reference loop;
- an eager iteration evaluates the densities once, and the trainer
  publishes the count as a gauge;
- the workspace buffer cache and the stacked trainer driver behave.
"""

import numpy as np
import pytest

from repro.core import (
    EStepResult,
    GMRegularizer,
    L2Regularizer,
    LazyUpdateSchedule,
    Workspace,
    em_step,
    stacked_estep,
    stacked_prepare,
)
from repro.core.gaussian_mixture import GaussianMixture
from repro.optim import Parameter


def make_mixture(k, scale, seed):
    r = np.random.default_rng(seed)
    pi = r.random(k)
    pi /= pi.sum()
    lam = np.sort(r.random(k) * 100.0 / scale)
    return GaussianMixture(pi=pi, lam=lam)


def broadest_last(mixture):
    """The same mixture with its components in descending precision."""
    return GaussianMixture(pi=mixture.pi[::-1], lam=mixture.lam[::-1])


@pytest.fixture
def layers(rng):
    """Three (mixture, weights) pairs with mixed component counts.

    The kernel's reference row is the broadest component; the second
    mixture lists it last instead of first.
    """
    mixtures = [
        make_mixture(4, 1, 1),
        broadest_last(make_mixture(3, 2, 2)),
        make_mixture(4, 5, 3),
    ]
    ws = [rng.normal(0, 0.1, size=n) for n in (500, 1200, 800)]
    return mixtures, ws


def reference(mixture, w):
    """``(g_reg, S0, S1)`` from the reference responsibility matrix."""
    w = np.asarray(w, dtype=np.float64)
    resp = mixture.responsibilities(w)
    return (resp @ mixture.lam) * w, resp.sum(axis=0), resp.T @ (w * w)


def assert_matches_reference(results, mixtures, ws, stats_rtol, grad_rtol):
    for result, m, w in zip(results, mixtures, ws):
        grad, s0, s1 = reference(m, w)
        for value in (result.gradient, result.resp_sum, result.weighted_sq):
            assert value.dtype == np.float64
        np.testing.assert_allclose(result.resp_sum, s0, rtol=stats_rtol)
        np.testing.assert_allclose(result.weighted_sq, s1, rtol=stats_rtol)
        np.testing.assert_allclose(result.gradient, grad, rtol=grad_rtol)


# ----------------------------------------------------------------------
# Kernel against the reference responsibilities
# ----------------------------------------------------------------------
def test_fast_kernel_float64_agreement(layers):
    mixtures, ws = layers
    results = stacked_estep(mixtures, ws)
    assert_matches_reference(results, mixtures, ws, 1e-13, 1e-12)


def test_fast_kernel_float32_agreement(layers):
    """float32 parameters get a float32 evaluation, float64 results."""
    mixtures, ws = layers
    results = stacked_estep(mixtures, [w.astype(np.float32) for w in ws])
    assert_matches_reference(results, mixtures, ws, 1e-5, 1e-4)


def test_float32_mstep_stats_agree_with_float64(layers):
    """Eq. 13/17 sufficient statistics from a float32 evaluation track
    the float64 ones."""
    mixtures, ws = layers
    r64 = stacked_estep(mixtures, ws)
    r32 = stacked_estep(mixtures, [w.astype(np.float32) for w in ws])
    for a, b in zip(r64, r32):
        np.testing.assert_allclose(b.resp_sum, a.resp_sum, rtol=1e-5)
        np.testing.assert_allclose(b.weighted_sq, a.weighted_sq, rtol=1e-5)


def test_regularizer_trajectory_matches_reference_loop(rng):
    """Ten E/M iterations against a ``responsibilities`` + ``em_step``
    reference loop on the same weights."""
    w = rng.normal(0, 0.1, 400)
    w_ref = w.copy()
    reg = GMRegularizer(n_dimensions=400, weight_init_std=0.1)
    ref = GMRegularizer(n_dimensions=400, weight_init_std=0.1)
    mixture = ref.mixture
    for it in range(10):
        reg.prepare(w, it)
        g = reg.gradient(w)
        resp = mixture.responsibilities(w_ref)
        g_ref = (resp @ mixture.lam) * w_ref
        np.testing.assert_allclose(g, g_ref, rtol=1e-12)
        reg.update(w, it)
        mixture = em_step(
            mixture,
            w_ref,
            alpha=ref._alpha[: mixture.n_components],
            a=ref._a,
            b=ref._b,
        )
        assert reg.mixture.n_components == mixture.n_components
        np.testing.assert_allclose(reg.pi, mixture.pi, rtol=1e-12)
        np.testing.assert_allclose(reg.lam, mixture.lam, rtol=1e-12)
        # simulate the SGD step so each E-step sees fresh parameters
        w -= 0.05 * g
        w_ref -= 0.05 * g_ref


# ----------------------------------------------------------------------
# Counter semantics: an eager iteration evaluates densities once
# ----------------------------------------------------------------------
def run_eager(reg, w, iterations=10, lr=0.05):
    w = w.copy()
    for it in range(iterations):
        reg.prepare(w, it)
        g = reg.gradient(w)
        reg.update(w, it)
        w -= lr * g


def test_density_evals_once_per_eager_iteration(rng):
    w = rng.normal(0, 0.1, 300)
    reg = GMRegularizer(n_dimensions=300, weight_init_std=0.1)
    run_eager(reg, w)
    assert reg.estep_count == 10
    assert reg.mstep_count == 10
    # The M-step reuses the statistics of the same iteration's E-step.
    assert reg.density_evals == 10


def test_density_evals_with_desynchronized_schedule(rng):
    """With Ig != Im the M-step cannot reuse the stale E-step statistics
    and must pay its own density evaluation."""
    w = rng.normal(0, 0.1, 300)
    schedule = LazyUpdateSchedule(
        model_interval=2, gm_interval=4, eager_epochs=0
    )
    reg = GMRegularizer(
        n_dimensions=300, weight_init_std=0.1, schedule=schedule
    )
    evals_when_reused = reg.density_evals
    for it in range(8):
        reg.prepare(w, it)
        reg.update(w, it)
    # E-steps at iterations where gm_interval divides; M-steps more
    # often -- those fall back to a fresh kernel evaluation.
    assert reg.estep_count + reg.mstep_count >= reg.density_evals
    assert reg.density_evals > evals_when_reused


def test_trainer_publishes_density_evals_gauge(rng):
    from repro.linear import LogisticRegression
    from repro.optim import Trainer

    x = rng.normal(size=(80, 10))
    y = (x[:, 0] > 0).astype(np.int64)
    reg = GMRegularizer(n_dimensions=10)
    model = LogisticRegression(10, regularizer=reg, rng=rng)
    trainer = Trainer(model, lr=0.3, batch_size=16)
    trainer.fit(x, y, epochs=3, rng=rng)
    gauges = trainer.metrics.snapshot()["gauges"]
    assert gauges["em/density_evals"] == reg.density_evals
    # Eager default: one evaluation per E-step refresh.
    assert reg.density_evals == reg.estep_count


# ----------------------------------------------------------------------
# Stacked trainer driver
# ----------------------------------------------------------------------
def test_stacked_prepare_serves_fusable_group(rng):
    regs = [
        GMRegularizer(n_dimensions=n, weight_init_std=0.1)
        for n in (200, 300)
    ]
    fixed = L2Regularizer(1.0)
    params = [
        Parameter("a", rng.normal(0, 0.1, 200), regs[0]),
        Parameter("b", rng.normal(0, 0.1, 300), regs[1]),
        Parameter("c", rng.normal(0, 0.1, 100), fixed),
        Parameter("plain", rng.normal(0, 0.1, 50), None),
    ]
    served = stacked_prepare(params, iteration=0)
    assert served == 2
    for reg, param in zip(regs, params):
        assert reg.estep_count == 1
        assert reg.density_evals == 1
        assert np.array_equal(
            reg.gradient(param.value), reg._cached_reg_grad
        )
    assert np.array_equal(fixed.gradient(params[2].value), params[2].value)


def test_stacked_prepare_matches_per_layer_prepare(rng):
    values = [rng.normal(0, 0.1, n) for n in (200, 300)]
    stacked_regs = [
        GMRegularizer(n_dimensions=v.size, weight_init_std=0.1)
        for v in values
    ]
    solo_regs = [
        GMRegularizer(n_dimensions=v.size, weight_init_std=0.1)
        for v in values
    ]
    params = [
        Parameter(str(i), v, r)
        for i, (v, r) in enumerate(zip(values, stacked_regs))
    ]
    stacked_prepare(params, iteration=0)
    for solo, stacked, v in zip(solo_regs, stacked_regs, values):
        solo.prepare(v, 0)
        assert np.array_equal(solo.gradient(v), stacked.gradient(v))
        solo.update(v, 0)
        stacked.update(v, 0)
        assert np.array_equal(solo.pi, stacked.pi)
        assert np.array_equal(solo.lam, stacked.lam)


# ----------------------------------------------------------------------
# Workspace
# ----------------------------------------------------------------------
def test_workspace_reuses_and_reallocates():
    ws = Workspace()
    a = ws.get("k", (4, 5), np.dtype(np.float64))
    assert ws.get("k", (4, 5), np.dtype(np.float64)) is a
    b = ws.get("k", (4, 6), np.dtype(np.float64))
    assert b is not a and b.shape == (4, 6)
    c = ws.get("k", (4, 6), np.dtype(np.float32))
    assert c is not b and c.dtype == np.float32
    assert ws.nbytes() > 0
    ws.clear()
    assert ws.nbytes() == 0


def test_workspace_zeros_clears_contents():
    ws = Workspace()
    buf = ws.zeros("z", (3,), np.dtype(np.float64))
    buf[:] = 7.0
    assert np.array_equal(ws.zeros("z", (3,), np.dtype(np.float64)),
                          np.zeros(3))


def test_estep_result_exposes_fields(layers):
    mixtures, ws = layers
    (result,) = stacked_estep(mixtures[:1], ws[:1])
    assert isinstance(result, EStepResult)
    assert result.gradient.shape == (500,)
    assert result.resp_sum.shape == (4,)
    assert result.weighted_sq.shape == (4,)
