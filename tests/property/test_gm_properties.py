"""Property-based tests (hypothesis) for the GM core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import (
    GaussianMixture,
    GMHyperParams,
    GMRegularizer,
    update_mixing_coefficients,
    update_precisions,
)
from repro.core.em import merge_similar_components

# Strategy: a valid mixture (K in 1..5, positive finite precisions).
@st.composite
def mixtures(draw):
    k = draw(st.integers(min_value=1, max_value=5))
    raw_pi = draw(
        st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)
    )
    pi = np.asarray(raw_pi)
    pi = pi / pi.sum()
    lam = np.asarray(
        draw(st.lists(st.floats(1e-4, 1e6), min_size=k, max_size=k))
    )
    return GaussianMixture(pi=pi, lam=lam)


weights_arrays = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(1, 60),
    elements=st.floats(-5.0, 5.0, allow_nan=False),
)


@given(mixtures(), weights_arrays)
@settings(max_examples=60, deadline=None)
def test_responsibilities_form_distribution(gm, w):
    resp = gm.responsibilities(w)
    assert resp.shape == (w.size, gm.n_components)
    assert np.all(resp >= -1e-12)
    assert np.allclose(resp.sum(axis=1), 1.0, atol=1e-9)


@given(mixtures(), weights_arrays)
@settings(max_examples=60, deadline=None)
def test_log_pdf_finite(gm, w):
    log_density = gm.log_pdf(w)
    assert np.all(np.isfinite(log_density))


@given(mixtures())
@settings(max_examples=60, deadline=None)
def test_crossovers_nonnegative_and_bounded_count(gm):
    points = gm.crossover_points()
    assert np.all(points >= 0.0)
    assert points.size <= gm.n_components - 1 if gm.n_components > 1 \
        else points.size == 0


@given(
    mixtures(),
    weights_arrays,
    st.floats(1.0, 10.0),
    st.floats(1e-6, 100.0),
)
@settings(max_examples=60, deadline=None)
def test_precision_update_always_valid(gm, w, a, b):
    resp = gm.responsibilities(w)
    lam = update_precisions(resp, w, a=a, b=b)
    assert lam.shape == (gm.n_components,)
    assert np.all(lam > 0)
    assert np.all(np.isfinite(lam))


@given(mixtures(), weights_arrays, st.floats(0.1, 100.0))
@settings(max_examples=60, deadline=None)
def test_mixing_update_stays_on_simplex(gm, w, alpha_value):
    resp = gm.responsibilities(w)
    alpha = np.full(gm.n_components, alpha_value)
    pi = update_mixing_coefficients(resp, alpha)
    assert np.all(pi >= 0.0)
    assert np.isclose(pi.sum(), 1.0, atol=1e-9)


@given(mixtures())
@settings(max_examples=60, deadline=None)
def test_merge_preserves_total_mass_and_order(gm):
    pi, lam = merge_similar_components(gm.pi, gm.lam)
    assert np.isclose(pi.sum(), 1.0, atol=1e-9)
    assert np.all(np.diff(lam) >= 0.0)
    assert pi.size == lam.size <= gm.n_components


@given(mixtures(), st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_samples_have_finite_values(gm, seed):
    samples = gm.sample(100, np.random.default_rng(seed))
    assert samples.shape == (100,)
    assert np.all(np.isfinite(samples))


@given(
    st.integers(0, 2**31 - 1),
    st.integers(1, 4),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.sampled_from([np.float64, np.float32]),
)
@settings(max_examples=80, deadline=None)
def test_mstep_never_increases_map_objective(seed, k, zero_fraction, dtype):
    """The EM guarantee on the MAP objective -log p(w, pi, lambda).

    With pruning and merging off, every M-step (on the E-step kernel's
    statistics, float32 evaluation for float32 w) leaves the objective
    no higher, up to 1e-9 relative.
    """
    rng = np.random.default_rng(seed)
    w = np.concatenate(
        [rng.normal(0.0, 0.02, 150), rng.normal(0.0, rng.uniform(0.1, 1.0), 50)]
    )
    w[: int(zero_fraction * w.size)] = 0.0
    w = rng.permutation(w).astype(dtype)
    reg = GMRegularizer(
        n_dimensions=w.size,
        hyperparams=GMHyperParams(n_components=k),
        prune_components=False,
        merge_components=False,
    )
    for it in range(10):
        before = reg.regularization_loss(w)
        reg.prepare(w, it)
        reg.update(w, it)
        after = reg.regularization_loss(w)
        assert after <= before + 1e-9 * abs(before)
