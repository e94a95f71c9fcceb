"""Property-based tests (hypothesis) for the GM core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import (
    GaussianMixture,
    GMHyperParams,
    GMRegularizer,
    stacked_estep,
    update_mixing_coefficients,
    update_precisions,
)
from repro.core.em import (
    _LAMBDA_MAX,
    _LAMBDA_MIN,
    merge_plan,
    merge_similar_components,
)
from repro.core.gaussian_mixture import _PI_FLOOR

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


@st.composite
def merge_inputs(draw):
    """K in 1..6 precisions whose adjacent gaps sit on both sides of
    ``rel_tol`` (and on it, to the ulp) or are ties, in random order,
    with mixing coefficients and two statistics."""
    k = draw(st.integers(1, 6))
    rel_tol = draw(st.sampled_from([0.02, 0.1]))
    # |b - a| <= rel_tol * b, the walk's test, holds up to b = a * edge.
    edge = 1.0 / (1.0 - rel_tol)
    factors = st.sampled_from([
        1.0, edge, np.nextafter(edge, 0.0), np.nextafter(edge, 2.0),
        1.0 + rel_tol / 2, 1.0 + 2 * rel_tol,
    ]) | st.floats(1.0, 1.0 + 3 * rel_tol)
    lam = [draw(st.floats(1e-6, 1e6))]
    for _ in range(k - 1):
        lam.append(lam[-1] * draw(factors))
    order = draw(st.permutations(range(k)))
    raw = np.asarray(draw(st.lists(st.floats(1e-6, 1.0), min_size=k, max_size=k)))
    stats = [
        np.asarray(draw(st.lists(st.floats(0.0, 1e6), min_size=k, max_size=k)))
        for _ in range(2)
    ]
    return raw / raw.sum(), np.asarray(lam)[order], rel_tol, stats


@given(merge_inputs())
@settings(max_examples=200, deadline=None)
def test_merge_equals_the_group_walk(case):
    """``merge_similar_components`` equals ``merge_plan``'s groups summed
    group by group, exactly, whether or not any pair merges."""
    pi, lam, rel_tol, stats = case
    groups = merge_plan(pi, lam, rel_tol=rel_tol)
    totals = np.array([pi[g].sum() for g in groups])
    expected = [
        totals,
        np.array([(pi[g] * lam[g]).sum() for g in groups])
        / np.maximum(totals, 1e-300),
        *(np.array([s[g].sum() for g in groups]) for s in stats),
    ]
    got = merge_similar_components(pi, lam, rel_tol=rel_tol, stats=stats)
    assert len(got) == len(expected)
    for value, want in zip(got, expected):
        assert value.dtype == want.dtype
        assert np.array_equal(value, want)


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


@st.composite
def clamped_mixtures(draw):
    """K in 1..4 with lambda at both clamps (K >= 2) and pi down to the floor."""
    k = draw(st.integers(1, 4))
    clamps = [_LAMBDA_MIN, _LAMBDA_MAX]
    inner = st.floats(-8.0, 12.0).map(lambda e: 10.0**e)
    if k == 1:
        lam = [draw(st.sampled_from(clamps) | inner)]
    else:
        lam = clamps + draw(st.lists(inner, min_size=k - 2, max_size=k - 2))
    floored = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    floored[draw(st.integers(0, k - 1))] = False  # one component holds the mass
    raw = np.asarray(draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
    raw[floored] = 0.0
    pi = np.where(floored, _PI_FLOOR, raw / raw.sum() * (1.0 - _PI_FLOOR * sum(floored)))
    order = draw(st.permutations(range(k)))
    return GaussianMixture(pi=pi[order], lam=np.asarray(lam)[order])


clamp_weights = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(1, 40),
    elements=st.floats(-1e3, 1e3, allow_nan=False),
).map(lambda w: np.concatenate([w, [0.0, 1e3, -1e3]]))


@given(
    st.lists(st.tuples(clamped_mixtures(), clamp_weights), min_size=1, max_size=2),
    st.sampled_from([np.float64, np.float32]),
)
@settings(max_examples=80, deadline=None)
def test_stacked_estep_at_lambda_clamps(layers, dtype):
    """The E-step kernel stays finite and matches Eq. 9 at the clamps.

    Its softmax has no max-subtract pass: it relies on the pi floor and
    the lambda clamps bounding the exponent.  Against responsibilities
    from ``GaussianMixture.responsibilities``: ``g_reg`` (Eq. 10),
    ``S0`` and ``S1`` within 1e-12 (float64) or 1e-5 (float32) of each
    vector's largest magnitude.
    """
    mixtures = [gm for gm, _ in layers]
    ws = [w.astype(dtype) for _, w in layers]
    rtol = 1e-12 if dtype == np.float64 else 1e-5
    for gm, w, result in zip(mixtures, ws, stacked_estep(mixtures, ws)):
        w64 = w.astype(np.float64)
        resp = gm.responsibilities(w64)
        expected = {
            "gradient": (resp * gm.lam).sum(axis=1) * w64,
            "resp_sum": resp.sum(axis=0),
            "weighted_sq": (resp * (w64 * w64)[:, None]).sum(axis=0),
        }
        for name, ref in expected.items():
            got = getattr(result, name)
            assert np.all(np.isfinite(got)), name
            assert np.abs(got - ref).max() <= rtol * np.abs(ref).max(), name
