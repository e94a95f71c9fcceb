"""Unit tests for the zero-mean Gaussian Mixture value object."""

import math

import numpy as np
import pytest

from repro.core import GaussianMixture, log_normal_pdf


def test_log_normal_pdf_matches_closed_form():
    x = np.array([0.0, 1.0, -2.0])
    precision = 4.0
    expected = (
        0.5 * math.log(precision)
        - 0.5 * math.log(2 * math.pi)
        - 0.5 * precision * x**2
    )
    assert np.allclose(log_normal_pdf(x, precision), expected)


def test_log_normal_pdf_rejects_nonpositive_precision():
    with pytest.raises(ValueError):
        log_normal_pdf(np.array([0.0]), 0.0)
    with pytest.raises(ValueError):
        log_normal_pdf(np.array([0.0]), -1.0)


def test_mixture_validates_simplex():
    with pytest.raises(ValueError):
        GaussianMixture(pi=np.array([0.5, 0.6]), lam=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        GaussianMixture(pi=np.array([-0.1, 1.1]), lam=np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="must be non-negative"):
        GaussianMixture(pi=np.array([np.nan, 1.0]), lam=np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="must be non-negative"):
        GaussianMixture(pi=np.array([0.5, np.inf]), lam=np.array([1.0, 2.0]))


def test_mixture_validates_precisions():
    with pytest.raises(ValueError):
        GaussianMixture(pi=np.array([0.5, 0.5]), lam=np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        GaussianMixture(pi=np.array([0.5, 0.5]), lam=np.array([1.0, np.inf]))
    for bad in (np.nan, -np.inf, 0.0):
        for lam in ([bad, 2.0], [2.0, bad], [bad]):
            pi = np.full(len(lam), 1.0 / len(lam))
            with pytest.raises(ValueError, match="positive and finite"):
                GaussianMixture(pi=pi, lam=np.array(lam))


def test_mixture_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        GaussianMixture(pi=np.array([1.0]), lam=np.array([1.0, 2.0]))


def test_pdf_integrates_to_one():
    gm = GaussianMixture(pi=np.array([0.3, 0.7]), lam=np.array([0.5, 50.0]))
    grid = np.linspace(-20, 20, 200001)
    density = gm.pdf(grid)
    total = float(np.sum((density[1:] + density[:-1]) * 0.5 * np.diff(grid)))
    assert abs(total - 1.0) < 1e-4


def test_single_component_pdf_is_gaussian():
    gm = GaussianMixture(pi=np.array([1.0]), lam=np.array([4.0]))
    x = np.array([0.0, 0.5, -1.0])
    assert np.allclose(gm.log_pdf(x), log_normal_pdf(x, 4.0))


def test_responsibilities_rows_sum_to_one(rng):
    gm = GaussianMixture(
        pi=np.array([0.2, 0.3, 0.5]), lam=np.array([0.1, 10.0, 1000.0])
    )
    w = rng.normal(0, 1.0, size=500)
    resp = gm.responsibilities(w)
    assert resp.shape == (500, 3)
    assert np.allclose(resp.sum(axis=1), 1.0)
    assert np.all(resp >= 0.0)


def test_responsibilities_favor_high_precision_near_zero():
    gm = GaussianMixture(pi=np.array([0.5, 0.5]), lam=np.array([1.0, 100.0]))
    near_zero = gm.responsibilities(np.array([0.01]))
    far = gm.responsibilities(np.array([3.0]))
    # Component 1 (precision 100) dominates near zero, component 0 far out.
    assert near_zero[0, 1] > 0.9
    assert far[0, 0] > 0.99


def test_responsibilities_stable_with_extreme_precision():
    gm = GaussianMixture(pi=np.array([0.5, 0.5]), lam=np.array([1e-6, 1e10]))
    resp = gm.responsibilities(np.array([0.0, 100.0, -100.0]))
    assert np.all(np.isfinite(resp))
    assert np.allclose(resp.sum(axis=1), 1.0)


def test_sampling_matches_moments(rng):
    gm = GaussianMixture(pi=np.array([0.5, 0.5]), lam=np.array([1.0, 100.0]))
    samples = gm.sample(200000, rng)
    # Mixture variance = sum pi_k / lam_k.
    expected_var = 0.5 * 1.0 + 0.5 * 0.01
    assert abs(samples.mean()) < 0.01
    assert abs(samples.var() - expected_var) < 0.02


def test_sample_rejects_negative_size(rng):
    gm = GaussianMixture(pi=np.array([1.0]), lam=np.array([1.0]))
    with pytest.raises(ValueError):
        gm.sample(-1, rng)


def test_effective_components_counts_above_tolerance():
    gm = GaussianMixture(
        pi=np.array([0.0005, 0.9995]), lam=np.array([1.0, 2.0])
    )
    assert gm.effective_components(tol=1e-3) == 1
    assert gm.effective_components(tol=1e-4) == 2


def test_crossover_points_two_components():
    # Equal weights: crossing where sqrt(l2)exp(-l2 x^2/2)=sqrt(l1)exp(-l1 x^2/2)
    gm = GaussianMixture(pi=np.array([0.5, 0.5]), lam=np.array([1.0, 100.0]))
    points = gm.crossover_points()
    assert points.size == 1
    x = points[0]
    dens = np.exp(gm.component_log_pdf(np.array([x]))) * gm.pi
    assert np.isclose(dens[0, 0], dens[0, 1], rtol=1e-9)


def test_crossover_points_single_component_empty():
    gm = GaussianMixture(pi=np.array([1.0]), lam=np.array([5.0]))
    assert gm.crossover_points().size == 0


def test_mixing_coefficients_renormalized_exactly():
    # Slightly off-simplex input within tolerance is renormalized.
    gm = GaussianMixture(
        pi=np.array([0.3333333, 0.6666666]), lam=np.array([1.0, 2.0])
    )
    assert math.isclose(gm.pi.sum(), 1.0, abs_tol=1e-15)


def test_variances_are_inverse_precisions():
    gm = GaussianMixture(pi=np.array([0.5, 0.5]), lam=np.array([4.0, 0.25]))
    assert np.allclose(gm.variances, [0.25, 4.0])
    assert np.allclose(gm.component_std(), [0.5, 2.0])
