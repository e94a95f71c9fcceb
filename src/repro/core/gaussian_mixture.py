"""Zero-mean one-dimensional Gaussian Mixture used as a parameter prior.

The paper (Section II-B, Equation (4)) models every dimension of the model
parameter vector ``w`` as an i.i.d. draw from a one-dimensional Gaussian
Mixture whose components are all centered at zero but have different
precisions (inverse variances)::

    p(x) = sum_k pi_k * N(x | 0, lambda_k)

This module provides :class:`GaussianMixture`, an immutable value object
holding the mixture state (``pi``, ``lam``), together with numerically
stable density and responsibility computations.  All probability work is
done in log space with a log-sum-exp reduction so that the very large
precisions the EM updates can produce (the paper reports ``lambda`` up to
~2000, Table IV) never overflow the density evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["GaussianMixture", "log_normal_pdf"]

# 0.5 * log(2 * pi), the constant part of the Gaussian log density.
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)

# Mixing coefficients below this value are treated as pruned components.
_PI_FLOOR = 1e-12


def log_normal_pdf(x: np.ndarray, precision: float) -> np.ndarray:
    """Log density of a zero-mean Gaussian with the given precision.

    Parameters
    ----------
    x:
        Points at which to evaluate the density (any shape).
    precision:
        Inverse variance ``lambda`` of the Gaussian; must be positive.

    Returns
    -------
    numpy.ndarray
        ``log N(x | 0, 1/precision)`` evaluated element-wise.
    """
    if precision <= 0.0:
        raise ValueError(f"precision must be positive, got {precision}")
    return 0.5 * math.log(precision) - _HALF_LOG_TWO_PI - 0.5 * precision * x * x


@dataclass(frozen=True)
class GaussianMixture:
    """Immutable zero-mean 1-D Gaussian Mixture (Equation (4) of the paper).

    Attributes
    ----------
    pi:
        Mixing coefficients, shape ``(K,)``; non-negative and summing to 1.
    lam:
        Component precisions (inverse variances), shape ``(K,)``; positive.
    """

    pi: np.ndarray
    lam: np.ndarray
    _log_pi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pi = np.asarray(self.pi, dtype=np.float64).reshape(-1)
        lam = np.asarray(self.lam, dtype=np.float64).reshape(-1)
        if pi.shape != lam.shape:
            raise ValueError(
                f"pi and lam must have the same length, got {pi.shape} and {lam.shape}"
            )
        if pi.size == 0:
            raise ValueError("mixture must have at least one component")
        # min/max propagate NaN, and a NaN fails every comparison.
        if not (lam.min() > 0.0 and lam.max() < math.inf):
            raise ValueError(f"all precisions must be positive and finite, got {lam}")
        if not (pi.min() >= 0.0 and pi.max() < math.inf):
            raise ValueError(f"mixing coefficients must be non-negative, got {pi}")
        total = pi.sum()
        if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-6):
            raise ValueError(f"mixing coefficients must sum to 1, got sum={total}")
        # Renormalize exactly so downstream log-sum-exp sees a true simplex.
        pi = pi / total
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "_log_pi", np.log(np.maximum(pi, _PI_FLOOR)))

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def n_components(self) -> int:
        """Number of mixture components ``K``."""
        return int(self.pi.size)

    @property
    def variances(self) -> np.ndarray:
        """Component variances ``1 / lambda_k``."""
        return 1.0 / self.lam

    def component_std(self) -> np.ndarray:
        """Component standard deviations ``lambda_k^{-1/2}``."""
        return 1.0 / np.sqrt(self.lam)

    # ------------------------------------------------------------------
    # Densities
    # ------------------------------------------------------------------
    def component_log_pdf(self, x: np.ndarray) -> np.ndarray:
        """Per-component log densities.

        Parameters
        ----------
        x:
            Evaluation points, shape ``(M,)``.

        Returns
        -------
        numpy.ndarray
            Array of shape ``(M, K)`` with ``log N(x_m | 0, lambda_k)``.
        """
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        # (M, 1) broadcast against (K,) precisions.
        x2 = x[:, None] ** 2
        return (
            0.5 * np.log(self.lam)[None, :]
            - _HALF_LOG_TWO_PI
            - 0.5 * self.lam[None, :] * x2
        )

    def log_pdf(self, x: np.ndarray) -> np.ndarray:
        """Log mixture density ``log p(x)`` (Equation (4)), shape ``(M,)``."""
        weighted = self.component_log_pdf(x) + self._log_pi[None, :]
        return _logsumexp(weighted, axis=1)

    def pdf(self, x: np.ndarray) -> np.ndarray:
        """Mixture density ``p(x)``, shape ``(M,)``."""
        return np.exp(self.log_pdf(x))

    # ------------------------------------------------------------------
    # Responsibilities (Equation (9))
    # ------------------------------------------------------------------
    def responsibilities(self, w: np.ndarray) -> np.ndarray:
        """Posterior component responsibilities ``r_k(w_m)``.

        Implements Equation (9) of the paper,

            r_k(w_m) = pi_k p_k(w_m) / sum_j pi_j p_j(w_m),

        computed in log space for stability.

        Parameters
        ----------
        w:
            Model parameter values, shape ``(M,)`` (any shape is flattened).

        Returns
        -------
        numpy.ndarray
            Responsibility matrix of shape ``(M, K)``; each row sums to 1.
        """
        w = np.asarray(w, dtype=np.float64).reshape(-1)
        weighted = self.component_log_pdf(w) + self._log_pi[None, :]
        log_norm = _logsumexp(weighted, axis=1)
        return np.exp(weighted - log_norm[:, None])

    # ------------------------------------------------------------------
    # Sampling and summaries
    # ------------------------------------------------------------------
    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` i.i.d. samples from the mixture."""
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        components = rng.choice(self.n_components, size=size, p=self.pi)
        std = self.component_std()[components]
        return rng.standard_normal(size) * std

    def effective_components(self, tol: float = 1e-3) -> int:
        """Number of components whose mixing coefficient exceeds ``tol``.

        The paper observes that EM starting from K=4 collapses to one or
        two effective components; this is the counting rule used in the
        case studies (Tables IV and V).
        """
        return int(np.sum(self.pi > tol))

    def crossover_points(self) -> np.ndarray:
        """Positive abscissas where adjacent components have equal density.

        For the two-component case these are the points labelled A/B in
        Figure 3 of the paper: where ``pi_i N(x|0,lam_i)`` equals
        ``pi_j N(x|0,lam_j)``.  Components are compared pairwise after
        sorting by precision; only pairs with a real crossing contribute.
        """
        order = np.argsort(self.lam)
        points = []
        for a, b in zip(order[:-1], order[1:]):
            lam_low, lam_high = self.lam[a], self.lam[b]
            pi_low, pi_high = self.pi[a], self.pi[b]
            if pi_low <= _PI_FLOOR or pi_high <= _PI_FLOOR:
                continue
            delta = lam_high - lam_low
            if delta <= 0.0:
                continue
            # pi_h sqrt(lam_h) exp(-lam_h x^2/2) = pi_l sqrt(lam_l) exp(-lam_l x^2/2)
            log_ratio = (
                math.log(pi_high)
                + 0.5 * math.log(lam_high)
                - math.log(pi_low)
                - 0.5 * math.log(lam_low)
            )
            x2 = 2.0 * log_ratio / delta
            if x2 > 0.0:
                points.append(math.sqrt(x2))
        return np.asarray(sorted(points))

    def with_parameters(self, pi: np.ndarray, lam: np.ndarray) -> "GaussianMixture":
        """Return a new mixture with replaced parameters."""
        return GaussianMixture(pi=np.asarray(pi), lam=np.asarray(lam))


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """Numerically stable log-sum-exp along ``axis``."""
    amax = np.max(a, axis=axis, keepdims=True)
    out = np.log(np.sum(np.exp(a - amax), axis=axis)) + np.squeeze(amax, axis=axis)
    return out
