"""Lightweight EM updates for the GM parameters (Equations (13) and (17)).

Given responsibilities ``r_k(w_m)`` computed in the E-step (Equation (9)),
the M-step has closed-form minimizers of the loss ``G`` with respect to
the mixture parameters:

Precisions (Equation (13)), smoothed by the Gamma(a, b) prior::

    lambda_k = (2(a - 1) + sum_m r_k(w_m)) / (2b + sum_m r_k(w_m) w_m^2)

Mixing coefficients (Equation (17)), smoothed by the Dirichlet(alpha)
prior via a Lagrange multiplier enforcing the simplex constraint::

    pi_k = (sum_m r_k(w_m) + (alpha_k - 1)) / (M + sum_j (alpha_j - 1))

When ``alpha_k < 1`` the numerator can go negative for components with
tiny responsibility mass; the paper relies on this to *prune* components
(K=4 collapsing to the 1-2 components reported in Tables IV/V).  We
implement pruning by clamping negative coefficients to zero and
renormalizing, and expose a switch so the behaviour can be ablated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .gaussian_mixture import GaussianMixture

__all__ = [
    "RegularizerEMState",
    "precisions_from_stats",
    "mixing_from_stats",
    "update_precisions",
    "update_mixing_coefficients",
    "merge_plan",
    "merge_similar_components",
    "em_step",
    "em_step_from_stats",
    "gm_loss_terms",
]

# Precisions are clipped to this range after each M-step.  The lower bound
# keeps the Gaussians proper; the upper bound prevents a pruned-in-all-but-
# name component from driving the density evaluation into overflow.
_LAMBDA_MIN = 1e-8
_LAMBDA_MAX = 1e12

# Components whose updated mixing coefficient falls below this threshold
# are pruned (coefficient set to 0) when pruning is enabled.
_PI_PRUNE_THRESHOLD = 1e-10


@dataclass(frozen=True)
class RegularizerEMState:
    """Typed snapshot of one regularizer's EM state.

    This is the per-parameter unit of
    :class:`~repro.optim.trainer.TrainerState`: enough to resume either
    the batch trainer (``pi``/``lam`` and the refresh counters) or the
    online trainer (which additionally carries the exponentially decayed
    sufficient statistics ``resp_sum``/``weighted_sq`` of
    :mod:`repro.online.em`).
    """

    pi: np.ndarray
    lam: np.ndarray
    estep_count: int = 0
    mstep_count: int = 0
    resp_sum: Optional[np.ndarray] = None
    weighted_sq: Optional[np.ndarray] = None


def precisions_from_stats(
    resp_sum: np.ndarray,
    weighted_sq: np.ndarray,
    a: float,
    b: float,
) -> np.ndarray:
    """Equation (13) evaluated on sufficient statistics.

    The M-step for the precisions only needs two per-component sums:
    ``resp_sum_k = sum_m r_k(w_m)`` and
    ``weighted_sq_k = sum_m r_k(w_m) w_m^2``.  Factoring the update this
    way lets the batch E-step and the online trainer's exponentially
    decayed running statistics share one M-step implementation.

    Returns
    -------
    numpy.ndarray
        Updated precisions, shape ``(K,)``, clipped to a safe range.
    """
    numerator = 2.0 * (a - 1.0) + np.asarray(resp_sum, dtype=np.float64)
    denominator = 2.0 * b + np.asarray(weighted_sq, dtype=np.float64)
    lam = numerator / np.maximum(denominator, 1e-300)
    return lam.clip(_LAMBDA_MIN, _LAMBDA_MAX)


def mixing_from_stats(
    resp_sum: np.ndarray,
    alpha: np.ndarray,
    prune: bool = True,
) -> np.ndarray:
    """Equation (17) evaluated on the responsibility-mass statistic.

    Same sufficient-statistic factoring as :func:`precisions_from_stats`;
    see :func:`update_mixing_coefficients` for the pruning semantics.
    """
    alpha = np.asarray(alpha, dtype=np.float64).reshape(-1)
    resp_sum = np.asarray(resp_sum, dtype=np.float64).reshape(-1)
    numerator = resp_sum + (alpha - 1.0)
    if prune:
        numerator = np.where(numerator < _PI_PRUNE_THRESHOLD, 0.0, numerator)
    else:
        numerator = np.maximum(numerator, _PI_PRUNE_THRESHOLD)
    total = numerator.sum()
    if total <= 0.0:
        # Degenerate case: every component pruned.  Fall back to the raw
        # responsibility masses, which always form a valid distribution.
        numerator = np.maximum(resp_sum, _PI_PRUNE_THRESHOLD)
        total = numerator.sum()
    # Denominator M + sum(alpha - 1) equals `total` after clamping.
    return numerator / total


def update_precisions(
    responsibilities: np.ndarray,
    w: np.ndarray,
    a: float,
    b: float,
) -> np.ndarray:
    """M-step for the component precisions (Equation (13)).

    Parameters
    ----------
    responsibilities:
        Matrix ``(M, K)`` from :meth:`GaussianMixture.responsibilities`.
    w:
        Flattened model parameter vector, shape ``(M,)``.
    a, b:
        Gamma-prior shape and rate; ``2(a-1)`` and ``2b`` act as pseudo
        counts and pseudo sums of squares.

    Returns
    -------
    numpy.ndarray
        Updated precisions, shape ``(K,)``, clipped to a safe range.
    """
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    resp_sum = responsibilities.sum(axis=0)
    weighted_sq = responsibilities.T @ (w * w)
    return precisions_from_stats(resp_sum, weighted_sq, a=a, b=b)


def update_mixing_coefficients(
    responsibilities: np.ndarray,
    alpha: np.ndarray,
    prune: bool = True,
) -> np.ndarray:
    """M-step for the mixing coefficients (Equation (17)).

    Parameters
    ----------
    responsibilities:
        Matrix ``(M, K)``.
    alpha:
        Dirichlet concentration parameters, shape ``(K,)``.
    prune:
        When True (paper behaviour), coefficients driven negative by the
        ``alpha_k - 1`` term are set to zero — the component is pruned —
        and the rest renormalized.  When False the coefficients are
        floored at a small epsilon instead (ablation mode).

    Returns
    -------
    numpy.ndarray
        Updated mixing coefficients on the simplex, shape ``(K,)``.
    """
    return mixing_from_stats(
        responsibilities.sum(axis=0), alpha=alpha, prune=prune
    )


def merge_plan(
    pi: np.ndarray,
    lam: np.ndarray,
    rel_tol: float = 0.02,
) -> List[List[int]]:
    """Index groups of components whose precisions have converged together.

    The greedy adjacent-merge walk of :func:`merge_similar_components`,
    expressed as a *plan*: each returned group lists the indices (into
    the input arrays) of components that collapse into one, ordered by
    ascending precision.  The running merged precision is the
    pi-weighted mean, so the grouping is identical to what
    :func:`merge_similar_components` applies.
    """
    pi = np.asarray(pi, dtype=np.float64).reshape(-1)
    lam = np.asarray(lam, dtype=np.float64).reshape(-1)
    order = np.argsort(lam)
    groups: List[List[int]] = [[int(order[0])]]
    current_pi = float(pi[order[0]])
    current_lam = float(lam[order[0]])
    for idx in order[1:]:
        lam_k = float(lam[idx])
        if abs(lam_k - current_lam) <= rel_tol * max(
            abs(lam_k), abs(current_lam)
        ):
            total = current_pi + float(pi[idx])
            current_lam = (
                current_pi * current_lam + float(pi[idx]) * lam_k
            ) / max(total, 1e-300)
            current_pi = total
            groups[-1].append(int(idx))
        else:
            groups.append([int(idx)])
            current_pi = float(pi[idx])
            current_lam = lam_k
    return groups


def merge_similar_components(
    pi: np.ndarray,
    lam: np.ndarray,
    rel_tol: float = 0.02,
    stats: Sequence[np.ndarray] = (),
) -> tuple:
    """Merge components whose precisions have converged to the same value.

    EM started from distinct precisions frequently drives several
    components onto the *same* fixed point; the paper describes these as
    "gradually merged to one" (Section V-B1), which is how K=4 collapses
    to the 1-2 components of Tables IV/V.  Two components are merged when
    their precisions agree within ``rel_tol`` relative tolerance; merged
    mixing coefficients are summed and the precision is their
    pi-weighted mean.

    Returns the (possibly shorter) ``(pi, lam)`` pair, sorted by
    ascending precision, followed by each per-component array of
    ``stats`` (the M-step's ``S0``/``S1``) merged the same way: a merged
    component's statistic is the sum of its members'.
    """
    pi = np.asarray(pi, dtype=np.float64).reshape(-1)
    lam = np.asarray(lam, dtype=np.float64).reshape(-1)
    order = lam.argsort()
    lam_sorted = lam[order]
    later, earlier = lam_sorted[1:], lam_sorted[:-1]
    # Until its first merge, merge_plan's walk compares each precision
    # with its sorted predecessor, so when no adjacent gap is within
    # tolerance every group is a singleton, and a sum over a group of
    # one is its element (up to the sign of a zero).
    if pi.size and not (
        abs(later - earlier) <= rel_tol * np.maximum(abs(later), abs(earlier))
    ).any():
        pi_sorted = pi[order]
        return (
            pi_sorted,
            (pi_sorted * lam_sorted) / np.maximum(pi_sorted, 1e-300),
            *(np.asarray(s)[order] for s in stats),
        )
    groups = merge_plan(pi, lam, rel_tol=rel_tol)
    totals = np.array([pi[group].sum() for group in groups])
    merged_lam = np.array(
        [(pi[group] * lam[group]).sum() for group in groups]
    ) / np.maximum(totals, 1e-300)
    merged_stats = [
        np.array([np.asarray(s)[group].sum() for group in groups])
        for s in stats
    ]
    return (totals, merged_lam, *merged_stats)


def em_step(
    mixture: GaussianMixture,
    w: np.ndarray,
    alpha: np.ndarray,
    a: float,
    b: float,
    prune: bool = True,
    merge: bool = True,
    merge_rel_tol: float = 0.02,
) -> GaussianMixture:
    """One full E+M step on the GM parameters for fixed ``w``.

    The reference E-step: the ``(M, K)`` responsibilities of
    :meth:`GaussianMixture.responsibilities` reduced to the M-step
    statistics.  Training runs the same M-step on the statistics of
    :func:`repro.core.fusion.stacked_estep`; the tests compare the two.
    Components pruned to zero mixing coefficient are removed from the
    returned mixture, and components whose precisions have converged to
    the same value are merged (matching the paper's observation that K=4
    collapses to 1-2 effective components).
    """
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    resp = mixture.responsibilities(w)
    updated, _, _ = em_step_from_stats(
        mixture,
        resp.sum(axis=0),
        resp.T @ (w * w),
        alpha=alpha,
        a=a,
        b=b,
        prune=prune,
        merge=merge,
        merge_rel_tol=merge_rel_tol,
    )
    return updated


def em_step_from_stats(
    mixture: GaussianMixture,
    resp_sum: np.ndarray,
    weighted_sq: np.ndarray,
    alpha: np.ndarray,
    a: float,
    b: float,
    prune: bool = True,
    merge: bool = True,
    merge_rel_tol: float = 0.02,
) -> Tuple[GaussianMixture, np.ndarray, np.ndarray]:
    """The M-step on the two sufficient statistics ``S0`` and ``S1``.

    Equations (13)/(17) on ``resp_sum`` / ``weighted_sq``, then pruning
    and merging.  Returns the updated mixture together with the
    statistics aligned to its components: pruned components drop their
    rows and merged ones sum theirs, which is what the online EM's
    decayed running statistics carry into the next step.  ``mixture``
    is only consulted for its component count sanity check.
    """
    resp_sum = np.asarray(resp_sum, dtype=np.float64).reshape(-1)
    weighted_sq = np.asarray(weighted_sq, dtype=np.float64).reshape(-1)
    if resp_sum.shape[0] != mixture.n_components:
        raise ValueError(
            f"statistics carry {resp_sum.shape[0]} components, mixture "
            f"has {mixture.n_components}"
        )
    lam = precisions_from_stats(resp_sum, weighted_sq, a=a, b=b)
    pi = mixing_from_stats(resp_sum, alpha=alpha, prune=prune)
    keep = pi > 0.0
    if not keep.all() and keep.any():
        pi = pi[keep] / pi[keep].sum()
        lam = lam[keep]
        resp_sum = resp_sum[keep]
        weighted_sq = weighted_sq[keep]
    if merge and pi.size > 1:
        pi, lam, resp_sum, weighted_sq = merge_similar_components(
            pi, lam, rel_tol=merge_rel_tol, stats=(resp_sum, weighted_sq)
        )
    return GaussianMixture(pi=pi, lam=lam), resp_sum, weighted_sq


def gm_loss_terms(
    mixture: GaussianMixture,
    w: np.ndarray,
    alpha: np.ndarray,
    a: float,
    b: float,
) -> float:
    """Negative log of the joint prior (the regularization part of Eq. (8)).

    Returns ``-log p(w, pi, lambda | alpha, a, b)`` up to additive
    constants that do not depend on ``(w, pi, lambda)``.  Useful for
    monitoring EM progress and in tests asserting that the M-step does
    not increase the objective.
    """
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    alpha = np.asarray(alpha, dtype=np.float64).reshape(-1)
    if alpha.size != mixture.n_components:
        # Components may have been pruned since the hyper-parameters were
        # laid out; the Dirichlet concentration is shared, so truncate.
        alpha = alpha[: mixture.n_components]
    log_lik = float(mixture.log_pdf(w).sum())
    with np.errstate(divide="ignore"):
        log_pi = np.log(np.maximum(mixture.pi, 1e-300))
    log_dirichlet = float(((alpha - 1.0) * log_pi).sum())
    log_gamma_prior = float(
        ((a - 1.0) * np.log(mixture.lam) - b * mixture.lam).sum()
    )
    return -(log_lik + log_dirichlet + log_gamma_prior)
