"""The E-step kernel — the training hot path.

Every quantity Algorithm 2 needs from an E-step comes from the same
per-component Gaussian densities ``N(w_m | 0, lambda_k)``: the
regularizer gradient ``g_reg`` of Equation (10) weights each
parameter by its responsibility-averaged precision, and the M-step of
Equations (13)/(17) needs only two per-component sums of the
responsibilities of Equation (9),

    S0_k = sum_m r_k(w_m)        S1_k = sum_m r_k(w_m) w_m^2.

:func:`stacked_estep` evaluates the densities once per layer and
returns ``g_reg``, ``S0`` and ``S1`` together — never the ``(M, K)``
responsibility matrix itself — so an iteration that runs both an
E-step and an M-step evaluates the densities exactly once.  The
kernel:

- works in a ``(K, M)`` layout: every reduction is over long
  contiguous rows, or a BLAS product with a ``(2, K)`` or ``(M, 2)``
  operand, instead of ``M`` tiny strided loops over ``K``;
- stabilizes the softmax against the broadest component (the smallest
  precision) rather than a per-parameter maximum.  Its log-density
  ratio to every other component is largest at ``w = 0`` and bounded
  there by the ``pi`` floor and the precision range, so ``exp`` never
  overflows and the normalizer is at least 1.  That removes the max
  and subtract passes, and the reference's own row is ``exp(0) = 1``:
  it is written as ``0 * w^2 + 1``, so only the other ``K - 1`` rows
  take an ``exp``;
- folds the normalization ``r = p / sum_k p_k`` into the consumers
  instead of dividing the whole matrix;
- evaluates the densities at the parameters' own dtype (float32
  parameters get a float32 evaluation), accumulates ``S0``/``S1`` in
  float64 and returns them and ``g_reg`` in float64;
- stacks many layers: the flattened weights of every layer share one
  set of buffers, the element-wise passes run once over the stack,
  and each layer's component block is a slice of it.  A layer alone
  is a stack of one, so it gives the same bits alone and stacked.

:func:`stacked_prepare` drives the kernel from the trainers: one call
per iteration serves every GM regularizer whose E-step is due.
:class:`Workspace` keeps the buffers across iterations so the hot loop
does not allocate them again each step.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from .gaussian_mixture import GaussianMixture

__all__ = [
    "Workspace",
    "EStepResult",
    "stacked_estep",
    "stacked_prepare",
]


class Workspace:
    """A keyed cache of reusable numpy buffers.

    The hot path allocates several ``(K, M)`` temporaries per E-step —
    ~2.5 MB each for an 80k-parameter stack — every iteration.  A
    workspace hands back the same buffer for the same ``(key, shape,
    dtype)`` request, so steady-state training performs zero large
    allocations.  Buffers are private to their owner (one workspace per
    trainer, regularizer or layer); contents are only valid until the
    next request for the same key.
    """

    def __init__(self) -> None:
        self._buffers: Dict[Hashable, np.ndarray] = {}

    def get(
        self,
        key: Hashable,
        shape: Tuple[int, ...],
        dtype: "np.dtype[Any]",
    ) -> np.ndarray:
        """A buffer of exactly ``shape``/``dtype`` for ``key``.

        Contents are arbitrary (callers must overwrite); the buffer is
        reallocated if the requested shape or dtype changed.
        """
        buf = self._buffers.get(key)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = np.empty(shape, dtype=dtype)
            self._buffers[key] = buf
        return buf

    def zeros(
        self,
        key: Hashable,
        shape: Tuple[int, ...],
        dtype: "np.dtype[Any]",
    ) -> np.ndarray:
        """Like :meth:`get` but zero-filled on every call."""
        buf = self.get(key, shape, dtype)
        buf.fill(0)
        return buf

    def nbytes(self) -> int:
        """Total bytes currently held (telemetry/debugging)."""
        return int(sum(buf.nbytes for buf in self._buffers.values()))

    def clear(self) -> None:
        """Drop every cached buffer."""
        self._buffers.clear()


@dataclass
class EStepResult:
    """One layer's E-step: everything Algorithm 2 needs from it.

    Attributes
    ----------
    gradient:
        Flat ``g_reg`` of Equation (10)'s second term,
        ``sum_k r_k(w_m) lambda_k w_m``, float64, shape ``(M,)``.
    resp_sum:
        ``S0_k = sum_m r_k(w_m)``, float64, shape ``(K,)``.
    weighted_sq:
        ``S1_k = sum_m r_k(w_m) w_m^2``, float64, shape ``(K,)``.
    """

    gradient: np.ndarray
    resp_sum: np.ndarray
    weighted_sq: np.ndarray


def stacked_estep(
    mixtures: Sequence[GaussianMixture],
    ws: Sequence[np.ndarray],
    workspace: Optional[Workspace] = None,
) -> List[EStepResult]:
    """One E-step over many ``(mixture, w)`` pairs at once.

    Deep models carry one GM per layer (Section V-B1).  The layers'
    flattened weights are concatenated into one vector and each layer
    fills its own ``(K, M_layer)`` block of a shared ``(K_max,
    M_total)`` density buffer.  Results come back in input order; the
    gradients are slices of one freshly allocated float64 array, so
    they stay valid after later calls (the lazy schedule caches them).
    """
    if len(mixtures) != len(ws):
        raise ValueError(
            f"got {len(mixtures)} mixtures but {len(ws)} parameter vectors"
        )
    if not mixtures:
        return []
    buffers = workspace if workspace is not None else Workspace()
    flats = [np.asarray(w).reshape(-1) for w in ws]
    dtype = np.result_type(np.float32, *flats)
    bounds = list(accumulate((flat.size for flat in flats), initial=0))
    m_total = bounds[-1]
    k_max = max(m.n_components for m in mixtures)

    x = buffers.get("x", (m_total,), dtype)
    np.concatenate(flats, out=x)
    x2 = buffers.get("x2", (m_total,), dtype)
    np.multiply(x, x, out=x2)
    dens = buffers.get("dens", (k_max, m_total), dtype)
    # Rows: the normalizer sum_k p_k, then sum_k lambda_k p_k.
    sums = buffers.get("sums", (2, m_total), dtype)
    for i, mixture in enumerate(mixtures):
        lo, hi = bounds[i], bounds[i + 1]
        k = mixture.n_components
        block = dens[:k, lo:hi]
        lam = mixture.lam
        # log(pi_k p_k / pi_ref p_ref) with ref the broadest component:
        # the shared -0.5 log(2 pi) cancels and the exponent is largest,
        # and bounded, at w = 0.
        ref = int(lam.argmin())
        log_weight = mixture._log_pi + 0.5 * np.log(lam)
        slope = (-0.5 * (lam - lam[ref])).astype(dtype)
        offset = (log_weight - log_weight[ref]).astype(dtype)
        # The reference row is exp(0) = 1, computed as 0 * w^2 + 1 so
        # that it stays NaN where w^2 is not finite, as exp(-0 * w^2)
        # is: that NaN is what fails the M-step on an inf weight.
        np.multiply(x2[lo:hi], 0.0, out=block[ref])
        block[ref] += 1.0
        for rows in (slice(0, ref), slice(ref + 1, k)):
            if rows.start == rows.stop:
                continue
            part = block[rows]
            np.multiply(slope[rows, None], x2[None, lo:hi], out=part)
            part += offset[rows, None]
            np.exp(part, out=part)
        operand = np.empty((2, k), dtype)
        operand[0] = 1.0
        operand[1] = lam
        np.matmul(operand, block, out=sums[:, lo:hi])

    # The normalization r = p / sum_k p_k, folded into the consumers:
    # g_reg uses (sum_k lambda_k p_k) / (sum_k p_k), and the statistics
    # weight each column by 1 / sum_k p_k.
    weights = buffers.get("weights", (2, m_total), dtype)
    np.divide(1.0, sums[0], out=weights[0])
    np.multiply(x2, weights[0], out=weights[1])
    np.multiply(sums[1], weights[0], out=sums[1])
    gradient = np.multiply(sums[1], x, dtype=np.float64)

    results: List[EStepResult] = []
    for i, mixture in enumerate(mixtures):
        lo, hi = bounds[i], bounds[i + 1]
        block = dens[: mixture.n_components, lo:hi].astype(
            np.float64, copy=False
        )
        # Accumulated in float64; both casts are no-ops for float64.
        stats = block @ weights[:, lo:hi].T.astype(np.float64, copy=False)
        results.append(
            EStepResult(
                gradient=gradient[lo:hi],
                resp_sum=stats[:, 0],
                weighted_sq=stats[:, 1],
            )
        )
    return results


def stacked_prepare(
    parameters: Sequence[Any],
    iteration: int,
    workspace: Optional[Workspace] = None,
) -> int:
    """Run the E-step phase for every regularized parameter at once.

    The trainers' E-step: every
    :class:`~repro.core.gm_regularizer.GMRegularizer` whose E-step is
    due this iteration (``estep_due``) joins one :func:`stacked_estep`
    call and receives its layer's result through ``adopt_estep``; any
    other regularizer runs its own ``prepare``.  Returns the number of
    regularizers the kernel served.
    """
    from .gm_regularizer import GMRegularizer

    due: List[Any] = []
    for param in parameters:
        reg = param.regularizer
        if reg is None:
            continue
        if isinstance(reg, GMRegularizer):
            if reg.estep_due(iteration):
                due.append(param)
        else:
            reg.prepare(param.value, iteration)
    results = stacked_estep(
        [p.regularizer.mixture for p in due],
        [p.value for p in due],
        workspace=workspace,
    )
    for param, result in zip(due, results):
        param.regularizer.adopt_estep(iteration, result)
    return len(due)
