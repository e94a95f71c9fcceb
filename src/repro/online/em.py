"""Online EM for the GM prior: decayed sufficient statistics.

The batch M-step (Equations (13)/(17)) needs only two per-component
sums over the weight vector — the responsibility mass
``S0_k = sum_m r_k(w_m)`` and the weighted square sum
``S1_k = sum_m r_k(w_m) w_m^2``.  The training E-step kernel returns
exactly those statistics and the batch M-step
(:func:`~repro.core.em.em_step_from_stats`) consumes them, so the
*online* variant only has to change which statistics the M-step sees:
instead of recomputing
them from scratch each step it maintains an exponentially decayed
running summary

    S <- rho * S + (1 - rho) * s_t        (first update: S = s_t)

and runs the *identical* M-step code on it.  On stationary weights the
recursion's fixed point is ``S = s_t``, i.e. the batch statistics —
which is why the benchmark can require online π/λ to match batch EM
within ``1e-3`` on stationary data, while under drift the decay keeps
the prior tracking the moving weight distribution (the same spirit in
which regularized/streaming EM variants stabilize updates on small
batches).

:class:`DecayedGMRegularizer` packages the recursion behind the normal
:class:`~repro.core.gm_regularizer.GMRegularizer` interface, with
warm-up gating expressed through the existing
:class:`~repro.core.lazy.LazyUpdateSchedule`: the first
``warmup_steps`` streaming steps are treated as the schedule's eager
epochs (every step refreshes), after which the lazy ``Im``/``Ig``
intervals take over.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.em import RegularizerEMState, em_step_from_stats
from ..core.gm_regularizer import GMRegularizer
from ..core.hyperparams import GMHyperParams
from ..core.lazy import LazyUpdateSchedule

__all__ = ["DecayedGMRegularizer"]


def _blend(
    running: Optional[np.ndarray], fresh: np.ndarray, rho: float
) -> np.ndarray:
    """``rho``-decayed blend; the first observation seeds the summary."""
    if running is None:
        return fresh
    return rho * running + (1.0 - rho) * fresh


class DecayedGMRegularizer(GMRegularizer):
    """:class:`GMRegularizer` whose M-step runs on decayed statistics.

    Drop-in for the batch regularizer inside any training loop, but
    built for streams:

    - The M-step blends each E-step's ``S0``/``S1`` into a running
      summary: it carries memory of past weight snapshots with
      exponential decay ``rho``, so one noisy mini-batch cannot yank the
      prior around, yet the prior still tracks drift.  It is the only
      decayed M-step; :meth:`upt_gm_param` runs one step of it on any
      ``w`` outside a training loop.
    - Warm-up gating reuses the lazy schedule: streaming steps below
      ``warmup_steps`` are mapped to the schedule's eager-epoch regime
      (refresh every step); afterwards the lazy ``Im``/``Ig`` intervals
      apply, exactly as in Algorithm 2's post-warm-up phase.
    - :meth:`em_state`/:meth:`load_em_state` additionally round-trip the
      running statistics, so a :class:`~repro.optim.trainer.TrainerState`
      snapshot resumes the stream where it left off.
    """

    def __init__(
        self,
        n_dimensions: int,
        weight_init_std: float = 0.1,
        hyperparams: Optional[GMHyperParams] = None,
        init_method: str = "linear",
        schedule: Optional[LazyUpdateSchedule] = None,
        prune_components: bool = True,
        merge_components: bool = True,
        rho: float = 0.95,
        warmup_steps: int = 0,
    ) -> None:
        super().__init__(
            n_dimensions,
            weight_init_std=weight_init_std,
            hyperparams=hyperparams,
            init_method=init_method,
            schedule=schedule,
            prune_components=prune_components,
            merge_components=merge_components,
        )
        if not 0.0 < rho < 1.0:
            raise ValueError(f"rho must be in (0, 1), got {rho}")
        if warmup_steps < 0:
            raise ValueError(f"warmup_steps must be >= 0, got {warmup_steps}")
        if warmup_steps > 0 and self.schedule.eager_epochs < 1:
            raise ValueError(
                "warmup_steps > 0 needs a schedule with eager_epochs >= 1 "
                "(warm-up is expressed as the schedule's eager regime)"
            )
        self.rho = float(rho)
        self.warmup_steps = int(warmup_steps)
        self._resp_sum: Optional[np.ndarray] = None
        self._weighted_sq: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Warm-up gating through the lazy schedule
    # ------------------------------------------------------------------
    def _schedule_epoch(self, iteration: int) -> int:
        """Map a streaming step onto the schedule's epoch axis.

        Steps inside the warm-up window behave like epoch 0 (eager:
        refresh every iteration); later steps sit at ``eager_epochs``,
        the first lazy epoch, so only the ``Im``/``Ig`` intervals fire.
        """
        if iteration < self.warmup_steps:
            return 0
        return self.schedule.eager_epochs

    # ------------------------------------------------------------------
    # The decayed M-step
    # ------------------------------------------------------------------
    def _mstep(self, resp_sum: np.ndarray, weighted_sq: np.ndarray) -> None:
        """``uptGMParam()`` on the decayed summary instead of raw sums."""
        self.mixture, self._resp_sum, self._weighted_sq = em_step_from_stats(
            self.mixture,
            _blend(self._resp_sum, resp_sum, self.rho),
            _blend(self._weighted_sq, weighted_sq, self.rho),
            alpha=self._alpha[: self.mixture.n_components],
            a=self._a,
            b=self._b,
            prune=self.prune_components,
            merge=self.merge_components,
        )
        self._n_mstep += 1

    # ------------------------------------------------------------------
    # Snapshot/restore carrying the running statistics
    # ------------------------------------------------------------------
    def em_state(self) -> RegularizerEMState:
        """Snapshot including the decayed ``S0``/``S1`` summary."""
        return RegularizerEMState(
            pi=self.mixture.pi.copy(),
            lam=self.mixture.lam.copy(),
            estep_count=self._n_estep,
            mstep_count=self._n_mstep,
            resp_sum=None if self._resp_sum is None else self._resp_sum.copy(),
            weighted_sq=(
                None if self._weighted_sq is None else self._weighted_sq.copy()
            ),
        )

    def load_em_state(self, state: RegularizerEMState) -> None:
        """Restore mixture *and* running statistics from a snapshot."""
        super().load_em_state(state)
        self._resp_sum = (
            None
            if state.resp_sum is None
            else np.asarray(state.resp_sum, dtype=np.float64).reshape(-1)
        )
        self._weighted_sq = (
            None
            if state.weighted_sq is None
            else np.asarray(state.weighted_sq, dtype=np.float64).reshape(-1)
        )

    def __repr__(self) -> str:
        return (
            f"DecayedGMRegularizer(M={self.n_dimensions}, "
            f"K={self.mixture.n_components}, rho={self.rho}, "
            f"warmup_steps={self.warmup_steps})"
        )
