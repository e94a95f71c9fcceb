"""Shadow evaluation: mirror sampled live traffic to a candidate model.

A freshly published candidate must earn promotion on **live traffic**,
not on a held-out set that may predate the drift that motivated it.
:class:`ShadowEvaluator` mirrors a deterministic sampled fraction of
the requests the live model answers to the candidate, scoring the
candidate inline (shadow scoring never blocks or fails the live
answer), and accumulates:

- **agreement** — fraction of mirrored rows where candidate and live
  predictions match (the label-free safety signal);
- **accuracy** for both models when labels arrive with the request
  (the prequential test-then-train setting provides them);
- **latency** of each side's scoring call, as histograms.

Everything lands in the shared
:class:`~repro.telemetry.metrics.MetricsRegistry` under ``shadow/*``
and is summarized into an immutable :class:`ShadowReport` for the
:class:`~repro.online.promotion.PromotionPolicy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

import numpy as np

from ..rng import REPRO_DEFAULT_SEED, spawn
from ..serve.registry import ModelRegistry
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.trace import start_span

__all__ = ["ShadowReport", "ShadowEvaluator"]

#: Component key namespacing the mirror-sampling stream under `spawn`.
_SHADOW_KEY = 32


@dataclass(frozen=True)
class ShadowReport:
    """Accumulated candidate-vs-live deltas over the mirror window."""

    candidate_version: str
    live_version: str
    samples: int
    agreement: float
    live_accuracy: Optional[float]
    candidate_accuracy: Optional[float]
    live_latency_mean: float
    candidate_latency_mean: float


def _row_equal(a: Any, b: Any) -> np.ndarray:
    """Per row of two aligned prediction blocks: are the rows equal?"""
    return np.asarray(a == b).reshape(len(a), -1).all(axis=1)


class ShadowEvaluator:
    """Mirror a sampled fraction of live requests to a candidate.

    Parameters
    ----------
    registry:
        Registry the candidate version is loaded from.
    name:
        Model name.
    fraction:
        Mirror probability per observed request, in ``(0, 1]``.
    metrics:
        Shared metrics registry (its clock times the scoring calls).
    seed:
        Seeds the sampling stream via :func:`repro.rng.spawn`, so a
        replayed run mirrors exactly the same requests.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        name: str,
        fraction: float = 0.2,
        metrics: Optional[MetricsRegistry] = None,
        seed: int = REPRO_DEFAULT_SEED,
    ) -> None:
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        self.registry = registry
        self.name = name
        self.fraction = float(fraction)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._rng = spawn(seed, _SHADOW_KEY)
        self._candidate_version: Optional[str] = None
        self._candidate_model: Any = None
        self._reset_window()

    def _reset_window(self) -> None:
        self._samples = 0
        self._agree = 0
        self._labeled = 0
        self._live_correct = 0
        self._candidate_correct = 0
        self._live_latency = 0.0
        self._candidate_latency = 0.0

    # ------------------------------------------------------------------
    @property
    def candidate_version(self) -> Optional[str]:
        """Version currently under shadow evaluation (or ``None``)."""
        return self._candidate_version

    def set_candidate(self, version: str) -> None:
        """Load ``version`` as the shadow candidate and reset the window.

        Loading happens here, once, off the per-request path; a newer
        candidate replaces the old one (its half-filled window is
        discarded — stale evidence about a superseded version).
        """
        with start_span(
            "online/shadow_candidate",
            attributes={"model": self.name, "version": version},
        ):
            self._candidate_model = self.registry.load(self.name, version)
            self._candidate_version = version
            self._reset_window()
            self.metrics.counter("shadow/candidates_total").inc()

    def clear_candidate(self) -> None:
        """Drop the candidate (after promotion or rejection)."""
        self._candidate_model = None
        self._candidate_version = None
        self._reset_window()

    # ------------------------------------------------------------------
    def observe(
        self,
        row: np.ndarray,
        live_prediction: Any,
        label: Optional[Any] = None,
        live_seconds: Optional[float] = None,
    ) -> Optional[Any]:
        """Maybe mirror one served request (one-row :meth:`observe_many`)."""
        return self.observe_many(
            np.asarray(row)[np.newaxis, ...],
            [live_prediction],
            labels=None if label is None else [label],
            live_seconds=live_seconds,
        )[0]

    def observe_many(
        self,
        x: np.ndarray,
        live: Sequence[Any],
        labels: Optional[Sequence[Any]] = None,
        live_seconds: Optional[float] = None,
    ) -> List[Optional[Any]]:
        """Maybe mirror each of a block of served requests to the candidate.

        Draws one sampling decision per row (the same stream as one
        :meth:`observe` per row) and scores every sampled row in one
        candidate call.  Returns, per row, the candidate's prediction
        when that row was mirrored, ``None`` otherwise (no candidate
        installed, or the sampler skipped it).  ``live_seconds`` lets the
        caller report the live path's measured per-request latency for
        the delta; the candidate's scoring call is timed here.
        """
        mirrored: List[Optional[Any]] = [None] * len(x)
        if self._candidate_model is None:
            return mirrored
        sampled = np.flatnonzero(self._rng.random(len(x)) < self.fraction)
        if not len(sampled):
            return mirrored
        clock = self.metrics.clock
        with start_span(
            "online/shadow_observe",
            attributes={
                "model": self.name,
                "candidate": self._candidate_version,
                "rows": len(sampled),
            },
        ) as span:
            rows = np.asarray(x, dtype=np.float64).reshape(len(x), -1)
            start = clock()
            shadow = self._candidate_model.predict(rows[sampled])
            elapsed = clock() - start
            live_block = np.asarray(live)[sampled]
            agree = int(_row_equal(shadow, live_block).sum())
            self._samples += len(sampled)
            self._agree += agree
            if labels is not None:
                label_block = np.asarray(labels)[sampled]
                self._labeled += len(sampled)
                self._live_correct += int(
                    _row_equal(live_block, label_block).sum()
                )
                self._candidate_correct += int(
                    _row_equal(shadow, label_block).sum()
                )
            for index, prediction in zip(sampled, shadow):
                mirrored[index] = prediction
            self._candidate_latency += elapsed
            if live_seconds is not None:
                self._live_latency += float(live_seconds) * len(sampled)
            self.metrics.counter("shadow/mirrored_total").inc(len(sampled))
            if agree:
                self.metrics.counter("shadow/agreements_total").inc(agree)
            self.metrics.histogram("shadow/candidate_seconds").observe(elapsed)
            span.set_attribute("agreed", agree)
            return mirrored

    # ------------------------------------------------------------------
    def report(self) -> Optional[ShadowReport]:
        """Summarize the current mirror window (``None`` if empty)."""
        if self._candidate_version is None or self._samples == 0:
            return None
        labeled = self._labeled
        return ShadowReport(
            candidate_version=self._candidate_version,
            live_version=self.registry.active_version(self.name) or "",
            samples=self._samples,
            agreement=self._agree / self._samples,
            live_accuracy=(
                self._live_correct / labeled if labeled else None
            ),
            candidate_accuracy=(
                self._candidate_correct / labeled if labeled else None
            ),
            live_latency_mean=(
                self._live_latency / self._samples if self._samples else 0.0
            ),
            candidate_latency_mean=(
                self._candidate_latency / self._samples
                if self._samples
                else 0.0
            ),
        )

    def __repr__(self) -> str:
        return (
            f"ShadowEvaluator(name={self.name!r}, "
            f"candidate={self._candidate_version!r}, "
            f"samples={self._samples}, fraction={self.fraction})"
        )
