"""The closed loop: serve → evaluate → train → publish → promote.

:class:`ContinuousLoop` is the driver that turns the repo's existing
pieces into a continuously learning system.  Each :meth:`step` consumes
one labeled mini-batch in the **prequential** (test-then-train) order:

1. **Serve** — the live model answers every row first (through a
   :class:`~repro.serve.server.ModelServer` /
   :class:`~repro.serve.sharding.server.ShardedModelServer` when one is
   attached, else straight from the registry's active snapshot).  The
   serving tier's shed-to-inline guarantee means every request gets an
   answer; the loop counts requests vs answers so "zero drops" is a
   measured fact, not an assumption.
2. **Score** — the answers are compared against the just-revealed
   labels, updating the live accuracy EWMA (the drift alarm and the
   rollback signal), and a sampled fraction is mirrored to the shadow
   candidate.
3. **Train** — :meth:`~repro.online.trainer.OnlineTrainer.partial_fit`
   consumes the batch.
4. **Publish** — the publisher snapshots a non-active candidate when a
   cadence trigger fires; the shadow evaluator picks it up.
5. **Promote / roll back** — the promotion policy judges the shadow
   window; a *promote* verdict activates the candidate in the registry
   and broadcasts ``hot_swap`` to a sharded server; a post-promotion
   live-accuracy collapse triggers rollback to the registry's
   last-known-good version.

Every decision is mirrored to telemetry (span events + ``online/*``,
``promotion/*`` counters), so the whole history is reconstructable
from the trace buffer alone — which a test asserts.
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, List, Optional

import numpy as np

from ..serve.registry import ModelRegistry
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.trace import Tracer, add_event, start_span, use_tracer

from .promotion import PROMOTE, REJECT, PromotionDecision, PromotionPolicy
from .publisher import RegistryPublisher
from .shadow import ShadowEvaluator
from .stream import DriftStream
from .trainer import OnlineTrainer

__all__ = ["ContinuousLoop"]

#: Smoothing factor of the live accuracy EWMA.
_ACCURACY_EWMA_BETA = 0.8


class ContinuousLoop:
    """Drive the train–serve–retrain loop one mini-batch at a time.

    Parameters
    ----------
    trainer:
        The :class:`~repro.online.trainer.OnlineTrainer` mutating the
        in-progress model.
    publisher:
        :class:`~repro.online.publisher.RegistryPublisher` snapshotting
        that model into the registry on its cadence (its ``registry``
        and ``name`` define which serving entry the loop manages; an
        initial version must already be published and active).
    shadow:
        :class:`~repro.online.shadow.ShadowEvaluator` mirroring served
        traffic to the latest candidate.
    policy:
        :class:`~repro.online.promotion.PromotionPolicy` gate.
    server:
        Optional serving tier answering live traffic.  Anything with
        ``predict_many(x)``; if it also exposes ``hot_swap`` (the
        sharded tier), promotions broadcast through it.  Without a
        server the loop scores against the registry's active snapshot
        directly.
    metrics:
        Shared metrics registry; defaults to the trainer's.
    tracer:
        Optional tracer installed ambiently around every step, so all
        nested spans/events (serve, publish, promotion) land in one
        place.
    """

    def __init__(
        self,
        trainer: OnlineTrainer,
        publisher: RegistryPublisher,
        shadow: ShadowEvaluator,
        policy: PromotionPolicy,
        server: Optional[Any] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.trainer = trainer
        self.publisher = publisher
        self.shadow = shadow
        self.policy = policy
        self.server = server
        self.metrics = metrics if metrics is not None else trainer.metrics
        self.tracer = tracer
        self.registry: ModelRegistry = publisher.registry
        self.name = publisher.name
        self.decisions: List[PromotionDecision] = []
        self.rollbacks: List[Dict[str, Any]] = []
        self._live_accuracy: Optional[float] = None
        self._accuracy_at_promotion: Optional[float] = None
        self._steps = 0
        self._requests = 0
        self._answers = 0

    # ------------------------------------------------------------------
    @property
    def live_accuracy(self) -> Optional[float]:
        """EWMA of live-model accuracy on just-revealed labels."""
        return self._live_accuracy

    @property
    def dropped_requests(self) -> int:
        """Requests that never got an answer (the loop asserts 0)."""
        return self._requests - self._answers

    # ------------------------------------------------------------------
    def step(self, x: np.ndarray, y: np.ndarray) -> Dict[str, Any]:
        """One prequential iteration; returns a step summary dict."""
        scope = (
            use_tracer(self.tracer)
            if self.tracer is not None
            else contextlib.nullcontext()
        )
        with scope:
            with start_span(
                "online/loop_step", attributes={"step": self._steps}
            ) as span:
                summary = self._step_inner(np.asarray(x), np.asarray(y))
                span.set_attribute("live_accuracy", summary["live_accuracy"])
                if summary["published"]:
                    span.set_attribute("published", summary["published"])
                if summary["decision"]:
                    span.set_attribute("decision", summary["decision"])
                return summary

    def _step_inner(self, x: np.ndarray, y: np.ndarray) -> Dict[str, Any]:
        # 1. Serve: the live model answers before the labels are used.
        predictions = self._serve(x)
        # 2. Score: live accuracy EWMA + shadow mirroring.
        batch_accuracy = float(np.mean(np.asarray(predictions) == y))
        if self._live_accuracy is None:
            self._live_accuracy = batch_accuracy
        else:
            self._live_accuracy = (
                _ACCURACY_EWMA_BETA * self._live_accuracy
                + (1.0 - _ACCURACY_EWMA_BETA) * batch_accuracy
            )
        self.metrics.gauge("online/live_accuracy").set(self._live_accuracy)
        self.shadow.observe_many(x, predictions, labels=y)
        # 3. Train on the now-consumed labels.
        result = self.trainer.partial_fit(x, y)
        # 4. Publish a candidate when the cadence says so.
        published = self.publisher.maybe_publish(
            self.trainer.model, result.step + 1, loss=result.loss_ewma
        )
        if published is not None:
            self.shadow.set_candidate(published)
        # 5. Promotion gate + rollback watch.
        decision = self.policy.decide(self.shadow.report(), self._steps)
        if decision is not None:
            self.decisions.append(decision)
            self._apply(decision)
        rolled_back = self._maybe_rollback()
        self._steps += 1
        self.metrics.counter("online/loop_steps_total").inc()
        return {
            "step": self._steps - 1,
            "loss": result.loss,
            "batch_accuracy": batch_accuracy,
            "live_accuracy": self._live_accuracy,
            "published": published,
            "decision": None if decision is None else decision.action,
            "rolled_back": rolled_back,
            "active_version": self.registry.active_version(self.name),
        }

    # ------------------------------------------------------------------
    def _serve(self, x: np.ndarray) -> List[Any]:
        """Answer every row with the live model; count requests/answers."""
        self._requests += len(x)
        self.metrics.counter("online/requests_total").inc(float(len(x)))
        if self.server is not None:
            predictions = self.server.predict_many(x)
        else:
            live = self.registry.active(self.name)
            predictions = list(live.model.predict(np.asarray(x)))
        answered = sum(1 for p in predictions if p is not None)
        self._answers += answered
        self.metrics.counter("online/answers_total").inc(float(answered))
        return predictions

    def _apply(self, decision: PromotionDecision) -> None:
        """Carry out a gate verdict against registry, server and shadow."""
        if decision.action == PROMOTE:
            self.registry.activate(self.name, decision.candidate_version)
            hot_swap = getattr(self.server, "hot_swap", None)
            if callable(hot_swap):
                hot_swap(decision.candidate_version)
            self._accuracy_at_promotion = self._live_accuracy
            self.metrics.counter("online/promotions_total").inc()
            self.shadow.clear_candidate()
        elif decision.action == REJECT:
            self.metrics.counter("online/rejections_total").inc()
            self.shadow.clear_candidate()
        # hold: keep the shadow window accumulating.

    def _maybe_rollback(self) -> bool:
        """Roll back to last-known-good if the live EWMA collapsed."""
        if not self.policy.check_rollback(
            self._live_accuracy, self._accuracy_at_promotion
        ):
            return False
        target = self.registry.last_known_good(self.name)
        if target is None:
            return False
        with start_span(
            "online/rollback",
            attributes={"model": self.name, "target": target},
        ) as span:
            demoted = self.registry.active_version(self.name)
            self.registry.activate(self.name, target)
            hot_swap = getattr(self.server, "hot_swap", None)
            if callable(hot_swap):
                hot_swap(target)
            record = {
                "step": self._steps,
                "from": demoted,
                "to": target,
                "live_accuracy": self._live_accuracy,
                "accuracy_at_promotion": self._accuracy_at_promotion,
            }
            self.rollbacks.append(record)
            span.event("rollback", **record)
            add_event("promotion_rollback", **record)
            self.metrics.counter("online/rollbacks_total").inc()
            # Disarm until the next promotion establishes a new baseline.
            self._accuracy_at_promotion = None
        return True

    # ------------------------------------------------------------------
    def run(self, stream: DriftStream, steps: int) -> Dict[str, Any]:
        """Drive :meth:`step` over ``steps`` batches of ``stream``."""
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        with start_span(
            "online/run", attributes={"steps": steps}, tracer=self.tracer
        ):
            for x, y in stream.batches(steps):
                self.step(x, y)
        return self.status()

    def status(self) -> Dict[str, Any]:
        """Operator-facing summary of the loop's lifetime so far."""
        actions = [decision.action for decision in self.decisions]
        return {
            "model": self.name,
            "steps": self._steps,
            "live_accuracy": self._live_accuracy,
            "active_version": self.registry.active_version(self.name),
            "last_known_good": self.registry.last_known_good(self.name),
            "candidate_version": self.shadow.candidate_version,
            "published_total": self.publisher.published_count,
            "decisions_total": len(self.decisions),
            "promotions": actions.count(PROMOTE),
            "rejections": actions.count(REJECT),
            "holds": actions.count("hold"),
            "rollbacks": len(self.rollbacks),
            "requests_total": self._requests,
            "answers_total": self._answers,
            "dropped_requests": self.dropped_requests,
        }

    def __repr__(self) -> str:
        return (
            f"ContinuousLoop(model={self.name!r}, steps={self._steps}, "
            f"decisions={len(self.decisions)})"
        )
