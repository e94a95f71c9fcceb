"""Closed-loop continuous learning: train, serve, shadow-evaluate, promote.

The batch pipeline (``repro.optim`` training → ``repro.serve`` hot-swap
serving) covers one deployment; this package closes the loop the
paper's GEMINI healthcare stack runs in production, where models are
retrained as new data arrives:

- :class:`~repro.online.em.DecayedGMRegularizer` — the GM prior's
  M-step on exponentially decayed sufficient statistics (the only
  decayed M-step).
- :class:`~repro.online.trainer.OnlineTrainer` — ``partial_fit``
  streaming training without an epoch horizon; each call runs the same
  Algorithm-2 step, :class:`~repro.optim.trainer.Step`, that the batch
  trainer's epochs run.
- :class:`~repro.online.publisher.RegistryPublisher` — cadence-driven
  candidate snapshots into the model registry.
- :class:`~repro.online.shadow.ShadowEvaluator` — mirrors sampled live
  traffic to the candidate.
- :class:`~repro.online.promotion.PromotionPolicy` — promote / hold /
  reject / roll back, every verdict visible in telemetry.
- :class:`~repro.online.loop.ContinuousLoop` — the prequential driver
  tying it all together under live traffic.
- :class:`~repro.online.stream.DriftStream` — seeded synthetic traffic
  with a controllable distribution shift, for benchmarks and smokes.
"""

from .em import DecayedGMRegularizer
from .loop import ContinuousLoop
from .promotion import PromotionDecision, PromotionPolicy
from .publisher import PublishTriggers, RegistryPublisher
from .shadow import ShadowEvaluator, ShadowReport
from .stream import DriftStream
from .trainer import OnlineTrainer, StepResult

__all__ = [
    "DecayedGMRegularizer",
    "OnlineTrainer",
    "StepResult",
    "PublishTriggers",
    "RegistryPublisher",
    "ShadowEvaluator",
    "ShadowReport",
    "PromotionDecision",
    "PromotionPolicy",
    "ContinuousLoop",
    "DriftStream",
]
