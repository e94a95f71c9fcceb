"""Model serving: registry, micro-batching, caching, sharding.

The paper's tool lives inside a production analytics stack where
trained readmission-risk models answer *live* queries; this subsystem
closes the repo's train → serve gap:

:mod:`repro.serve.registry`
    :class:`ModelRegistry` — versioned ``.npz`` checkpoints (disk or
    in-memory) for any ``parameters()`` model, with an atomic hot-swap
    of the active version and a :class:`~repro.nn.checkpoint.LoadReport`
    based architecture-compatibility check.
:mod:`repro.serve.batching`
    :class:`MicroBatcher` — bounded FIFO that coalesces concurrently
    queued row blocks (a single-row request is a 1-row block) into one
    NumPy batch call; its limits count rows.  It starts no thread:
    callers lead the batches, their own block or the queue's head, and
    blocks submitted during a batch's fill wait join it.
:mod:`repro.serve.cache`
    :class:`PredictionCache` — LRU of per-row results keyed on
    method x model-version x row dtype/shape/bytes, looked up and
    filled a block at a time.
:mod:`repro.serve.server`
    :class:`ModelServer` — the request lifecycle, written once for both
    tiers: per-request deadlines, backpressure shedding to a
    single-item sync path, and full
    :class:`~repro.telemetry.metrics.MetricsRegistry` wiring
    (latency/batch-size histograms, queue-depth gauge, shed and cache
    counters).
:mod:`repro.serve.resilience`
    :class:`FaultInjector` (seeded chaos harness), :class:`RetryPolicy`
    (exponential backoff + full jitter + deadline budgets),
    :class:`CircuitBreaker` (closed/open/half-open over a sliding
    window) and :class:`ResiliencePolicy` — the failure-handling
    decision table wired through the server, plus the
    :meth:`ModelServer.health` / :meth:`ModelServer.ready` operator
    probes, which move no resilience counter (see
    ``docs/RUNBOOK.md``).
:mod:`repro.serve.sharding`
    :class:`~repro.serve.sharding.server.ShardedModelServer` — a
    :class:`ModelServer` subclass that keeps only its fleet of N worker
    *processes*: consistent-hash routing, shared-memory batch
    transport, a supervisor that respawns dead workers from the
    last-known-good snapshot, and atomic hot-swap broadcast
    (load-tested by :mod:`repro.loadgen`).

Entry points: ``python -m repro serve [--shards N]`` /
``python -m repro predict`` / ``python -m repro loadgen`` (CLI) and
:meth:`repro.pipeline.stack.AnalyticsStack.serve` (in-process).
"""

from .batching import MicroBatcher, ServeRequest, ServerClosed
from .cache import PredictionCache
from .registry import ActiveModel, CheckpointIncompatible, ModelRegistry
from .resilience import (
    BreakerOpen,
    CircuitBreaker,
    FaultInjector,
    FaultProfile,
    InjectedFault,
    ResiliencePolicy,
    RetryPolicy,
)
from .server import ModelServer
from .sharding import ShardedModelServer

__all__ = [
    "ActiveModel",
    "BreakerOpen",
    "CheckpointIncompatible",
    "CircuitBreaker",
    "FaultInjector",
    "FaultProfile",
    "InjectedFault",
    "MicroBatcher",
    "ModelRegistry",
    "ModelServer",
    "PredictionCache",
    "ResiliencePolicy",
    "RetryPolicy",
    "ServeRequest",
    "ServerClosed",
    "ShardedModelServer",
]
