"""Sharded model server: the ``ModelServer`` lifecycle over a process fleet.

:class:`ShardedModelServer` is a
:class:`~repro.serve.server.ModelServer` — the request lifecycle
(normalize, resolve version, consult the LRU cache, micro-batch, shed,
deadline and rescue, the probes and stats) is inherited, written once —
that scores batches on N worker *processes* instead of in this
GIL-bound one.  It keeps only the fleet:

- **routing** — every cache miss's content key (method + row bytes)
  lands on a shard via a seeded consistent-hash ring, so identical rows
  always reach the same worker and changing the fleet size moves only
  ~1/N of the keyspace;
- **batching** — each shard has its own parent-side
  :class:`~repro.serve.batching.MicroBatcher` with one dispatch slot
  per shard channel, so coalescing, cancellation, drain and callers
  leading batches are the single-process path's machinery;
- **dispatch** — a coalesced batch travels to its worker through a
  shared-memory slab (no per-request pickling) and the results fan
  back from the response slab, with worker-side timing recorded as a
  child span of the dispatch.  A call with misses on several shards
  sends every shard a batch per round before it waits on any reply;
- **resilience** — each shard sits behind its own
  :class:`~repro.serve.resilience.CircuitBreaker`; dead or tripped
  shards are routed around on the ring, a batch stranded by a worker
  death is rescued row-by-row on the parent's own model snapshot
  (``serve/rescued_total`` — zero requests dropped), and the
  supervisor respawns the worker with the last-known-good state;
- **hot-swap** — when the backing registry's active version moves, the
  server loads the new model once, broadcasts its state blob to every
  worker, and only then serves under the new version label, so a
  publish atomically reaches the whole fleet.

Per-shard instruments (``serve/shard/<i>/...``) sit alongside the
aggregate ones, and :meth:`~repro.serve.server.ModelServer.health`
reports the per-shard status list that makes a half-dead fleet
distinguishable from a healthy one.
"""

from __future__ import annotations

import contextlib
import functools
import threading
from collections import defaultdict
from typing import (
    Any, Callable, Collection, Dict, List, Optional, Sequence, Tuple,
)

import numpy as np

from ...telemetry.metrics import MetricsRegistry
from ...telemetry.trace import Tracer, add_event
from ..batching import DispatchFn, ServeRequest
from ..registry import ModelRegistry
from ..resilience import BreakerOpen, CircuitBreaker, ResiliencePolicy
from ..server import ModelServer
from .hashing import ConsistentHashRing, routing_key
from .shm import ShardDead, ShardWorkerError
from .supervisor import ShardSupervisor

__all__ = ["ShardedModelServer"]

_PROBE_METHODS = ("predict", "predict_proba", "decision_function")

#: Seconds a dispatch waits on a *live but silent* worker before
#: declaring the shard dead (a killed worker is detected within one
#: liveness poll, independent of this).
DISPATCH_TIMEOUT = 30.0


class ShardedModelServer(ModelServer):
    """Serve ``predict``-family queries across a sharded process fleet.

    Parameters
    ----------
    model, registry, name:
        Exactly one of ``model=`` (fixed snapshot) or ``registry=`` +
        ``name=`` (live, hot-swappable) — same contract as
        :class:`~repro.serve.server.ModelServer`.
    n_shards:
        Worker process count.  Workers start by ``fork``, so
        unpicklable models work.
    n_features:
        Row width; defaults to ``model.n_features`` when the model
        self-describes.
    max_batch_size, batch_timeout, max_queue:
        Per-shard micro-batching knobs.
    cache_size:
        Shared parent-side LRU capacity (hits never touch a worker).
    metrics, tracer:
        As for :class:`~repro.serve.server.ModelServer`.
    resilience:
        Optional policy whose ``retry`` wraps the parent-side inline
        path; per-shard breakers are always created regardless.
    monitor_interval:
        Seconds between the supervisor's liveness sweeps.
    """

    def __init__(
        self,
        model: Any = None,
        registry: Optional[ModelRegistry] = None,
        name: Optional[str] = None,
        n_shards: int = 2,
        n_features: Optional[int] = None,
        max_batch_size: int = 32,
        batch_timeout: float = 0.002,
        max_queue: int = 256,
        cache_size: int = 1024,
        metrics: Optional[MetricsRegistry] = None,
        resilience: Optional[ResiliencePolicy] = None,
        tracer: Optional[Tracer] = None,
        monitor_interval: float = 0.05,
    ) -> None:
        self._check_target(model, registry, name)
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if registry is not None:
            active = registry.active(name or "")
            version, snapshot = active.version, active.model
        else:
            version, snapshot = "v0", model
        self._version = version
        self._fallback = snapshot
        width = n_features or getattr(snapshot, "n_features", None)
        if width is None:
            raise ValueError(
                "pass n_features= (model does not self-describe its row "
                "width)"
            )
        self.n_features = int(width)
        self._out_widths = self._probe_methods(snapshot, self.n_features)
        if not self._out_widths:
            raise ValueError(
                f"model {type(snapshot).__name__} supports none of "
                f"{_PROBE_METHODS}"
            )
        self.ring = ConsistentHashRing(n_shards)
        self._swap_lock = threading.Lock()
        metrics = metrics or MetricsRegistry()
        self._breakers = [
            CircuitBreaker(
                name=f"shard{i}",
                window=16,
                failure_threshold=0.5,
                min_calls=4,
                reset_timeout=0.25,
                half_open_probes=1,
                metrics=metrics,
            )
            for i in range(n_shards)
        ]
        super().__init__(
            model=model,
            registry=registry,
            name=name,
            max_batch_size=max_batch_size,
            batch_timeout=batch_timeout,
            max_queue=max_queue,
            workers=1,
            cache_size=cache_size,
            metrics=metrics,
            resilience=resilience,
            tracer=tracer,
        )
        # Forked last: every knob above is validated before a worker
        # exists, and the batchers start no thread.
        self.supervisor = ShardSupervisor(
            snapshot,
            n_shards=n_shards,
            slots=max_batch_size,
            n_features=self.n_features,
            out_width=max(self._out_widths.values()),
            version=version,
            metrics=metrics,
            monitor_interval=monitor_interval,
        )

    @staticmethod
    def _probe_methods(model: Any, n_features: int) -> Dict[str, int]:
        """Per-method output width, probed once on a zero row."""
        widths: Dict[str, int] = {}
        probe = np.zeros((1, n_features), dtype=np.float64)
        for method in _PROBE_METHODS:
            bound = getattr(model, method, None)
            if not callable(bound):
                continue
            try:
                out = np.asarray(bound(probe))
            except Exception:
                continue
            widths[method] = max(1, int(out.reshape(1, -1).shape[1]))
        return widths

    def _dispatchers(self) -> List[DispatchFn]:
        """One batcher per shard, each dispatching to its own worker."""
        return [
            functools.partial(self._shard_dispatch, shard_id)
            for shard_id in range(self.ring.n_shards)
        ]

    @property
    def n_shards(self) -> int:
        """Size of the worker fleet."""
        return self.supervisor.n_shards

    @property
    def version(self) -> str:
        """Version label requests are currently served under."""
        with self._swap_lock:
            return self._version

    # ------------------------------------------------------------------
    # The steps where the fleet differs
    # ------------------------------------------------------------------
    def _normalize_rows(self, x: np.ndarray) -> np.ndarray:
        """``x`` as a contiguous float64 ``(n, n_features)`` slab block."""
        rows = np.ascontiguousarray(
            super()._normalize_rows(x), dtype=np.float64
        )
        if len(rows) and rows.shape[1:] != (self.n_features,):
            raise ValueError(
                f"expected a ({self.n_features},) row, got {rows.shape[1:]}"
            )
        return rows

    def _normalize_row(self, row: np.ndarray) -> np.ndarray:
        """One sample as a one-row slab block."""
        return self._normalize_rows(super()._normalize_row(row))

    def _resolve(self) -> Tuple[str, Any]:
        """Hot-swap the fleet if the registry moved on, then answer with
        the parent's snapshot of the serving version."""
        registry = self._registry
        if registry is not None:
            target = registry.active_version(self._name or "")
            if target is not None and target != self.version:
                self.hot_swap(target)
        with self._swap_lock:
            return self._version, self._fallback

    def _supports(self, model: Any, method: str) -> bool:
        """Only methods that answered the startup probe fit the slabs."""
        return method in self._out_widths

    def _route(
        self, span: Any, method: str, rows: np.ndarray, misses: List[int]
    ) -> Collection[Tuple[int, List[int]]]:
        """Bucket the misses by ring shard, skipping dead or breaker-open
        shards."""
        routable = [
            alive and breaker.state != "open"
            for alive, breaker in zip(
                self.supervisor.alive_mask(), self._breakers
            )
        ]
        buckets: Dict[int, List[int]] = defaultdict(list)
        for index in misses:
            key = routing_key(method, rows[index].tobytes())
            buckets[self.ring.route(key, alive=routable)].append(index)
        if len(buckets) == 1:
            span.set_attribute("shard", next(iter(buckets)))
        return buckets.items()

    def _rescuable(self, error: BaseException) -> bool:
        """A batch stranded by a dead, failing or tripped shard."""
        return isinstance(error, (ShardDead, ShardWorkerError, BreakerOpen))

    def _rescue(
        self, error: BaseException, request: ServeRequest, model: Any
    ) -> List[Any]:
        """Respawn a shard its batch found dead, then rescue the block:
        here the thread holds no shard channel a respawn could wait on."""
        if isinstance(error, ShardDead):
            self.supervisor.respawn(error.shard_id)
        return super()._rescue(error, request, model)

    def hot_swap(self, version: Optional[str] = None) -> str:
        """Atomically move the whole fleet (and the fallback) to ``version``.

        ``None`` means the registry's currently active version.  Returns
        the version actually installed.  A no-op when the fleet is
        already there, so concurrent callers race harmlessly.
        """
        registry = self._registry
        if registry is None:
            raise RuntimeError("hot_swap requires a registry-backed server")
        with self._swap_lock:
            target = version or registry.active_version(self._name or "")
            if target is None:
                raise KeyError(
                    f"model {self._name!r} has no active version"
                )
            if target == self._version:
                return self._version
            model = registry.load(self._name or "", target)
            self.supervisor.broadcast_swap(target, model)
            self._fallback = model
            self._version = target
        add_event("sharded_hot_swap", version=target,
                  shards=self.n_shards)
        return target

    def _shard_dispatch(
        self,
        shard_id: int,
        method: str,
        rows: np.ndarray,
        blocks: Sequence[ServeRequest],
    ) -> Callable[[], List[Any]]:
        """Send one coalesced batch to shard ``shard_id``'s worker;
        returns the finish that receives its reply.

        The leading thread may send other shards their batches before
        it finishes this one.  The shard's breaker gates the send and
        records the reply.  A dead worker raises
        :class:`~repro.serve.sharding.shm.ShardDead`, and the batcher
        delivers the error to every waiting block — which ``_rescue``
        respawns the shard for and answers row by row inline.  The
        results are cached under the version the worker scored with.
        """
        breaker = self._breakers[shard_id]
        if not breaker.allow():
            raise BreakerOpen(breaker.name, breaker.retry_after())
        channel = self.supervisor.handles[shard_id].channel
        traced = blocks[0].context is not None
        span: Any = (
            self._start_span(
                "serve/shard_dispatch", method=method,
                batch_size=len(rows), shard=shard_id,
            )
            if traced
            else contextlib.nullcontext()
        )
        sent = self.metrics.clock()
        failed: Optional[Exception] = None
        try:
            channel.send(method, np.ascontiguousarray(rows, dtype=np.float64))
        except Exception as exc:  # raised by the finish, inside the span
            failed = exc

        def finish() -> List[Any]:
            shard = f"serve/shard/{shard_id}"
            with span:
                try:
                    if failed is not None:
                        raise failed
                    result = channel.receive(DISPATCH_TIMEOUT)
                except Exception as exc:
                    breaker.record(False)
                    if isinstance(exc, ShardDead):
                        add_event("shard_dead", shard=shard_id)
                        self.metrics.counter(f"{shard}/deaths_total").inc()
                    raise
                breaker.record(True)
                elapsed = self.metrics.clock() - sent
                self.metrics.timer("serve/dispatch_seconds").add(elapsed)
                self.metrics.timer(f"{shard}/dispatch_seconds").add(elapsed)
                if traced:
                    span.record_child(
                        "serve/worker_score", result.worker_seconds,
                        attributes={"shard": shard_id},
                    )
            self.metrics.counter(f"{shard}/batches_total").inc()
            self.metrics.counter(f"{shard}/requests_total").inc(len(rows))
            values = [result.row_value(i) for i in range(len(rows))]
            return self._batch_done(method, result.version, values, blocks)

        return finish

    def _gauge_depth(self) -> None:
        depth = 0
        for shard_id, batcher in enumerate(self._batchers):
            shard_depth = batcher.depth()
            self.metrics.gauge(
                f"serve/shard/{shard_id}/queue_depth"
            ).set(shard_depth)
            depth += shard_depth
        self.metrics.gauge("serve/queue_depth").set(depth)

    # ------------------------------------------------------------------
    # Lifecycle / introspection: the fleet's share
    # ------------------------------------------------------------------
    def close(self, drain: bool = True) -> None:
        """Drain (or fail) queued requests, then stop the fleet."""
        super().close(drain=drain)
        self.supervisor.close()

    def _breaker_states(self) -> Dict[str, str]:
        """The policy's breakers plus one per shard (``shard<i>``)."""
        states = super()._breaker_states()
        for breaker in self._breakers:
            states[breaker.name] = breaker.state
        return states

    def _shard_statuses(self, version: Optional[str]) -> List[Dict[str, Any]]:
        """The supervisor's per-worker view plus queue and breaker state.

        A dead worker, open breaker or mid-respawn shard makes
        :meth:`health` report ``"degraded"`` (requests still succeed via
        re-routing and the inline fallback) — a half-dead fleet is never
        mistaken for a healthy one.
        """
        statuses = self.supervisor.statuses()
        for status, batcher, breaker in zip(
            statuses, self._batchers, self._breakers
        ):
            status["queue_depth"] = batcher.depth()
            status["breaker"] = breaker.state
        return statuses

    def stats(self) -> Dict[str, Any]:
        """Derived serving stats, plus respawns and the per-shard split."""
        stats = super().stats()
        counters = stats["metrics"]["counters"]
        stats["respawns"] = sum(
            handle.respawns for handle in self.supervisor.handles
        )
        stats["shard_requests"] = {
            str(i): counters.get(f"serve/shard/{i}/requests_total", 0.0)
            for i in range(self.n_shards)
        }
        return stats
