"""Sharded model server: the ``ModelServer`` API over a process fleet.

:class:`ShardedModelServer` keeps the single-process server's request
lifecycle — normalize, resolve version, consult the LRU cache,
micro-batch, degrade instead of fail — but scores batches on N worker
*processes* instead of GIL-bound threads:

- **routing** — every request's content key (method + row bytes) lands
  on a shard via a seeded consistent-hash ring, so identical rows
  always reach the same worker and changing the fleet size moves only
  ~1/N of the keyspace;
- **batching** — each shard has its own parent-side
  :class:`~repro.serve.batching.MicroBatcher` (one dispatcher thread),
  so coalescing semantics, cancellation and drain are exactly the
  machinery the single-process path already proved out;
- **dispatch** — a coalesced batch travels to its worker through a
  shared-memory slab (no per-request pickling) and the results fan
  back from the response slab, with worker-side timing recorded as a
  child span of the dispatch;
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
aggregate ones, and :meth:`ShardedModelServer.health` reports the
per-shard status list that makes a half-dead fleet distinguishable
from a healthy one.
"""

from __future__ import annotations

import contextlib
import contextvars
import threading
from collections import defaultdict
from types import TracebackType
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from ... import rng as repro_rng
from ...telemetry import trace as tracing
from ...telemetry.metrics import MetricsRegistry
from ...telemetry.trace import Tracer, add_event
from ..batching import MicroBatcher, ServeRequest, ServerClosed
from ..cache import PredictionCache
from ..registry import ModelRegistry
from ..resilience import BreakerOpen, CircuitBreaker, ResiliencePolicy
from .hashing import ConsistentHashRing, routing_key
from .shm import ShardDead, ShardWorkerError
from .supervisor import ShardSupervisor

__all__ = ["ShardedModelServer"]

_PROBE_METHODS = ("predict", "predict_proba", "decision_function")


class ShardedModelServer:
    """Serve ``predict``-family queries across a sharded process fleet.

    Parameters
    ----------
    model, registry, name:
        Exactly one of ``model=`` (fixed snapshot) or ``registry=`` +
        ``name=`` (live, hot-swappable) — same contract as
        :class:`~repro.serve.server.ModelServer`.
    n_shards:
        Worker process count.
    n_features:
        Row width; defaults to ``model.n_features`` when the model
        self-describes.
    max_batch_size, batch_timeout, max_queue:
        Per-shard micro-batching knobs.
    cache_size:
        Shared parent-side LRU capacity (hits never touch a worker).
    resilience:
        Optional policy whose ``retry`` wraps the parent-side rescue
        path; per-shard breakers are always created regardless.
    dispatch_timeout:
        Seconds a dispatch waits on a *live but silent* worker before
        declaring the shard dead (a killed worker is detected within
        one liveness poll, independent of this).
    mp_context:
        Start method for workers (``"fork"`` supports unpicklable
        models; workers are forked before any serving thread starts).
    seed:
        Seeds the consistent-hash ring layout.
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
        dispatch_timeout: float = 30.0,
        monitor_interval: float = 0.05,
        ring_replicas: int = 64,
        seed: int = repro_rng.REPRO_DEFAULT_SEED,
        mp_context: str = "fork",
    ) -> None:
        if (model is None) == (registry is None):
            raise ValueError("pass exactly one of model= or registry=")
        if registry is not None and not name:
            raise ValueError("serving from a registry requires name=")
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self._registry = registry
        self._name = name
        self.metrics = metrics or MetricsRegistry()
        self.tracer = tracer
        self.resilience = resilience
        if self.resilience is not None:
            self.resilience.bind_metrics(self.metrics)
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
        out_width = max(self._out_widths.values())
        integrity = (
            self.resilience.cache_integrity
            if self.resilience is not None else False
        )
        self.cache = PredictionCache(cache_size, integrity=integrity)
        self.ring = ConsistentHashRing(
            n_shards, replicas=ring_replicas, seed=seed
        )
        self.dispatch_timeout = float(dispatch_timeout)
        self._closed = False
        self._close_lock = threading.Lock()
        self._swap_lock = threading.Lock()
        # Workers fork *here*, before any thread below exists.
        self.supervisor = ShardSupervisor(
            snapshot,
            n_shards=n_shards,
            slots=max_batch_size,
            n_features=self.n_features,
            out_width=out_width,
            version=version,
            metrics=self.metrics,
            monitor_interval=monitor_interval,
            mp_context=mp_context,
        )
        self._breakers = [
            CircuitBreaker(
                name=f"shard{i}",
                window=16,
                failure_threshold=0.5,
                min_calls=4,
                reset_timeout=0.25,
                half_open_probes=1,
                metrics=self.metrics,
            )
            for i in range(n_shards)
        ]
        self._batchers = [
            MicroBatcher(
                self._make_dispatch(i),
                max_batch_size=max_batch_size,
                batch_timeout=batch_timeout,
                max_queue=max_queue,
                workers=1,
            )
            for i in range(n_shards)
        ]
        self.supervisor.start()

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

    @property
    def registry(self) -> Optional[ModelRegistry]:
        """The backing registry, if serving live models (else ``None``)."""
        return self._registry

    @property
    def n_shards(self) -> int:
        """Size of the worker fleet."""
        return self.supervisor.n_shards

    @property
    def version(self) -> str:
        """Version label requests are currently served under."""
        with self._swap_lock:
            return self._version

    def _fallback_type_name(self) -> str:
        """Type name of the inline-fallback model (hot-swap safe read)."""
        with self._swap_lock:
            return type(self._fallback).__name__

    # ------------------------------------------------------------------
    # Public request API
    # ------------------------------------------------------------------
    def predict(self, row: np.ndarray, deadline: Optional[float] = None) -> Any:
        """Hard label for one sample (blocking)."""
        return self.request("predict", row, deadline=deadline)

    def predict_proba(
        self, row: np.ndarray, deadline: Optional[float] = None
    ) -> Any:
        """Probability output for one sample (blocking)."""
        return self.request("predict_proba", row, deadline=deadline)

    def decision_function(
        self, row: np.ndarray, deadline: Optional[float] = None
    ) -> Any:
        """Raw score for one sample (blocking)."""
        return self.request("decision_function", row, deadline=deadline)

    def request(
        self, method: str, row: np.ndarray, deadline: Optional[float] = None
    ) -> Any:
        """Score one sample via ``method`` on its ring-assigned shard.

        Degradations mirror the single-process server: a full shard
        queue sheds to the parent's inline path, an expired deadline
        cancels and answers inline, and a batch stranded by a worker
        death is rescued inline — the caller always gets an answer.
        """
        start = self.metrics.clock()
        if self.closed:
            raise ServerClosed()
        with self._start_span("serve/request", method=method) as span:
            block = self._normalize_row(row)
            return self._serve(span, method, block, start, deadline)[0]

    def predict_many(
        self, x: np.ndarray, method: str = "predict"
    ) -> List[Any]:
        """Score every row of ``x`` across the fleet, in row order.

        Rows are keyed and looked up in one pass, partitioned by ring
        assignment, and each shard's bucket is queued as blocks of at
        most ``max_batch_size`` rows.  Blocks a full shard queue rejects
        are shed to the inline path, blocks stranded by a worker death
        are rescued inline — every row is answered.
        """
        start = self.metrics.clock()
        if self.closed:
            raise ServerClosed()
        with self._start_span(
            "serve/predict_many", method=method, rows=len(x)
        ) as span:
            return self._serve(span, method, self._normalize_rows(x), start)

    def _serve(
        self,
        span: Any,
        method: str,
        rows: np.ndarray,
        start: float,
        deadline: Optional[float] = None,
    ) -> List[Any]:
        """Answer an ``(n, n_features)`` block; the request lifecycle.

        As :meth:`repro.serve.server.ModelServer._serve`, with the cache
        misses bucketed by ring shard before they are cut into blocks.
        Counters move once per call, in rows.
        """
        if method not in self._out_widths:
            raise ValueError(
                f"model {self._fallback_type_name()} does not "
                f"support {method!r}"
            )
        self._current_version()  # hot-swaps the fleet if the registry moved
        with self._swap_lock:
            version, fallback = self._version, self._fallback
        span.set_attribute("version", version)
        clock = self.metrics.clock
        n = len(rows)
        self.metrics.counter("serve/requests_total").inc(n)
        results: List[Any] = [None] * n
        latencies: List[float] = []
        keys: Optional[List[bytes]] = None
        misses = list(range(n))
        if self.cache.maxsize:
            keys = PredictionCache.make_keys(method, version, rows)
            misses = []
            for index, (hit, value) in enumerate(self.cache.get_many(keys)):
                if hit:
                    results[index] = value
                else:
                    misses.append(index)
            hits = n - len(misses)
            if hits:
                span.event("cache_hit", rows=hits)
                self.metrics.counter("serve/cache_hits_total").inc(hits)
                latencies.extend([clock() - start] * hits)
            if misses:
                span.event("cache_miss", rows=len(misses))
                self.metrics.counter("serve/cache_misses_total").inc(
                    len(misses)
                )

        buckets: Dict[int, List[int]] = defaultdict(list)
        if misses:
            routable = self._routable()
            for index in misses:
                shard = self._route(method, rows[index], routable)
                buckets[shard].append(index)
        if len(buckets) == 1:
            span.set_attribute("shard", next(iter(buckets)))
        shed: List[Tuple[List[int], ServeRequest]] = []
        waiting: List[Tuple[int, List[int], ServeRequest]] = []
        for shard, members in buckets.items():
            batcher = self._batchers[shard]
            size = batcher.max_batch_size
            blocks: List[Tuple[List[int], ServeRequest]] = []
            for lo in range(0, len(members), size):
                index = members[lo:lo + size]
                blocks.append((index, ServeRequest(
                    method, rows[index], enqueued_at=start,
                    context=self._capture_context(),
                )))
            accepted = batcher.submit_many(
                [request for _index, request in blocks]
            )
            if accepted < len(blocks):
                shed_rows = sum(len(index) for index, _r in blocks[accepted:])
                span.event(
                    "shed", reason="queue_full", shard=shard, rows=shed_rows,
                )
                self.metrics.counter("serve/shed_total").inc(shed_rows)
                shed.extend(blocks[accepted:])
            waiting.extend(
                (shard, index, request) for index, request in blocks[:accepted]
            )
        if buckets:
            self._gauge_depth()

        def block_keys(index: List[int]) -> Optional[List[bytes]]:
            return None if keys is None else [keys[i] for i in index]

        def answer(index: List[int], values: Sequence[Any]) -> None:
            for i, value in zip(index, values):
                results[i] = value
            latencies.extend([clock() - start] * len(index))

        try:
            for index, request in shed:
                answer(index, self._predict_inline(
                    method, request.rows, fallback, block_keys(index)
                ))
            for shard, index, request in waiting:
                if (
                    not request.event.wait(timeout=deadline)
                    and self._batchers[shard].cancel(request)
                ):
                    span.event(
                        "deadline_expired", shard=shard, rows=len(index)
                    )
                    self.metrics.counter(
                        "serve/deadline_expired_total"
                    ).inc(len(index))
                    answer(index, self._predict_inline(
                        method, request.rows, fallback, block_keys(index)
                    ))
                    continue
                request.event.wait()
                if request.error is None:
                    answer(index, request.result)
                    continue
                try:
                    values = self._rescue(
                        request.error, request, fallback, block_keys(index)
                    )
                except BaseException:
                    answer(index, ())
                    raise
                answer(index, values)
        finally:
            self.metrics.histogram("serve/latency_seconds").observe_many(
                latencies
            )
        return results

    # ------------------------------------------------------------------
    # Routing / version management
    # ------------------------------------------------------------------
    def _routable(self) -> List[bool]:
        """Per-shard mask of shards a request may route to right now."""
        alive = self.supervisor.alive_mask()
        return [
            alive[i] and self._breakers[i].state != "open"
            for i in range(len(alive))
        ]

    def _route(
        self, method: str, row: np.ndarray, routable: List[bool]
    ) -> int:
        """Ring-route one row, skipping dead or breaker-open shards."""
        return self.ring.route(
            routing_key(method, row.tobytes()), alive=routable
        )

    def _current_version(self) -> str:
        """Serving version; triggers hot-swap when the registry moved on."""
        registry = self._registry
        if registry is None:
            return self.version
        manifest_version = registry.active_version(self._name or "")
        current = self.version
        if manifest_version is not None and manifest_version != current:
            return self.hot_swap(manifest_version)
        return current

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

    # ------------------------------------------------------------------
    # Dispatch internals
    # ------------------------------------------------------------------
    def _make_dispatch(self, shard_id: int) -> Any:
        """Bind ``shard_id`` into a MicroBatcher dispatch callable."""
        def dispatch(method: str, rows: np.ndarray) -> List[Any]:
            return self._shard_dispatch(shard_id, method, rows)
        return dispatch

    def _shard_dispatch(
        self, shard_id: int, method: str, rows: np.ndarray
    ) -> List[Any]:
        """Score one coalesced batch on shard ``shard_id``'s worker.

        Runs on that shard's dispatcher thread.  A dead worker raises
        :class:`~repro.serve.sharding.shm.ShardDead` through the
        breaker (tripping it), triggers an eager respawn, and the
        batcher delivers the error to every waiting block — which
        ``_rescue`` answers row by row inline.
        """
        traced = tracing.current_span() is not None
        with (
            self._start_span(
                "serve/shard_dispatch", method=method,
                batch_size=len(rows), shard=shard_id,
            )
            if traced
            else contextlib.nullcontext()
        ) as span:
            handle = self.supervisor.handles[shard_id]
            batch = np.ascontiguousarray(rows, dtype=np.float64)
            try:
                with self.metrics.timer("serve/dispatch_seconds"):
                    with self.metrics.timer(
                        f"serve/shard/{shard_id}/dispatch_seconds"
                    ):
                        result = self._breakers[shard_id].call(
                            handle.channel.score, method, batch,
                            self.dispatch_timeout,
                        )
            except ShardDead:
                add_event("shard_dead", shard=shard_id)
                self.metrics.counter(
                    f"serve/shard/{shard_id}/deaths_total"
                ).inc()
                self.supervisor.respawn(shard_id)
                raise
            if span is not None and traced:
                span.record_child(
                    "serve/worker_score", result.worker_seconds,
                    attributes={"shard": shard_id},
                )
        self.metrics.counter("serve/batches_total").inc()
        self.metrics.counter(
            f"serve/shard/{shard_id}/batches_total"
        ).inc()
        self.metrics.counter(
            f"serve/shard/{shard_id}/requests_total"
        ).inc(float(len(rows)))
        self.metrics.histogram("serve/batch_size").observe(len(rows))
        self._gauge_depth()
        values = [result.row_value(i) for i in range(len(rows))]
        if self.cache.maxsize:
            # Keyed under the version the worker scored with.
            self._cache_put_many(
                PredictionCache.make_keys(method, result.version, batch),
                values,
            )
        return values

    def _cache_put_many(self, keys: List[bytes], values: List[Any]) -> None:
        """Store results; a cache failure only costs the memoization."""
        try:
            self.cache.put_many(keys, values)
        except Exception:
            self.metrics.counter("resilience/cache_errors_total").inc()

    def _predict_inline(
        self,
        method: str,
        rows: np.ndarray,
        model: Any,
        keys: Optional[List[bytes]],
    ) -> List[Any]:
        """Parent-side row-by-row path: shed, expired and rescued blocks.

        Scores on the parent's own snapshot of the caller's version —
        the guarantee that no request is ever dropped, even with the
        whole fleet dead mid-respawn.
        """
        with self._start_span(
            "serve/inline_predict", method=method, rows=len(rows)
        ):
            bound = getattr(model, method)
            policy = self.resilience
            values = []
            for row in rows:
                if policy is not None:
                    out = policy.retry.call(bound, row[np.newaxis, ...])
                else:
                    out = bound(row[np.newaxis, ...])
                values.append(np.asarray(out)[0])
        if keys is not None:
            self._cache_put_many(keys, values)
        return values

    def _rescue(
        self,
        error: BaseException,
        request: ServeRequest,
        model: Any,
        keys: Optional[List[bytes]],
    ) -> List[Any]:
        """Answer a block whose shard died mid-batch, or re-raise ``error``."""
        if not isinstance(error, (ShardDead, ShardWorkerError, BreakerOpen)):
            raise error
        add_event("row_rescue", error=type(error).__name__, rows=len(request))
        self.metrics.counter("serve/rescued_total").inc(len(request))
        return self._predict_inline(request.method, request.rows, model, keys)

    # ------------------------------------------------------------------
    # Shared helpers (parity with ModelServer)
    # ------------------------------------------------------------------
    def _start_span(self, name: str, **attributes: Any) -> Any:
        """Span on this server's tracer or the ambient one (else inert)."""
        return tracing.start_span(
            name, attributes=attributes or None, tracer=self.tracer
        )

    def _capture_context(self) -> Optional[contextvars.Context]:
        """Submit-time context snapshot, only when the span is sampled."""
        active = tracing.current_span()
        if active is not None and active.sampled:
            return contextvars.copy_context()
        return None

    def _normalize_row(self, row: np.ndarray) -> np.ndarray:
        """One sample as a one-row block (a length-1 batch axis squeezed)."""
        row = np.asarray(row)
        if row.ndim >= 2 and row.shape[0] == 1:
            row = row[0]
        return self._normalize_rows(row[np.newaxis, ...])

    def _normalize_rows(self, x: np.ndarray) -> np.ndarray:
        """``x`` as a contiguous float64 ``(n, n_features)`` slab block."""
        rows = np.asarray(x)
        if rows.ndim >= 3 and rows.shape[1] == 1:
            rows = rows[:, 0]
        rows = np.ascontiguousarray(rows, dtype=np.float64)
        if len(rows) and rows.shape[1:] != (self.n_features,):
            raise ValueError(
                f"expected a ({self.n_features},) row, got {rows.shape[1:]}"
            )
        return rows

    def _gauge_depth(self) -> None:
        depth = sum(batcher.depth() for batcher in self._batchers)
        self.metrics.gauge("serve/queue_depth").set(depth)
        for shard_id, batcher in enumerate(self._batchers):
            self.metrics.gauge(
                f"serve/shard/{shard_id}/queue_depth"
            ).set(batcher.depth())

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------
    def close(self, drain: bool = True) -> None:
        """Drain (or fail) queued requests, then stop the fleet."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        for batcher in self._batchers:
            batcher.close(drain=drain)
        self.supervisor.close()

    def __enter__(self) -> "ShardedModelServer":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has begun; closed servers reject requests."""
        with self._close_lock:
            return self._closed

    def health(self) -> Dict[str, Any]:
        """Operator probe with the per-shard status list.

        ``status`` is ``"ok"`` only when every shard is alive with a
        closed breaker; any dead worker, open breaker or mid-respawn
        shard reports ``"degraded"`` (requests still succeed via
        re-routing and the inline fallback) — a half-dead fleet is
        never mistaken for a healthy one.  Each ``shards`` entry
        carries ``alive``, ``queue_depth``, ``active_version``,
        ``respawns`` and the shard's breaker state.
        """
        statuses = self.supervisor.statuses()
        for status in statuses:
            shard_id = int(status["shard"])
            status["queue_depth"] = self._batchers[shard_id].depth()
            status["breaker"] = self._breakers[shard_id].state
        alive = sum(1 for status in statuses if status["alive"])
        breakers = {
            f"shard{i}": breaker.state
            for i, breaker in enumerate(self._breakers)
        }
        depth = sum(int(status["queue_depth"]) for status in statuses)
        capacity = sum(batcher.max_queue for batcher in self._batchers)
        closed_now = self.closed
        if closed_now:
            overall = "closed"
        elif alive == len(statuses) and all(
            state == "closed" for state in breakers.values()
        ):
            overall = "ok"
        else:
            overall = "degraded"
        return {
            "status": overall,
            "closed": closed_now,
            "n_shards": self.n_shards,
            "alive_shards": alive,
            "queue_depth": depth,
            "queue_capacity": capacity,
            "queue_saturation": depth / capacity if capacity else 0.0,
            "cache": self.cache.stats(),
            "breakers": breakers,
            "active_model": {
                "name": self._name or self._fallback_type_name(),
                "version": self.version,
                "stale": False,
            },
            "shards": statuses,
        }

    def ready(self) -> bool:
        """Readiness: open for requests with an answerable model.

        True while the server is open — even a fully dead fleet still
        answers via the parent fallback — so readiness only gates
        shutdown, while :meth:`health` grades degradation.
        """
        return not self.closed

    def stats(self) -> Dict[str, Any]:
        """Derived serving stats, including the per-shard request split."""
        snapshot = self.metrics.snapshot()
        counters = snapshot["counters"]
        batch_hist = self.metrics.histogram("serve/batch_size")
        latency_hist = self.metrics.histogram("serve/latency_seconds")
        per_shard = {
            str(i): counters.get(f"serve/shard/{i}/requests_total", 0.0)
            for i in range(self.n_shards)
        }
        stats: Dict[str, Any] = {
            "requests": counters.get("serve/requests_total", 0.0),
            "batches": counters.get("serve/batches_total", 0.0),
            "shed": counters.get("serve/shed_total", 0.0),
            "deadline_expired": counters.get(
                "serve/deadline_expired_total", 0.0
            ),
            "rescued": counters.get("serve/rescued_total", 0.0),
            "respawns": sum(
                handle.respawns for handle in self.supervisor.handles
            ),
            "shard_requests": per_shard,
            "cache_hit_rate": self.cache.hit_rate,
            "mean_batch_size": (
                batch_hist.mean if batch_hist.count else 0.0
            ),
            "metrics": snapshot,
        }
        if latency_hist.count:
            stats["latency_p50_ms"] = latency_hist.quantile(0.5) * 1e3
            stats["latency_p99_ms"] = latency_hist.quantile(0.99) * 1e3
        return stats

    def __repr__(self) -> str:
        target = (
            f"registry:{self._name}" if self._registry is not None
            else self._fallback_type_name()
        )
        return (
            f"ShardedModelServer({target}, shards={self.n_shards}, "
            f"version={self.version!r}, closed={self.closed})"
        )
