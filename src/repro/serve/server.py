"""Model server: the request lifecycle of both serving tiers.

:class:`ModelServer` is the front door of ``repro.serve``.  Per call —
one row through :meth:`~ModelServer.request`, or a block of rows through
:meth:`~ModelServer.predict_many` — it:

1. resolves the model — either a fixed instance or, through a
   :class:`~repro.serve.registry.ModelRegistry`, whatever version is
   currently active (hot-swaps take effect between batches);
2. keys every row in one pass and consults the LRU
   :class:`~repro.serve.cache.PredictionCache` under one lock (keyed on
   method x version x row bytes);
3. routes the misses to a :class:`~repro.serve.batching.MicroBatcher`
   as blocks of at most ``max_batch_size`` rows, each carrying the
   ``(version, keys)`` it was looked up under so its dispatch files the
   results without hashing the rows again.  A **lone block** — a call
   whose misses are one block for one batcher: a single row, a partial
   or a full block — leads its own batch on the caller's thread while
   a dispatch slot is free and no batch is filling, and blocks that
   arrive during its fill wait join it.  Otherwise the blocks queue and
   the caller waits on them, leading the queue's head whenever a slot
   frees (on several batchers, it first leads a head batch on each,
   round after round);
4. degrades gracefully instead of failing: a **full queue** sheds a
   block to inline single-row model calls (``serve/shed_total``), and
   an expired **deadline** cancels the queued block and answers it the
   same way (``serve/deadline_expired_total``) — callers always get an
   answer, memory stays bounded.

Counters and histograms count rows, not blocks, and move once per call.

The server holds a list of batchers: one in-process, whose leaders
score on this process's model.
:class:`~repro.serve.sharding.server.ShardedModelServer` subclasses it
with one batcher per worker process and overrides only the steps where
its fleet differs — version resolution, the method check, row
normalization, routing, dispatch, which batch errors are rescued and
the fleet's share of the probes — so this lifecycle is written once for
both tiers.

With a :class:`~repro.serve.resilience.ResiliencePolicy` attached the
unhappy paths get the same treatment: model and registry calls are
retried with jittered backoff, registry resolution sits behind a
circuit breaker whose open state degrades to the last-known-good model
snapshot (``resilience/stale_model_served_total``), a failed coalesced
batch is rescued row-by-row on the callers' threads
(``serve/rescued_total``), and cache entries carry integrity checksums
so a poisoned entry costs one recompute instead of a wrong answer.
:meth:`ModelServer.health` exposes the whole picture — queue depth,
breaker states, cache hit rate, active version, shards — as the
operator probe documented in ``docs/RUNBOOK.md``; the probes read the
registry outside the breaker and the retry, so probing moves no
resilience counter.

Every step is instrumented on a
:class:`~repro.telemetry.metrics.MetricsRegistry`: request/batch/shed
counters, cache hit/miss counters, a queue-depth gauge and latency /
batch-size histograms, so a serving process exposes the same snapshot
machinery as the training loop.

**Numerical note.**  Coalescing changes the BLAS call shapes: a row
scored inside a ``(32, d)`` batch can differ from the same row scored
alone by a few ulps (reduction-order effects), so *probabilities* are
equal only to ~1e-12 while the hard *predictions* (thresholded /
argmaxed labels) are bit-identical — which is what the equivalence
tests and the throughput benchmark assert.
"""

from __future__ import annotations

import contextlib
import contextvars
import threading
from types import TracebackType
from typing import (
    Any, Callable, Collection, Dict, List, Optional, Sequence, Tuple, Type,
)

import numpy as np

from ..telemetry import trace as tracing
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.trace import Tracer, add_event
from .batching import DispatchFn, MicroBatcher, ServeRequest, ServerClosed
from .cache import PredictionCache
from .registry import ActiveModel, ModelRegistry
from .resilience import BreakerOpen, FaultInjector, ResiliencePolicy

__all__ = ["ModelServer"]

# (shard, row indices, queued block) — one block of a call's misses.
_Block = Tuple[int, List[int], ServeRequest]


class ModelServer:
    """Serve ``predict``-family queries, by row or by block, micro-batched.

    Parameters
    ----------
    model:
        A fixed model instance to serve, or ``None`` when serving from a
        registry.
    registry, name:
        Serve ``registry.active(name)``; the active version is resolved
        per batch, so :meth:`ModelRegistry.activate` hot-swaps a running
        server without restarts.
    max_batch_size, batch_timeout, max_queue, workers:
        Micro-batching knobs (see
        :class:`~repro.serve.batching.MicroBatcher`).
    cache_size:
        LRU prediction-cache capacity in rows (0 disables caching).
    metrics:
        Shared registry for instruments; a private one is created by
        default.
    resilience:
        A :class:`~repro.serve.resilience.ResiliencePolicy` giving every
        external-facing call site its retry / breaker / degrade
        decision.  ``None`` keeps the PR-3 happy-path behaviour, except
        that attaching a ``fault_injector`` implies
        ``ResiliencePolicy.default()`` — chaos without resilience would
        just be a broken server.
    fault_injector:
        Optional :class:`~repro.serve.resilience.FaultInjector` whose
        ``"model"`` / ``"registry"`` / ``"cache"`` sites wrap the
        corresponding calls (the ``--chaos`` harness).
    tracer:
        Optional :class:`~repro.telemetry.trace.Tracer`.  When set (or
        when an ambient tracer is installed via
        :func:`~repro.telemetry.trace.use_tracer`) every request gets a
        ``serve/request`` root span, a dispatch gets a child span of
        the request that heads its batch, on whichever thread leads it,
        and the resilience layer's retries / breaker transitions /
        fallbacks land on the request span as events.
        ``None`` with no ambient tracer keeps the request path
        trace-free (cost: one context-variable read per request).
    """

    def __init__(
        self,
        model: Any = None,
        registry: Optional[ModelRegistry] = None,
        name: Optional[str] = None,
        max_batch_size: int = 32,
        batch_timeout: float = 0.002,
        max_queue: int = 256,
        workers: int = 2,
        cache_size: int = 1024,
        metrics: Optional[MetricsRegistry] = None,
        resilience: Optional[ResiliencePolicy] = None,
        fault_injector: Optional[FaultInjector] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self._check_target(model, registry, name)
        self._model = model
        self._registry = registry
        self._name = name
        self.metrics = metrics or MetricsRegistry()
        self.tracer = tracer
        if resilience is None and fault_injector is not None:
            resilience = ResiliencePolicy.default()
        self.resilience = resilience
        self.fault_injector = fault_injector
        if self.resilience is not None:
            self.resilience.bind_metrics(self.metrics)
        if self.fault_injector is not None:
            self.fault_injector.bind_metrics(self.metrics)
        integrity = (
            self.resilience.cache_integrity
            if self.resilience is not None
            else False
        )
        self.cache = PredictionCache(cache_size, integrity=integrity)
        self._last_good: Optional[ActiveModel] = None
        self._closed = False
        self._close_lock = threading.Lock()
        self._dispatches = self._dispatchers()
        self._batchers = [
            MicroBatcher(
                dispatch,
                max_batch_size=max_batch_size,
                batch_timeout=batch_timeout,
                max_queue=max_queue,
                workers=workers,
            )
            for dispatch in self._dispatches
        ]

    @staticmethod
    def _check_target(
        model: Any, registry: Optional[ModelRegistry], name: Optional[str]
    ) -> None:
        """Exactly one of a fixed ``model`` or a ``registry`` + ``name``."""
        if (model is None) == (registry is None):
            raise ValueError("pass exactly one of model= or registry=")
        if registry is not None and not name:
            raise ValueError("serving from a registry requires name=")

    def _dispatchers(self) -> List[DispatchFn]:
        """One :data:`~repro.serve.batching.DispatchFn` per batcher;
        in-process, the model call."""
        return [self._dispatch]

    @property
    def registry(self) -> Optional[ModelRegistry]:
        """The backing registry, if serving live models (else ``None``).

        Publishing to it hot-swaps what this server answers with.
        """
        return self._registry

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
        """Score one sample via ``method``.

        ``row`` is a single sample *without* the batch axis (a length-1
        leading axis is squeezed away).  ``deadline`` is a per-request
        budget in seconds: a request still queued when it expires is
        cancelled and answered inline instead of erroring.

        Raises
        ------
        ServerClosed
            When the server (or its batcher) has begun shutting down.
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
        """Score every row of ``x``; results come back in row order.

        The rows are keyed and looked up in one pass, and the misses
        queue as blocks of at most ``max_batch_size`` rows, which
        coalesce with concurrent traffic like any other request.
        """
        start = self.metrics.clock()
        if self.closed:
            raise ServerClosed()
        with self._start_span(
            "serve/predict_many", method=method, rows=len(x)
        ) as span:
            return self._serve(span, method, self._normalize_rows(x), start)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _start_span(self, name: str, **attributes: Any) -> Any:
        """Open a span on this server's tracer (or the ambient one).

        Returns the inert null span when neither exists, so every call
        site writes an unconditional ``with self._start_span(...)``.
        """
        return tracing.start_span(
            name, attributes=attributes or None, tracer=self.tracer
        )

    def _capture_context(self) -> Optional[contextvars.Context]:
        """Submit-time context snapshot for cross-thread propagation.

        Only taken when the submitting request's span is **sampled** —
        an unsampled trace records no payload anywhere in its subtree,
        so copying a context that could only ever feed no-ops would put
        a per-request allocation on the 90%-of-traffic path for
        nothing.  This is what keeps tracing at the default 0.1 rate
        inside its ≤5% QPS budget (``benchmarks/bench_trace_overhead``).
        The untraced hot path costs one context-variable read, and a
        block that captured no context is dispatched untraced.
        """
        active = tracing.current_span()
        sampled = active is not None and active.sampled
        return contextvars.copy_context() if sampled else None

    def _normalize_row(self, row: np.ndarray) -> np.ndarray:
        """One sample as a one-row block (a length-1 batch axis squeezed)."""
        row = np.asarray(row)
        if row.ndim >= 2 and row.shape[0] == 1:
            row = row[0]
        return row[np.newaxis, ...]

    def _normalize_rows(self, x: np.ndarray) -> np.ndarray:
        """``x`` as an ``(n, ...)`` block, each row normalized as in
        :meth:`_normalize_row`."""
        rows = np.asarray(x)
        if rows.ndim >= 3 and rows.shape[1] == 1:
            rows = rows[:, 0]
        return rows

    def _load_active(self) -> ActiveModel:
        """One chaos-wrapped registry resolution (the breaker's payload)."""
        registry = self._registry
        if registry is None:  # pragma: no cover - guarded by _resolve
            raise RuntimeError("no registry attached")
        name = self._name or ""
        if self.fault_injector is not None:
            active = self.fault_injector.call("registry", registry.active, name)
        else:
            active = registry.active(name)
        return active

    def _resolve(self) -> Tuple[str, Any]:
        """Current ``(version, model)`` — re-read per batch for hot-swap.

        With a resilience policy, registry resolution is retried with
        backoff *inside* the registry circuit breaker; when the breaker
        is open (or the load still fails after retries) the last-known-
        good snapshot is served instead
        (``resilience/stale_model_served_total``) — an unavailable
        registry degrades to stale-but-correct answers rather than
        errors.  Only when no snapshot exists yet does the failure
        propagate.
        """
        if self._registry is None:
            return "v0", self._model
        policy = self.resilience
        if policy is None:
            active = self._load_active()
            self._last_good = active
            return active.version, active.model
        try:
            active = policy.registry_breaker.call(
                policy.retry.call, self._load_active
            )
        except BreakerOpen:
            stale = self._last_good
            if stale is None:
                raise
            add_event(
                "stale_model_served",
                reason="breaker_open",
                version=stale.version,
            )
            self.metrics.counter(
                "resilience/stale_model_served_total"
            ).inc()
            return stale.version, stale.model
        except Exception as exc:
            stale = self._last_good
            if stale is None:
                raise
            add_event(
                "stale_model_served",
                reason=type(exc).__name__,
                version=stale.version,
            )
            self.metrics.counter(
                "resilience/stale_model_served_total"
            ).inc()
            return stale.version, stale.model
        self._last_good = active
        return active.version, active.model

    def _probe(self) -> Tuple[Optional[str], bool]:
        """``(version, stale)`` a request would be scored by right now.

        The probes' view of :meth:`_resolve`: one registry read through
        its chaos site, but outside the breaker and the retry, so a
        probe moves no retry or stale counter and records no breaker
        call — ``/health`` scrapes cannot open the breaker.  An open
        breaker, or a failed read under a resilience policy, reports the
        last-known-good snapshot (``stale=True``); ``None`` means no
        version resolves.
        """
        if self._registry is None:
            return "v0", False
        policy = self.resilience
        if policy is None or policy.registry_breaker.state != "open":
            try:
                return self._load_active().version, False
            except Exception:
                if policy is None:
                    return None, False
        stale = self._last_good
        if stale is None:
            return None, False
        return stale.version, True

    def _supports(self, model: Any, method: str) -> bool:
        """Whether ``model`` can answer ``method``."""
        return callable(getattr(model, method, None))

    def _route(
        self, span: Any, method: str, rows: np.ndarray, misses: List[int]
    ) -> Collection[Tuple[int, List[int]]]:
        """``(shard, row indices)`` buckets of a call's cache misses.

        In-process every miss goes to the one batcher, shard 0.
        """
        return ((0, misses),)

    def _score(self, model: Any, method: str, batch: np.ndarray) -> Any:
        """One (chaos-wrapped, retried) model call on a stacked batch."""
        bound = getattr(model, method)
        if self.fault_injector is not None:
            if self.resilience is not None:
                return self.resilience.retry.call(
                    self.fault_injector.call, "model", bound, batch
                )
            return self.fault_injector.call("model", bound, batch)
        if self.resilience is not None:
            return self.resilience.retry.call(bound, batch)
        return bound(batch)

    def _serve(
        self,
        span: Any,
        method: str,
        rows: np.ndarray,
        start: float,
        deadline: Optional[float] = None,
    ) -> List[Any]:
        """Answer an ``(n, ...)`` block of rows; the request lifecycle.

        Keys and looks up every row in one pass, buckets the misses per
        batcher (:meth:`_route`) and cuts each bucket into blocks of at
        most ``max_batch_size`` rows, each carrying its lookup
        ``(version, keys)``.  A lone block — the misses are one block
        for one batcher — leads its own batch on this thread when it may
        (:meth:`MicroBatcher.try_dispatch`, bounded by ``deadline``);
        other blocks queue, and this thread waits on each, leading head
        batches as slots free (:meth:`MicroBatcher.wait`; first
        :meth:`MicroBatcher.fan_out` on several batchers).  It degrades
        instead of failing: blocks a full queue rejects, or whose
        ``deadline`` expires while queued, are answered row by row
        inline, and blocks whose batch failed go to :meth:`_rescue`.
        Counters move once per call, in rows; every row gets one latency
        sample, from ``start`` to when its answer was in hand.
        """
        version, model = self._resolve()
        span.set_attribute("version", version)
        if not self._supports(model, method):
            raise ValueError(
                f"model {type(model).__name__} does not support {method!r}"
            )
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

        shed: List[_Block] = []
        waiting: List[_Block] = []
        queued: List[Tuple[MicroBatcher, ServeRequest]] = []
        if misses:
            buckets = self._route(span, method, rows, misses)
            for shard, members in buckets:
                batcher = self._batchers[shard]
                size = batcher.max_batch_size
                blocks: List[_Block] = []
                for lo in range(0, len(members), size):
                    index = members[lo:lo + size]
                    # Per-block context copies: a shared Context object
                    # cannot be entered by two leading threads at once.
                    request = ServeRequest(
                        method,
                        rows[lo:lo + size] if len(members) == n
                        else rows[index],
                        context=self._capture_context(),
                    )
                    if keys is not None:
                        request.keyed = (
                            version,
                            keys[lo:lo + size] if len(members) == n
                            else [keys[i] for i in index],
                        )
                    blocks.append((shard, index, request))
                if (
                    len(blocks) == 1
                    and len(buckets) == 1
                    and batcher.try_dispatch(request, deadline)
                ):
                    waiting += blocks
                    continue
                accepted = batcher.submit_many(
                    [request for _shard, _index, request in blocks]
                )
                if accepted:
                    queued.append((batcher, blocks[accepted - 1][2]))
                waiting += blocks[:accepted]
                rejected = blocks[accepted:]
                if rejected:
                    # Bounded-queue backpressure: serve inline, not grow.
                    shed_rows = sum(len(index) for _s, index, _r in rejected)
                    span.event(
                        "shed", reason="queue_full", shard=shard,
                        rows=shed_rows,
                    )
                    self.metrics.counter("serve/shed_total").inc(shed_rows)
                    shed += rejected
            if queued or shed:
                # A led block never queues; its dispatch sets the gauge.
                self._gauge_depth()

        def answer(index: List[int], values: Sequence[Any]) -> None:
            for i, value in zip(index, values):
                results[i] = value
            latencies.extend([clock() - start] * len(index))

        pending = iter(waiting)
        try:
            if len(queued) > 1:
                # Blocks on several shards: each round sends every shard
                # a head batch before this caller waits on any reply.
                MicroBatcher.fan_out(queued)
            for _shard, index, request in shed:
                answer(index, self._predict_inline(request, model))
            for shard, index, request in pending:
                if not self._batchers[shard].wait(request, deadline):
                    # Deadline expired while queued (the block is
                    # cancelled): degrade to the inline path.
                    span.event(
                        "deadline_expired", shard=shard, rows=len(index)
                    )
                    self.metrics.counter(
                        "serve/deadline_expired_total"
                    ).inc(len(index))
                    answer(index, self._predict_inline(request, model))
                    continue
                if request.error is None:
                    answer(index, request.result)
                    continue
                try:
                    values = self._rescue(request.error, request, model)
                except BaseException:
                    answer(index, ())
                    raise
                answer(index, values)
        finally:
            # No block outlives a call that raised: one still queued is
            # cancelled, so nobody else's deadline waits behind it.
            for shard, _index, request in pending:
                self._batchers[shard].wait(request, 0.0)
            self.metrics.histogram("serve/latency_seconds").observe_many(
                latencies
            )
        return results

    def _dispatch(
        self, method: str, rows: np.ndarray, blocks: Sequence[ServeRequest]
    ) -> Callable[[], List[Any]]:
        """Score a coalesced batch with a single model call.

        Runs on the thread leading the batch, in the head block's
        submit-time context when it captured one, so the dispatch span
        parents to that request's span.  A head that captured none (an
        untraced or unsampled request) is dispatched untraced — a
        parentless dispatch root would be an orphan trace no summary
        could attach to a request.  The finish only hands the results
        over.

        The results are cached under the version resolved *here*, not
        the callers': a hot-swap between lookup and dispatch must never
        file one version's answers under another's keys.
        """
        with (
            self._start_span(
                "serve/dispatch", method=method, batch_size=len(rows)
            )
            if blocks[0].context is not None
            else contextlib.nullcontext()
        ):
            version, model = self._resolve()
            with self.metrics.timer("serve/dispatch_seconds"):
                out = self._score(model, method, rows)
        values = self._batch_done(method, version, list(out), blocks)
        return lambda: values

    def _batch_done(
        self,
        method: str,
        version: str,
        values: List[Any],
        blocks: Sequence[ServeRequest],
    ) -> List[Any]:
        """Count one dispatched batch and cache its rows under ``version``.

        Each block is filed under the keys it was looked up under
        (:attr:`ServeRequest.keyed`) when that lookup used ``version``;
        only a block looked up under another version is keyed again.
        """
        self.metrics.counter("serve/batches_total").inc()
        self.metrics.histogram("serve/batch_size").observe(len(values))
        self._gauge_depth()
        if self.cache.maxsize:
            keys: List[bytes] = []
            for block in blocks:
                if block.keyed is not None and block.keyed[0] == version:
                    keys += block.keyed[1]
                else:
                    keys += PredictionCache.make_keys(
                        method, version, block.rows
                    )
            self._cache_put_many(keys, values)
        return values

    def _cache_put_many(self, keys: List[bytes], values: List[Any]) -> None:
        """Store results, routing through cache chaos and degrading on error.

        Under chaos the ``"cache"`` site may corrupt each stored value;
        the poisoned copies are planted under their *honest* checksums
        (the ``originals`` of :meth:`PredictionCache.put_many`) so the
        next lookup detects the mismatch and recomputes — the
        detectable-corruption drill.  Any cache failure only costs the
        memoization, never the request: errors are counted
        (``resilience/cache_errors_total``) and swallowed.
        """
        try:
            if self.fault_injector is None:
                self.cache.put_many(keys, values)
            else:
                stored = [
                    self.fault_injector.corrupt("cache", value)
                    for value in values
                ]
                self.cache.put_many(keys, stored, originals=values)
        except Exception:
            self.metrics.counter("resilience/cache_errors_total").inc()

    def _predict_inline(self, request: ServeRequest, model: Any) -> List[Any]:
        """Row-by-row sync path for shed, expired and rescued blocks.

        Scores on the caller's thread with the model the caller
        resolved — on the sharded tier, the parent's own snapshot, which
        is why no request is dropped even with the whole fleet dead
        mid-respawn — and caches under the block's lookup keys, which
        are that model's.
        """
        method = request.method
        with self._start_span(
            "serve/inline_predict", method=method, rows=len(request)
        ):
            values = [
                self._score(model, method, row[np.newaxis, ...])[0]
                for row in request.rows
            ]
        if request.keyed is not None:
            self._cache_put_many(request.keyed[1], values)
        return values

    def _rescuable(self, error: BaseException) -> bool:
        """Whether a block whose batch failed with ``error`` is re-scored.

        In-process the policy's ``rescue_batch_errors`` decides;
        :class:`ServerClosed` is never rescued — shutdown is not a fault.
        """
        policy = self.resilience
        return (
            policy is not None
            and policy.rescue_batch_errors
            and not isinstance(error, ServerClosed)
        )

    def _rescue(
        self, error: BaseException, request: ServeRequest, model: Any
    ) -> List[Any]:
        """Answer a block whose batch failed with ``error``, or re-raise it.

        A block whose coalesced batch failed even after the dispatch
        retries is, when :meth:`_rescuable`, re-scored row by row on the
        caller's thread (``serve/rescued_total``) — one poisoned row can
        fail a batch, but it should not fail its 31 neighbours.
        """
        if not self._rescuable(error):
            raise error
        add_event("row_rescue", error=type(error).__name__, rows=len(request))
        self.metrics.counter("serve/rescued_total").inc(len(request))
        return self._predict_inline(request, model)

    def _gauge_depth(self) -> None:
        depth = 0
        for batcher in self._batchers:
            depth += batcher.depth()
        self.metrics.gauge("serve/queue_depth").set(depth)

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------
    def close(self, drain: bool = True) -> None:
        """Stop accepting requests (idempotent).

        ``drain=True`` dispatches queued requests first, on this
        thread; ``drain=False`` fails them promptly with
        :class:`ServerClosed`.  Either way no accepted request is left
        blocking forever.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        for batcher in self._batchers:
            batcher.close(drain=drain)

    def __enter__(self) -> "ModelServer":
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
        """Liveness/diagnostics probe: one consistent operator-facing dict.

        Both tiers report the same keys (see ``docs/RUNBOOK.md`` for the
        semantics table):

        - ``status`` — ``"ok"``, ``"degraded"`` (some circuit breaker is
          not closed, a shard is dead, or no model version resolves:
          the stack answers but from fallbacks), or ``"closed"``;
        - ``n_shards`` / ``alive_shards`` — fleet size and how much of
          it is up (the in-process server is one shard);
        - ``queue_depth`` / ``queue_capacity`` / ``queue_saturation`` —
          backpressure headroom summed over the batchers (saturation 1.0
          means new requests shed to the inline path);
        - ``workers`` — dispatch slots over all batchers;
        - ``cache`` — the full :meth:`PredictionCache.stats` snapshot
          (hit rate, evictions, detected corruptions);
        - ``breakers`` — ``{name: state}`` for every circuit breaker
          (the resilience policy's and, sharded, one per shard);
        - ``active_model`` — ``{"name", "version", "stale"}`` of what a
          request would be scored by right now (``version=None`` when
          nothing is resolvable), ``stale=True`` when it is the
          last-known-good fallback rather than a live resolution;
        - ``shards`` — per-shard status entries (``shard``, ``alive``,
          ``queue_depth``, ``active_version``; the sharded tier adds
          ``breaker``, ``respawns`` and ``pid``).

        Probing moves no counter and records no breaker call (see
        :meth:`_probe`).
        """
        closed_now = self.closed
        version, stale = self._probe()
        breakers = self._breaker_states()
        shards = self._shard_statuses(version)
        alive = sum(1 for status in shards if status["alive"])
        depth = sum(int(status["queue_depth"]) for status in shards)
        capacity = sum(batcher.max_queue for batcher in self._batchers)
        if closed_now:
            status = "closed"
        elif (
            version is None
            or alive < len(shards)
            or any(state != "closed" for state in breakers.values())
        ):
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "closed": closed_now,
            "n_shards": len(shards),
            "alive_shards": alive,
            "queue_depth": depth,
            "queue_capacity": capacity,
            "queue_saturation": depth / capacity if capacity else 0.0,
            "workers": sum(batcher.workers for batcher in self._batchers),
            "cache": self.cache.stats(),
            "breakers": breakers,
            "active_model": {
                "name": self._name or type(self._model).__name__,
                "version": version,
                "stale": stale,
            },
            "shards": shards,
        }

    def _breaker_states(self) -> Dict[str, str]:
        """``{name: state}`` of the resilience policy's breakers."""
        if self.resilience is None:
            return {}
        return {
            breaker.name: breaker.state
            for breaker in self.resilience.breakers()
        }

    def _shard_statuses(self, version: Optional[str]) -> List[Dict[str, Any]]:
        """Per-batcher status entries; in-process, the one local shard."""
        alive = not self.closed
        return [
            {
                "shard": shard,
                "alive": alive,
                "queue_depth": batcher.depth(),
                "active_version": version,
            }
            for shard, batcher in enumerate(self._batchers)
        ]

    def ready(self) -> bool:
        """Readiness probe: can this replica answer a request right now?

        True when the server is open *and* a model is resolvable —
        either live or via the stale-snapshot fallback.  Load balancers
        should route only to ready replicas; :meth:`health` explains
        *why* one is not.
        """
        if self.closed:
            return False
        version, _stale = self._probe()
        return version is not None

    def stats(self) -> Dict[str, Any]:
        """Derived serving stats on top of the raw metrics snapshot."""
        snapshot = self.metrics.snapshot()
        counters = snapshot["counters"]
        batch_hist = self.metrics.histogram("serve/batch_size")
        latency_hist = self.metrics.histogram("serve/latency_seconds")
        stats: Dict[str, Any] = {
            "requests": counters.get("serve/requests_total", 0.0),
            "batches": counters.get("serve/batches_total", 0.0),
            "shed": counters.get("serve/shed_total", 0.0),
            "deadline_expired": counters.get(
                "serve/deadline_expired_total", 0.0
            ),
            "rescued": counters.get("serve/rescued_total", 0.0),
            "stale_model_served": counters.get(
                "resilience/stale_model_served_total", 0.0
            ),
            "retries": counters.get("resilience/retries_total", 0.0),
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
            else type(self._model).__name__
        )
        return (
            f"{type(self).__name__}({target}, shards={len(self._batchers)}, "
            f"max_batch_size={self._batchers[0].max_batch_size}, "
            f"closed={self.closed})"
        )
