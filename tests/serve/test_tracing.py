"""End-to-end tracing through the serving stack.

Covers the two contracts the tracing tentpole exists for:

- **cross-thread propagation** — the trace context captured on the
  submitting thread is restored on the batcher's dispatch worker, so a
  request and the batch dispatch that served it share one trace id with
  correct parentage;
- **chaos narrative** — a request that experiences registry retries and
  a stale-snapshot fallback yields one trace, reconstructable from the
  JSONL log by trace id, carrying those occurrences as span events, and
  ``summarize`` renders its critical path.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.linear.logistic import LogisticRegression
from repro.serve import (
    CircuitBreaker,
    FaultInjector,
    FaultProfile,
    ModelRegistry,
    ModelServer,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.serve.sharding import ShardedModelServer
from repro.telemetry.summarize import (
    critical_path,
    format_trace_tree,
    summarize_spans,
)
from repro.telemetry.trace import (
    JsonlSpanExporter,
    Tracer,
    load_spans,
    spans_by_trace,
)

D = 12


@pytest.fixture
def model():
    return LogisticRegression(D, rng=np.random.default_rng(0))


@pytest.fixture
def x():
    return np.random.default_rng(1).normal(size=(64, D))


def by_name(spans):
    table = {}
    for span in spans:
        table.setdefault(span["name"], []).append(span)
    return table


# ----------------------------------------------------------------------
# Cross-thread propagation
# ----------------------------------------------------------------------
def test_request_and_dispatch_share_one_trace(model, x):
    tracer = Tracer(sample_rate=1.0)
    with ModelServer(model=model, cache_size=0, tracer=tracer) as server:
        server.predict(x[0])
    spans = by_name(tracer.buffer.spans())

    request = spans["serve/request"][0]
    dispatch = spans["serve/dispatch"][0]
    # One trace id across the submit thread and the dispatch worker.
    assert request["parent_id"] is None
    assert dispatch["trace_id"] == request["trace_id"]
    assert dispatch["parent_id"] == request["span_id"]
    assert request["attributes"]["method"] == "predict"
    assert dispatch["attributes"]["batch_size"] == 1


def test_shard_dispatch_and_worker_score_join_the_request_trace(model, x):
    tracer = Tracer(sample_rate=1.0)
    with ShardedModelServer(
        model=model, n_shards=2, cache_size=0, tracer=tracer
    ) as server:
        server.predict(x[0])
    spans = by_name(tracer.buffer.spans())

    request = spans["serve/request"][0]
    dispatch = spans["serve/shard_dispatch"][0]
    worker = spans["serve/worker_score"][0]
    # The parent's dispatch thread and the worker process's timing land
    # in the request's trace, each under its caller.
    assert request["parent_id"] is None
    assert dispatch["trace_id"] == request["trace_id"]
    assert dispatch["parent_id"] == request["span_id"]
    assert worker["trace_id"] == request["trace_id"]
    assert worker["parent_id"] == dispatch["span_id"]
    assert dispatch["attributes"]["shard"] == request["attributes"]["shard"]


def test_concurrent_requests_get_distinct_traces(model, x):
    tracer = Tracer(sample_rate=1.0)
    with ModelServer(
        model=model, cache_size=0, max_batch_size=8, tracer=tracer
    ) as server:
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(server.predict, x[:16]))
    spans = by_name(tracer.buffer.spans())

    requests = spans["serve/request"]
    assert len(requests) == 16
    # Each request is its own root trace with the seeded prefix.
    trace_ids = {s["trace_id"] for s in requests}
    assert len(trace_ids) == 16
    assert all(t.startswith("af7a89") for t in trace_ids)
    # Every dispatch parents onto the request that headed its batch.
    request_spans = {s["span_id"]: s for s in requests}
    for dispatch in spans["serve/dispatch"]:
        head = request_spans[dispatch["parent_id"]]
        assert dispatch["trace_id"] == head["trace_id"]


def test_cache_hit_is_an_event_on_the_request_span(model, x):
    tracer = Tracer(sample_rate=1.0)
    with ModelServer(model=model, cache_size=64, tracer=tracer) as server:
        server.predict(x[0])
        server.predict(x[0])  # identical row: served from cache
    requests = by_name(tracer.buffer.spans())["serve/request"]
    events = [[e["name"] for e in r["events"]] for r in requests]
    assert any("cache_miss" in names for names in events)
    assert any("cache_hit" in names for names in events)


def test_unsampled_requests_export_nothing(model, x):
    tracer = Tracer(sample_rate=0.0)
    with ModelServer(model=model, cache_size=0, tracer=tracer) as server:
        server.predict(x[0])
    assert len(tracer.buffer) == 0
    assert tracer.started > 0  # spans were created, payload dropped


def test_untraced_server_works_identically(model, x):
    with ModelServer(model=model, cache_size=0) as server:
        direct = server.predict(x[0])
    assert direct == model.predict(x[:1])[0]


# ----------------------------------------------------------------------
# Chaos narrative: retry + stale fallback in one trace
# ----------------------------------------------------------------------
def test_chaos_retry_and_stale_fallback_reconstructable(tmp_path, model, x):
    path = tmp_path / "spans.jsonl"
    exporter = JsonlSpanExporter(path=str(path))
    tracer = Tracer(exporter=exporter, sample_rate=1.0)

    registry = ModelRegistry()
    registry.register(
        "m", lambda: LogisticRegression(D, weight_init_std=0.0)
    )
    registry.publish("m", model)

    injector = FaultInjector(seed=2018)  # benign until told otherwise
    resilience = ResiliencePolicy(
        retry=RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0,
                          seed=0),
        registry_breaker=CircuitBreaker(
            name="registry", min_calls=100, reset_timeout=0.1
        ),
    )
    with ModelServer(
        registry=registry,
        name="m",
        cache_size=0,
        resilience=resilience,
        fault_injector=injector,
        tracer=tracer,
    ) as server:
        server.predict(x[0])  # warm the last-known-good snapshot
        # Registry goes fully dark: every load fails, retries exhaust,
        # the stale snapshot answers.
        injector.profiles["registry"] = FaultProfile(error_rate=1.0)
        answer = server.predict(x[1])
    exporter.close()

    assert answer == model.predict(x[1:2])[0]  # stale == correct here

    spans = load_spans(str(path))
    traces = spans_by_trace(spans)
    # Find the (single) trace that tells the whole chaos story.
    story = None
    for trace_id, trace_spans in traces.items():
        events = [e["name"] for s in trace_spans for e in s["events"]]
        if "retry" in events and "stale_model_served" in events:
            assert story is None, "chaos events leaked across traces"
            story = (trace_id, trace_spans, events)
    assert story is not None, "no trace carries retry + stale fallback"
    trace_id, trace_spans, events = story

    assert "fault_injected" in events
    assert "retry_exhausted" in events
    stale = next(
        e for s in trace_spans for e in s["events"]
        if e["name"] == "stale_model_served"
    )
    assert stale["version"] == "v0001"

    # The summarizer renders this trace's critical path.
    path_spans = critical_path(spans, trace_id)
    assert path_spans[0]["name"] == "serve/request"
    tree = format_trace_tree(spans, trace_id)
    assert trace_id in tree
    assert "*" in tree
    assert "stale_model_served" in tree
    assert "retry" in tree

    # And the per-op table aggregates across all traces in the log.
    table = {row["name"]: row for row in summarize_spans(spans)}
    assert table["serve/request"]["count"] == 2
    assert table["serve/request"]["total_seconds"] > 0.0


def test_breaker_transition_becomes_span_event(model, x):
    tracer = Tracer(sample_rate=1.0)
    registry = ModelRegistry()
    registry.register(
        "m", lambda: LogisticRegression(D, weight_init_std=0.0)
    )
    registry.publish("m", model)
    injector = FaultInjector(seed=2018)
    resilience = ResiliencePolicy(
        retry=RetryPolicy(max_attempts=1, base_delay=0.0, max_delay=0.0,
                          seed=0),
        registry_breaker=CircuitBreaker(
            name="registry", window=4, min_calls=2,
            failure_threshold=0.5, reset_timeout=60.0,
        ),
    )
    with ModelServer(
        registry=registry,
        name="m",
        cache_size=0,
        resilience=resilience,
        fault_injector=injector,
        tracer=tracer,
    ) as server:
        server.predict(x[0])
        injector.profiles["registry"] = FaultProfile(error_rate=1.0)
        for i in range(1, 6):
            server.predict(x[i])

    events = [
        e["name"]
        for s in tracer.buffer.spans()
        for e in s["events"]
    ]
    assert "breaker_transition" in events
    # Once open, requests fall back via the breaker-open path.
    stale_reasons = {
        e.get("reason")
        for s in tracer.buffer.spans()
        for e in s["events"]
        if e["name"] == "stale_model_served"
    }
    assert "breaker_open" in stale_reasons
