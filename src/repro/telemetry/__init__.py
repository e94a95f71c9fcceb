"""Telemetry: event hooks, phase timers, metrics and structured run logs.

The paper's contribution is measured in *time* — the lazy-update
schedule exists to cut the E-step/M-step cost (Figs. 5-7) and the
learned GM evolves during training (Fig. 3) — so this subsystem makes
both first-class observables of the Algorithm 1/2 training loop:

:mod:`repro.telemetry.events`
    :class:`Callback`/:class:`CallbackList` — the hook protocol the
    trainer fires (train/epoch/batch/EM-step events) without altering
    the Algorithm 2 ordering.
:mod:`repro.telemetry.metrics`
    :class:`MetricsRegistry` — counters, gauges, histograms and named
    phase timers with an injectable clock; the trainer times the
    E-step, gradient, M-step and SGD phases separately.
:mod:`repro.telemetry.callbacks`
    Built-ins: :class:`JsonlRunLogger`, :class:`GMStateRecorder`,
    :class:`EarlyStopping`, :class:`CheckpointCallback`,
    :class:`ProgressReporter`, :class:`MetricsSummary`.
:mod:`repro.telemetry.export`
    ``BENCH_*.json``-shaped serialization of a run's metrics.
:mod:`repro.telemetry.runtime`
    Ambient default callbacks (``use_callbacks``) so drivers like the
    CLI can instrument trainers they never construct directly.
:mod:`repro.telemetry.trace`
    Request/training tracing: :class:`Tracer`, :class:`Span` and
    :class:`TraceContext` propagated via :mod:`contextvars` to whichever
    caller thread leads a serve batch, with a crash-safe JSONL span log.
:mod:`repro.telemetry.exposition`
    Prometheus text exposition of a registry plus the stdlib
    ``/metrics`` HTTP endpoint behind ``repro serve --metrics-port``.
:mod:`repro.telemetry.summarize`
    Span-log aggregation for ``repro trace summarize`` (per-operation
    self/total time, p50/p99, critical path of one trace).

Telemetry is passive: with no callbacks registered the trainer's
numerical behaviour is unchanged, and with callbacks registered the
losses remain bit-identical — observers only read state the loop
already produced.
"""

from .callbacks import (
    CheckpointCallback,
    EarlyStopping,
    GMStateRecorder,
    JsonlRunLogger,
    MetricsSummary,
    ProgressReporter,
)
from .events import BatchInfo, Callback, CallbackList, EMStepInfo, RunContext
from .export import bench_filename, bench_payload, write_bench_json
from .exposition import MetricsServer, render_exposition, validate_exposition
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, PhaseTimer
from .runtime import default_callbacks, use_callbacks
from .summarize import (
    critical_path,
    format_summary_table,
    format_trace_tree,
    longest_trace,
    summarize_spans,
)
from .trace import (
    DEFAULT_SAMPLE_RATE,
    JsonlSpanExporter,
    Span,
    SpanRingBuffer,
    TraceContext,
    Tracer,
    add_event,
    current_span,
    current_tracer,
    load_spans,
    spans_by_trace,
    start_span,
    tracing_active,
    use_tracer,
)

__all__ = [
    # events
    "Callback",
    "CallbackList",
    "RunContext",
    "BatchInfo",
    "EMStepInfo",
    # metrics
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "PhaseTimer",
    # callbacks
    "JsonlRunLogger",
    "GMStateRecorder",
    "EarlyStopping",
    "CheckpointCallback",
    "ProgressReporter",
    "MetricsSummary",
    # export
    "bench_payload",
    "bench_filename",
    "write_bench_json",
    # runtime
    "default_callbacks",
    "use_callbacks",
    # trace
    "DEFAULT_SAMPLE_RATE",
    "TraceContext",
    "Span",
    "Tracer",
    "SpanRingBuffer",
    "JsonlSpanExporter",
    "use_tracer",
    "current_tracer",
    "current_span",
    "start_span",
    "add_event",
    "tracing_active",
    "load_spans",
    "spans_by_trace",
    # exposition
    "MetricsServer",
    "render_exposition",
    "validate_exposition",
    # summarize
    "summarize_spans",
    "format_summary_table",
    "critical_path",
    "format_trace_tree",
    "longest_trace",
]
