"""TELEMETRY-COVERAGE: metrics flow through the sanctioned accessors.

The Fig. 5-7 reproduction reads *phase-attributed* timings out of
:class:`repro.telemetry.metrics.MetricsRegistry` snapshots, and the
serving benchmarks read their QPS/latency numbers from the same place.
That only works if every hot path plays by three rules — checked here
for the ``repro.serve``, ``repro.optim`` and ``repro.online``
packages:

- **no registry internals**: touching ``_counters`` / ``_gauges`` /
  ``_histograms`` / ``_timers`` directly bypasses the kind check and
  the create-on-first-access sharing; use ``counter()`` / ``gauge()``
  / ``histogram()`` / ``timer()``;
- **no orphan instruments**: instantiating ``Counter(...)`` /
  ``PhaseTimer(...)`` directly creates an instrument invisible to
  ``snapshot()`` and the BENCH exporters;
- **no raw wall clocks**: calling ``time.time()`` /
  ``time.perf_counter()`` in these packages sidesteps the registry's
  *injectable* clock, which is what lets the timing tests substitute a
  fake clock instead of sleeping.  (``time.monotonic`` is allowed —
  scheduling waits are not measurements.)

A fourth rule covers tracing, for ``repro.serve`` and
``repro.online``:

- **no invisible entry points**: every public entry-point method
  (serving: ``request``, ``predict``, ``predict_proba``,
  ``decision_function``, ``predict_many``; continuous learning:
  ``partial_fit``, ``publish``, ``maybe_publish``, ``observe``,
  ``decide``, ``step``, ``run``) must either open a span (any call
  whose name ends in ``start_span`` — directly or via a helper like
  ``self._start_span``) or visibly delegate to another entry point on
  ``self`` that does.  Otherwise requests — or train/publish/promote
  decisions — through that method never appear in trace logs, and the
  promotion history stops being reconstructable from telemetry.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import Finding, LintContext, Rule
from .rng import _dotted_name

__all__ = ["TelemetryCoverageRule"]

_SCOPED_PACKAGES = ("repro.serve", "repro.optim", "repro.online")

_REGISTRY_INTERNALS = frozenset(
    {"_counters", "_gauges", "_histograms", "_timers"}
)

_INSTRUMENT_TYPES = frozenset(
    {"Counter", "Gauge", "Histogram", "PhaseTimer"}
)

_RAW_CLOCKS = frozenset({"time.time", "time.perf_counter"})

# Public serving entry points that must be visible to tracing.
_SERVE_ENTRY_POINTS = frozenset(
    {"request", "predict", "predict_proba", "decision_function",
     "predict_many"}
)

# Continuous-learning entry points: the train/publish/shadow/promote
# surface whose span events make the decision history reconstructable.
_ONLINE_ENTRY_POINTS = frozenset(
    {"partial_fit", "publish", "maybe_publish", "observe", "observe_many",
     "decide", "step", "run"}
)


def _opens_span_or_delegates(
    func: ast.FunctionDef, entry_points: frozenset
) -> bool:
    """True if ``func`` starts a span or calls a sibling entry point."""
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted_name(node.func)
        if dotted is None:
            continue
        tail = dotted.rpartition(".")[2]
        if tail.endswith("start_span"):
            return True
        if (
            tail in entry_points
            and tail != func.name
            and dotted == f"self.{tail}"
        ):
            return True
    return False


class TelemetryCoverageRule(Rule):
    name = "TELEMETRY-COVERAGE"
    description = (
        "serve/optim hot paths must use MetricsRegistry accessors and its "
        "injected clock, never registry internals or raw wall clocks"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if not ctx.in_package(*_SCOPED_PACKAGES):
            return
        if ctx.in_package("repro.serve"):
            yield from self._check_span_coverage(
                ctx, _SERVE_ENTRY_POINTS, "serving"
            )
        if ctx.in_package("repro.online"):
            yield from self._check_span_coverage(
                ctx, _ONLINE_ENTRY_POINTS, "continuous-learning"
            )
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute):
                if node.attr in _REGISTRY_INTERNALS:
                    yield self.finding(
                        ctx,
                        node,
                        f"direct access to registry internal `{node.attr}`; "
                        "go through counter()/gauge()/histogram()/timer() "
                        "so kind checks and snapshots stay correct",
                    )
            elif isinstance(node, ast.Call):
                dotted = _dotted_name(node.func)
                if dotted is None:
                    continue
                tail = dotted.rpartition(".")[2]
                if dotted in _RAW_CLOCKS:
                    yield self.finding(
                        ctx,
                        node,
                        f"raw `{dotted}()` in a telemetry-covered package; "
                        "use the registry's injected clock "
                        "(`metrics.clock()`) or a `with metrics.timer(...)` "
                        "block so fake clocks keep tests deterministic",
                    )
                elif tail in _INSTRUMENT_TYPES and dotted in (
                    tail,
                    f"metrics.{tail}",
                    f"telemetry.{tail}",
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"direct `{tail}(...)` instantiation; obtain "
                        "instruments from a MetricsRegistry accessor so "
                        "they appear in snapshot() and the BENCH exports",
                    )

    def _check_span_coverage(
        self, ctx: LintContext, entry_points: frozenset, kind: str
    ) -> Iterator[Finding]:
        """Public entry points must open (or delegate to) a span."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name.startswith("_"):
                continue
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if item.name not in entry_points:
                    continue
                if _opens_span_or_delegates(item, entry_points):
                    continue
                yield self.finding(
                    ctx,
                    item,
                    f"{kind} entry point `{node.name}.{item.name}` opens "
                    "no span: call start_span (directly or via a helper) "
                    "or delegate to an entry point that does, so requests "
                    "stay visible to trace logs",
                )
