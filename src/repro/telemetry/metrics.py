"""Metrics registry: counters, gauges, histograms and phase timers.

The paper's headline results are *timing* claims — the lazy-update
schedule (``Im``, ``Ig``, warm-up ``E``) cuts the regularizer overhead
roughly 4x (Figs. 5-7) — so the training loop needs a way to attribute
wall-clock cost to the four phases of Algorithm 2 (E-step, gradient,
M-step, SGD apply) instead of reporting one opaque per-epoch number.

:class:`MetricsRegistry` is a small, dependency-free instrument panel:

- :class:`Counter` — monotonically increasing totals (batches seen,
  EM refreshes performed).
- :class:`Gauge` — last-value-wins observations (current learning
  rate, effective GM component count).
- :class:`Histogram` — full sample distributions with summary
  statistics (per-batch losses, per-epoch times).
- :class:`PhaseTimer` — named accumulating stopwatches used as context
  managers around the Algorithm 2 phases.

The registry takes an **injectable clock** (default
:func:`time.perf_counter`) shared by all its timers, so tests can
substitute a fake clock and assert exact timings instead of sleeping.
All state is serializable through :meth:`MetricsRegistry.snapshot`,
which is what the JSONL run logs and the ``BENCH_*.json`` exporter
consume.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Iterable, List, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "PhaseTimer",
    "MetricsRegistry",
]

Clock = Callable[[], float]


class Counter:
    """A monotonically increasing count."""

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount

    def reset(self) -> None:
        """Zero the count (run-boundary housekeeping, e.g. between passes)."""
        self.value = 0.0

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """A last-value-wins observation."""

    def __init__(self, name: str):
        self.name = name
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        """Record ``value`` as the current observation (replaces the last)."""
        self.value = float(value)

    def reset(self) -> None:
        """Clear the observation back to "never set" (``None``)."""
        self.value = None

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self.value})"


class Histogram:
    """A sample distribution with summary statistics.

    Samples are kept in full (these are per-epoch/per-batch series of at
    most a few thousand points, not production traffic), so exact
    quantiles are available.
    """

    def __init__(self, name: str):
        self.name = name
        self.values: List[float] = []

    def observe(self, value: float) -> None:
        """Append one sample to the distribution."""
        self.values.append(float(value))

    def observe_many(self, values: Iterable[float]) -> None:
        """Append a batch of samples in one step (e.g. one per served row)."""
        self.values.extend([float(value) for value in values])

    @property
    def count(self) -> int:
        """Number of samples observed so far."""
        return len(self.values)

    @property
    def sum(self) -> float:
        """Sum of all observed samples (0.0 when empty)."""
        return float(sum(self.values))

    @property
    def mean(self) -> float:
        """Arithmetic mean of the samples; raises on an empty histogram."""
        if not self.values:
            raise ValueError(f"histogram {self.name!r} is empty")
        return self.sum / self.count

    @property
    def min(self) -> float:
        """Smallest observed sample; raises on an empty histogram."""
        if not self.values:
            raise ValueError(f"histogram {self.name!r} is empty")
        return min(self.values)

    @property
    def max(self) -> float:
        """Largest observed sample; raises on an empty histogram."""
        if not self.values:
            raise ValueError(f"histogram {self.name!r} is empty")
        return max(self.values)

    def quantile(self, q: float) -> float:
        """Exact ``q``-quantile (nearest-rank) of the observed samples."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if not self.values:
            raise ValueError(f"histogram {self.name!r} is empty")
        ordered = sorted(self.values)
        rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[rank]

    def reset(self) -> None:
        """Drop every sample (the instrument itself stays registered)."""
        self.values = []

    def summary(self) -> Dict[str, float]:
        """Summary statistics dict (``{}`` when no samples yet)."""
        if not self.values:
            return {"count": 0}
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count})"


class PhaseTimer:
    """An accumulating stopwatch for one named phase.

    Used as a context manager around each Algorithm 2 phase::

        with registry.timer("phase/estep"):
            regularizer.prepare(w, iteration)

    ``total_seconds`` accumulates across entries; ``count`` is the
    number of completed timed sections.  The clock is injected by the
    owning registry so fake clocks make timing tests deterministic.

    The stopwatch is **thread-safe**: each thread times its own span
    (start stamps are tracked per thread id under the shared lock) and
    the accumulated totals are updated under the same lock, so
    concurrent sections — e.g. two serve workers inside
    ``serve/dispatch_seconds`` at once — each contribute their full
    duration.  Misuse stays loud: starting a timer twice *on the same
    thread* (or stopping one that thread never started) raises.  The
    one sanctioned silent path is a :meth:`stop` that lands after a
    :meth:`reset` discarded the span (see :meth:`reset`) — that span
    belongs to the zeroed window and contributes 0.0.
    """

    def __init__(self, name: str, clock: Clock):
        self.name = name
        self._clock = clock
        self._lock = threading.Lock()
        self.total_seconds = 0.0
        self.count = 0
        self.last_seconds = 0.0
        #: thread id -> start stamp of that thread's in-flight span.
        self._open: Dict[int, float] = {}
        #: thread ids whose in-flight span a reset() discarded; their
        #: eventual stop() is absorbed instead of raising or polluting
        #: the fresh accumulation window.
        self._discarded: set[int] = set()

    def start(self) -> None:
        """Stamp this thread's span start (one running span per thread)."""
        tid = threading.get_ident()
        stamp = self._clock()
        with self._lock:
            if tid in self._open:
                raise RuntimeError(f"timer {self.name!r} is already running")
            self._discarded.discard(tid)
            self._open[tid] = stamp

    def stop(self) -> float:
        """Stop the stopwatch; returns and accumulates the elapsed span.

        Returns 0.0 without accumulating when this thread's span was
        discarded by an intervening :meth:`reset`.
        """
        tid = threading.get_ident()
        now = self._clock()
        with self._lock:
            started = self._open.pop(tid, None)
            if started is None:
                if tid in self._discarded:
                    self._discarded.discard(tid)
                    return 0.0
                raise RuntimeError(f"timer {self.name!r} was not started")
            elapsed = now - started
            self.total_seconds += elapsed
            self.last_seconds = elapsed
            self.count += 1
        return elapsed

    def add(self, seconds: float) -> None:
        """Accumulate one span the caller timed itself.

        For a span that opens and closes in separate calls on a thread
        that opens others in between (a dispatch fanned out to several
        shards), which :meth:`start`/:meth:`stop` cannot nest.
        """
        with self._lock:
            self.total_seconds += seconds
            self.last_seconds = seconds
            self.count += 1

    def __enter__(self) -> "PhaseTimer":
        self.start()
        return self

    def __exit__(
        self,
        exc_type: Optional[type],
        exc: Optional[BaseException],
        tb: object,
    ) -> None:
        self.stop()

    @property
    def mean_seconds(self) -> float:
        """Mean duration per completed span (0.0 before any complete)."""
        with self._lock:
            if not self.count:
                return 0.0
            return self.total_seconds / self.count

    def reset(self) -> None:
        """Zero the totals and discard **every** thread's open span.

        Threads mid-span when the reset lands get their start stamps
        discarded — their later :meth:`stop` returns 0.0 instead of
        leaking a pre-reset duration into the new window (previously
        only the *calling* thread's open span was cleared, so a worker
        straddling a reset silently polluted the next accumulation).
        """
        with self._lock:
            self.total_seconds = 0.0
            self.count = 0
            self.last_seconds = 0.0
            self._discarded.update(self._open)
            self._open.clear()

    def summary(self) -> Dict[str, float]:
        """Snapshot dict: completed-span count, total and mean seconds.

        All three values come from one locked read so a ``stop()``
        landing mid-snapshot can never produce a mean that disagrees
        with its own count/total pair.
        """
        with self._lock:
            count = self.count
            total = self.total_seconds
        return {
            "count": count,
            "total_seconds": total,
            "mean_seconds": total / count if count else 0.0,
        }

    def __repr__(self) -> str:
        with self._lock:
            count, total = self.count, self.total_seconds
        return (
            f"PhaseTimer({self.name!r}, count={count}, "
            f"total_seconds={total:.6f})"
        )


class MetricsRegistry:
    """Named counters, gauges, histograms and phase timers.

    Instruments are created on first access and shared afterwards, so
    ``registry.timer("phase/estep")`` in the trainer and in a callback
    refer to the same accumulating stopwatch.  A name belongs to exactly
    one instrument kind; reusing it with a different kind raises.
    """

    def __init__(self, clock: Clock = time.perf_counter):
        self.clock = clock
        # Guards the name->instrument maps only; instruments synchronize
        # (or deliberately don't) their own state.  Without it two
        # threads asking for the same new gauge can each create one and
        # then increment different objects.
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._timers: Dict[str, PhaseTimer] = {}

    # -- instrument accessors -----------------------------------------
    def counter(self, name: str) -> Counter:
        """The :class:`Counter` named ``name`` (created on first access)."""
        with self._lock:
            found = self._counters.get(name)
            if found is None:
                self._check_kind_locked(name, self._counters)
                found = self._counters[name] = Counter(name)
            return found

    def gauge(self, name: str) -> Gauge:
        """The :class:`Gauge` named ``name`` (created on first access)."""
        with self._lock:
            found = self._gauges.get(name)
            if found is None:
                self._check_kind_locked(name, self._gauges)
                found = self._gauges[name] = Gauge(name)
            return found

    def histogram(self, name: str) -> Histogram:
        """The :class:`Histogram` named ``name`` (created on first access)."""
        with self._lock:
            found = self._histograms.get(name)
            if found is None:
                self._check_kind_locked(name, self._histograms)
                found = self._histograms[name] = Histogram(name)
            return found

    def timer(self, name: str) -> PhaseTimer:
        """The :class:`PhaseTimer` named ``name``, on the shared clock."""
        with self._lock:
            found = self._timers.get(name)
            if found is None:
                self._check_kind_locked(name, self._timers)
                found = self._timers[name] = PhaseTimer(name, self.clock)
            return found

    def _check_kind_locked(self, name: str, expected: Dict) -> None:
        for family in (self._counters, self._gauges, self._histograms,
                       self._timers):
            if family is not expected and name in family:
                raise TypeError(
                    f"metric {name!r} already registered as a different kind"
                )

    def _copy_families(self) -> List[Dict[str, object]]:
        """Shallow copies of every instrument map, under one locked read.

        Instrument methods are then called *outside* the registry lock
        so the lock-order graph stays a star, not a chain (PhaseTimer
        has its own lock).
        """
        with self._lock:
            return [
                dict(self._counters),
                dict(self._gauges),
                dict(self._histograms),
                dict(self._timers),
            ]

    # -- lifecycle ----------------------------------------------------
    def reset(self) -> None:
        """Zero every instrument (the instruments themselves survive)."""
        for family in self._copy_families():
            for instrument in family.values():
                instrument.reset()

    def snapshot(self) -> Dict[str, Dict]:
        """JSON-serializable dump of every instrument's current state."""
        counters, gauges, histograms, timers = self._copy_families()
        return {
            "counters": {n: c.value for n, c in sorted(counters.items())},
            "gauges": {n: g.value for n, g in sorted(gauges.items())},
            "histograms": {
                n: h.summary() for n, h in sorted(histograms.items())
            },
            "timers": {n: t.summary() for n, t in sorted(timers.items())},
        }

    def phase_seconds(self, prefix: str = "phase/") -> Dict[str, float]:
        """``{phase_name: total_seconds}`` for timers under ``prefix``.

        This is the series the Figs. 5-7 benchmarks read: per-phase
        E-step/M-step cost, directly, instead of inferring it from
        whole-epoch wall-clock differences.
        """
        _counters, _gauges, _histograms, timers = self._copy_families()
        return {
            name[len(prefix):]: timer.summary()["total_seconds"]
            for name, timer in sorted(timers.items())
            if name.startswith(prefix)
        }

    def __repr__(self) -> str:
        counters, gauges, histograms, timers = self._copy_families()
        return (
            f"MetricsRegistry(counters={len(counters)}, "
            f"gauges={len(gauges)}, histograms={len(histograms)}, "
            f"timers={len(timers)})"
        )
