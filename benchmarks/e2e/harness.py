"""Measurement plumbing shared by the end-to-end workloads.

Everything here measures the program from the outside:

- :class:`Probes` puts a span around an instance method of a layer,
  regularizer, served model or online component.  The wrapper is an
  instance attribute shadowing the class method, so ``remove()`` restores
  the object exactly and the program's own code is never edited.
- :func:`timed` appends the wall time of each call to a list; the
  untraced runs use it where a headline latency is per call.
- :func:`host_probe` times a fixed kernel.  :class:`Bracketed` records
  it right before and after each timed operation, so :func:`scaled` can
  scale each operation to a reference host speed; :class:`HostSampler`
  records it on a thread of its own during a phase whose work runs on
  other threads.
- :func:`drive` is the load generator: an open loop that times every
  request from the moment it was *due*, so a stall is charged to every
  request queued behind it, and reports how late the senders ran.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.telemetry.summarize import summarize_spans

#: Span name prefix of each wrapped layer type; conv layers keep their
#: own name (``nn.conv1``) because each has a distinct shape and cost.
LAYER_SPANS = {
    "Dense": "nn.dense",
    "MaxPool2D": "nn.pool",
    "AvgPool2D": "nn.pool",
    "LocalResponseNorm": "nn.lrn",
    "ReLU": "nn.relu",
}


def quantile_ms(seconds: Sequence[float], q: float) -> float:
    """The ``q`` quantile of durations in seconds, in milliseconds."""
    if len(seconds) == 0:
        return 0.0
    return float(np.quantile(np.asarray(seconds, dtype=np.float64), q) * 1e3)


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence, as a float."""
    return float(np.median(values))


#: The host probe's operands: a 64x64 matrix (32 KiB, stays in cache)
#: and a 1 MiB vector (streams from the last-level cache).
_PROBE_MATRIX = np.random.default_rng(0).standard_normal((64, 64))
_PROBE_VECTOR = np.random.default_rng(1).standard_normal(1 << 17)
#: The reference speed: the probe's reading, in CPU seconds, at the fast
#: speed of the 2 GHz Xeon vCPU this benchmark was built on (its first
#: percentile there was 170-174 us in calm spells, 283 us in the worst).
#: Scaled times are the times the operations take when the probe reads
#: this.
PROBE_REFERENCE_S = 170e-6


def host_probe() -> float:
    """CPU seconds of a fixed kernel: four 64x64 matmuls, a 1500-step
    Python loop and two sums over 1 MiB.

    The host this was built on slows down in more than one way: a
    neighbour on the same core slows tight arithmetic most, one that
    fills the shared cache slows memory-bound code most.  The three
    parts cover BLAS, the interpreter and memory, like the workloads.
    Over 40 minutes of changing conditions, scaling by this kernel held
    per-run spreads of the training and online workloads to 3-9%, where
    raw times spread by up to 38%.  The kernel runs no program code and its operands are
    warmed first, so neither a change to the program nor the cache
    footprint of the operation before it moves the reading: only the
    host's speed does.  It reads the thread's CPU clock, so another
    thread that preempts it, or holds the interpreter lock meanwhile,
    does not count.
    """
    _PROBE_MATRIX @ _PROBE_MATRIX
    _PROBE_VECTOR.sum()
    start = time.thread_time()
    for _ in range(4):
        _PROBE_MATRIX @ _PROBE_MATRIX
    total = 0
    for i in range(1500):
        total += i
    _PROBE_VECTOR.sum()
    _PROBE_VECTOR.sum()
    return time.thread_time() - start


@dataclass
class Bracketed:
    """One rep's operation times, each with a host probe before and after."""

    seconds: List[float]
    before: List[float]
    after: List[float]

    @classmethod
    def empty(cls) -> "Bracketed":
        return cls([], [], [])

    def add(self, seconds: float, before: float, after: float) -> None:
        self.seconds.append(seconds)
        self.before.append(before)
        self.after.append(after)


def scaled(reps: Sequence[Bracketed]) -> np.ndarray:
    """``(reps, operations)`` times at the reference speed.

    Each time is multiplied by ``PROBE_REFERENCE_S / mean(probe before,
    probe after)``.  The reps must time the same operations in the same
    order.
    """
    seconds = np.array([rep.seconds for rep in reps], dtype=np.float64)
    before = np.array([rep.before for rep in reps], dtype=np.float64)
    after = np.array([rep.after for rep in reps], dtype=np.float64)
    return seconds * 2.0 * PROBE_REFERENCE_S / (before + after)


class HostSampler:
    """Probes the host every ``every`` seconds on a thread of its own.

    For phases whose work runs on threads a probe cannot bracket.
    ``readings`` holds every probe; ``cpu_seconds`` the sampler thread's
    own CPU time, so a caller can take it out of the process's.
    """

    def __init__(self, every: float = 0.05) -> None:
        self.every = every
        self.readings: List[float] = []
        self.cpu_seconds = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="e2e-host-sampler")

    def _run(self) -> None:
        while True:
            self.readings.append(host_probe())
            if self._stop.wait(self.every):
                break
        self.cpu_seconds = time.thread_time()

    def __enter__(self) -> "HostSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        self._thread.join()

    def speed_factor(self) -> float:
        """``PROBE_REFERENCE_S`` over the mean reading: what a CPU second
        of the sampled phase was worth at the reference speed."""
        return PROBE_REFERENCE_S / float(np.mean(self.readings))


class Probes:
    """Spans around instance methods, installed and removed as a set.

    Install a probe only after the last ``copy.deepcopy`` of its object:
    the wrapper closes over the original bound method, so a deep copy
    would keep calling into the original instance.
    """

    def __init__(self, tracer: Any) -> None:
        self.tracer = tracer
        self._installed: List[tuple] = []

    def wrap(
        self, obj: Any, attr: str, span_name: str,
        after: Optional[Callable[[Any], Any]] = None,
    ) -> None:
        """Record a ``span_name`` span around every ``obj.attr(...)`` call.

        ``after`` sees each call's result outside the span; the online
        workload uses it to probe every model a registry activates.
        """
        inner = getattr(obj, attr)
        tracer = self.tracer

        def traced(*args: Any, **kwargs: Any) -> Any:
            with tracer.start_span(span_name):
                result = inner(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        setattr(obj, attr, traced)
        self._installed.append((obj, attr))

    def wrap_network(self, network: Any) -> None:
        """Forward/backward spans per layer plus the loss head."""
        for layer in network.layers:
            kind = type(layer).__name__
            prefix = f"nn.{layer.name}" if kind == "Conv2D" else LAYER_SPANS.get(kind)
            if prefix is not None:
                self.wrap(layer, "forward", f"{prefix}.fwd")
                self.wrap(layer, "backward", f"{prefix}.bwd")
        self.wrap(network.loss_head, "loss_and_gradient", "nn.loss")

    def wrap_regularizers(self, parameters: Sequence[Any]) -> None:
        """A ``core.reg_grad`` span around each regularizer's ``gradient``."""
        for param in parameters:
            if param.regularizer is not None:
                self.wrap(param.regularizer, "gradient", "core.reg_grad")

    def remove(self) -> None:
        """Restore every wrapped method."""
        for obj, attr in reversed(self._installed):
            vars(obj).pop(attr, None)
        self._installed.clear()


def timed(obj: Any, attr: str, sink: List[float]) -> None:
    """Append the duration of every ``obj.attr(...)`` call to ``sink``."""
    inner = getattr(obj, attr)

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            sink.append(time.perf_counter() - start)

    setattr(obj, attr, wrapper)


@dataclass
class DriveResult:
    """Per-request outcome of one :func:`drive` phase.

    ``latency`` runs from the due time to the answer and ``late`` from
    the due time to the send.
    """

    latency: np.ndarray
    late: np.ndarray
    results: List[Any]
    errors: List[Optional[str]]

    @property
    def n_errors(self) -> int:
        """Requests that raised."""
        return sum(1 for error in self.errors if error is not None)


def drive(
    call: Callable[[int], Any], due: Sequence[float], senders: int = 2
) -> DriveResult:
    """Issue ``call(i)`` at ``start + due[i]`` from ``senders`` threads.

    Requests are claimed in index order, so ``due`` must be ascending.
    """
    n = len(due)
    latency = np.full(n, math.nan)
    late = np.full(n, math.nan)
    results: List[Any] = [None] * n
    errors: List[Optional[str]] = [None] * n
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter()

    def sender() -> None:
        while True:
            with lock:
                index = cursor[0]
                if index >= n:
                    return
                cursor[0] = index + 1
            due_at = start + due[index]
            wait = due_at - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent_at = time.perf_counter()
            try:
                results[index] = call(index)
            except Exception as exc:  # a failed request is counted, not fatal
                errors[index] = f"{type(exc).__name__}: {exc}"
            latency[index] = time.perf_counter() - due_at
            late[index] = sent_at - due_at

    threads = [
        threading.Thread(target=sender, name=f"e2e-sender-{i}")
        for i in range(senders)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return DriveResult(latency, late, results, errors)


def span_self_seconds(spans: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """``{span name: summed self seconds}`` via the program's summarizer."""
    return {row["name"]: row["self_seconds"] for row in summarize_spans(spans)}


def span_durations(
    spans: Sequence[Dict[str, Any]], name: str, parent: Optional[str] = None
) -> List[float]:
    """Durations of the spans called ``name`` (under a ``parent``-named span)."""
    by_id = {span["span_id"]: span for span in spans}
    out = []
    for span in spans:
        if span["name"] != name:
            continue
        if parent is not None:
            up = by_id.get(span["parent_id"])
            if up is None or up["name"] != parent:
                continue
        out.append(float(span["duration"]))
    return out


def queue_waits(spans: Sequence[Dict[str, Any]], parent: str) -> List[float]:
    """Start of each ``serve/dispatch`` minus the start of its ``parent`` span.

    The dispatch span is a child of the head request of its batch, so
    this is the time that request waited in the batcher queue.
    """
    by_id = {span["span_id"]: span for span in spans}
    out = []
    for span in spans:
        if span["name"] != "serve/dispatch":
            continue
        up = by_id.get(span["parent_id"])
        if up is not None and up["name"] == parent:
            out.append(float(span["start"]) - float(up["start"]))
    return out
