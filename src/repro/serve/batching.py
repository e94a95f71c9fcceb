"""Dynamic micro-batching queue with a thread worker pool.

NumPy inference cost is dominated by per-call overhead (Python layer
dispatch, BLAS setup) rather than per-row arithmetic, so scoring 32
queued rows as one ``(32, d)`` batch costs barely more than scoring one
— the whole point of coalescing.  This module owns the mechanics:

- the unit of work is a **block**: one :class:`ServeRequest` carries an
  ``(n, ...)`` array of rows (a single-row request is ``n = 1``), so a
  caller scoring many rows pays one hand-off per block, not per row;
- blocks enter a **bounded FIFO** whose limit ``max_queue`` counts
  *rows*; a block that does not fit makes :meth:`MicroBatcher.submit`
  return ``False`` so the caller can shed it to its inline path instead
  of growing memory without bound;
- a worker takes the head block, then **coalesces** further queued
  whole blocks *of the same method* while the batch stays within
  ``max_batch_size`` rows, and waits at most ``batch_timeout`` seconds
  for stragglers (a lone request on an idle server therefore pays at
  most the timeout in added latency, and pays nothing when the timeout
  is 0); a straggler of that method that fits joins the batch being
  filled as it is submitted, waking nothing until the batch is full;
- the coalesced rows are dispatched **once**, as one concatenated array,
  through a caller-provided ``dispatch(method, rows, blocks)`` function,
  and the per-row results are sliced back to each waiting block;
- a queued (not yet dispatched) block can be **cancelled**, which is
  how per-request deadlines degrade gracefully instead of erroring;
- a caller holding one block may **lead its own batch** on its own
  thread through :meth:`MicroBatcher.try_dispatch`: while a dispatch
  slot is free, nothing is queued and no batch is filling, it runs the
  same fill wait a worker would, and blocks submitted meanwhile join
  it.  No idle worker is woken while a batch fills, so workers
  dispatch only what stays queued;
- ``workers`` is also the number of **dispatch slots**: workers and
  leading callers together never run more than ``workers`` dispatches
  at once.

The batcher knows nothing about models, caches or metrics — the
:class:`~repro.serve.server.ModelServer` composes those around it.
"""

from __future__ import annotations

import contextvars
import threading
import time
from collections import deque
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

__all__ = ["ServeRequest", "ServerClosed", "MicroBatcher"]

# dispatch(method, rows, blocks) -> per-row results, aligned with the
# rows of the (n, ...) array (anything supporting len() and slicing);
# ``rows`` concatenates the rows of ``blocks``, the batch's requests.
DispatchFn = Callable[[str, np.ndarray, Sequence["ServeRequest"]], Sequence[Any]]

_QUEUED = "queued"
_DISPATCHED = "dispatched"
_DONE = "done"
_CANCELLED = "cancelled"


class ServerClosed(RuntimeError):
    """The serving stack is shut down (or shutting down).

    Raised by submission paths once :meth:`MicroBatcher.close` /
    :meth:`~repro.serve.server.ModelServer.close` has begun, and set as
    the error on requests failed by a non-draining shutdown.  A typed
    subclass (rather than a bare ``RuntimeError``) lets callers and
    load-balancers distinguish "this replica is going away" from a
    genuine serving failure.
    """

    def __init__(self, detail: str = "server is closed") -> None:
        super().__init__(detail)


class ServeRequest:
    """One in-flight block of rows, answered together.

    ``rows`` is an ``(n, ...)`` array; once :meth:`done`, ``result``
    holds the ``n`` per-row results (a slice of the dispatch output)
    or ``error`` the failure of the batch the block rode in.

    ``context`` optionally carries the submitter's
    :class:`contextvars.Context` (captured at submit time when tracing
    is active); the dispatching worker restores it so the submitter's
    trace — and anything else riding on context variables — follows the
    request across the thread boundary.  Untraced requests leave it
    ``None`` and pay nothing.

    ``keyed`` is an opaque payload the submitter may attach (the server
    puts the ``(version, keys)`` it looked the rows up under there); the
    batcher hands it to the dispatch with the block, untouched.
    """

    __slots__ = ("rows", "method", "event", "result", "error", "state",
                 "enqueued_at", "context", "keyed")

    def __init__(
        self,
        method: str,
        rows: np.ndarray,
        enqueued_at: float,
        context: Optional[contextvars.Context] = None,
    ) -> None:
        self.method = method
        self.rows = rows
        self.event = threading.Event()
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.state = _QUEUED
        self.enqueued_at = enqueued_at
        self.context = context
        self.keyed: Any = None

    def __len__(self) -> int:
        """Number of rows in the block."""
        return len(self.rows)

    def done(self) -> bool:
        """Whether a result or error has been delivered to this request."""
        return self.event.is_set()


class MicroBatcher:
    """Coalesce concurrently queued row blocks into batched dispatches.

    Parameters
    ----------
    dispatch:
        ``dispatch(method, rows, blocks)`` scoring an ``(n, ...)`` array
        in one model call (``blocks`` are the requests whose rows it
        concatenates); exceptions it raises are delivered to every
        block of the failed batch.
    max_batch_size:
        Upper bound on rows per dispatch (1 disables coalescing), and
        so on the rows of one submitted block.
    batch_timeout:
        Seconds a worker or leading caller waits for the batch to fill
        once it holds at least one block.  0 dispatches whatever is
        immediately queued.
    max_queue:
        Bound on queued (not yet dispatched) rows — the backpressure
        limit.
    workers:
        Worker threads pulling batches, and the dispatch slots they
        share with :meth:`try_dispatch` callers.  With CPython's GIL
        more workers mainly help when the model releases the GIL inside
        BLAS; the default stays small.
    """

    def __init__(
        self,
        dispatch: DispatchFn,
        max_batch_size: int = 32,
        batch_timeout: float = 0.002,
        max_queue: int = 256,
        workers: int = 2,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if batch_timeout < 0:
            raise ValueError(f"batch_timeout must be >= 0, got {batch_timeout}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._dispatch = dispatch
        self.max_batch_size = int(max_batch_size)
        self.batch_timeout = float(batch_timeout)
        self.max_queue = int(max_queue)
        self._queue: "deque[ServeRequest]" = deque()
        self._queued_rows = 0
        # Dispatches in flight, workers' and callers' together; at most
        # ``workers``.  A worker holds its slot from taking a batch until
        # it comes back for the next one, so the count moves under the
        # lock acquisitions the workers make anyway.
        self._slots = int(workers)
        self._busy = 0
        # One lock, two wait queues: idle workers (and close()) wait on
        # ``_cond``; the one thread filling a batch waits on ``_filler``,
        # so a submission can end a fill without waking an idle worker.
        lock = threading.RLock()
        self._cond = threading.Condition(lock)
        self._filler = threading.Condition(lock)
        # The batch being filled (None when none is) and its rows.
        self._filling: Optional[List[ServeRequest]] = None
        self._fill_rows = 0
        self._stopping = False
        self._threads = [
            threading.Thread(
                target=self._run, name=f"serve-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def submit(self, request: ServeRequest) -> bool:
        """Enqueue one block; ``False`` (shed) when its rows do not fit.

        Raises :class:`ServerClosed` once :meth:`close` has begun.
        """
        return self.submit_many([request]) == 1

    def submit_many(self, requests: Sequence[ServeRequest]) -> int:
        """Enqueue a burst of blocks under one lock acquisition.

        Accepts the FIFO prefix of blocks whose rows fit under the queue
        bound and returns how many blocks were taken; the caller sheds
        the rest exactly as for a ``False`` :meth:`submit`.  One
        acquisition + one notify for the whole burst keeps the producer
        from trading the lock (and, in CPython, the GIL) with the
        workers once per block.

        While a batch is filling, a block of its method that fits joins
        it on the spot instead of queueing, and nothing is woken until
        the batch is full or a block queues that cannot join; only then
        does its filling thread dispatch early.  Idle workers are woken
        only when no batch is filling.

        Raises :class:`ValueError` for a block of more than
        ``max_batch_size`` rows: no dispatch could carry it.
        """
        for request in requests:
            if len(request) > self.max_batch_size:
                raise ValueError(
                    f"block of {len(request)} rows exceeds max_batch_size="
                    f"{self.max_batch_size}"
                )
        with self._cond:
            if self._stopping:
                raise ServerClosed()
            batch = self._filling
            accepted = 0
            for request in requests:
                if (
                    batch is not None
                    and not self._queue
                    and request.method == batch[0].method
                    and self._fill_rows + len(request) <= self.max_batch_size
                ):
                    request.state = _DISPATCHED
                    batch.append(request)
                    self._fill_rows += len(request)
                elif self._queued_rows + len(request) <= self.max_queue:
                    self._queue.append(request)
                    self._queued_rows += len(request)
                else:
                    break
                accepted += 1
            if batch is None:
                # One wake-up per accepted block, as many as there are
                # idle workers to take them.
                self._cond.notify(accepted)
            elif self._queue or self._fill_rows >= self.max_batch_size:
                # The filling batch is full, or a block it cannot take
                # queued: it dispatches now.
                self._filler.notify()
            return accepted

    def try_dispatch(
        self, request: ServeRequest, deadline: Optional[float] = None
    ) -> bool:
        """Lead a batch headed by ``request`` on the calling thread.

        Allowed while a dispatch slot is free, nothing is queued (queued
        blocks go first) and no batch is filling; returns ``False``
        without running anything otherwise, so the caller queues the
        block instead.  A leader holds the slot and runs a worker's fill
        wait (:meth:`_fill_locked`) on its own thread: blocks of its
        method submitted meanwhile join it, until the batch is full, a
        block queues that cannot join, :meth:`close` begins,
        ``batch_timeout`` passes or, sooner, ``deadline`` seconds do.
        It then dispatches and delivers the results, or the error, to
        every block of the batch as a worker would.  A full block skips
        the hand-off and the wait alike.

        Raises :class:`ServerClosed` once :meth:`close` has begun.
        """
        timeout = self.batch_timeout
        if deadline is not None:
            timeout = min(timeout, max(deadline, 0.0))
        with self._cond:
            if self._stopping:
                raise ServerClosed()
            if (
                self._queue
                or self._filling is not None
                or self._busy >= self._slots
            ):
                return False
            self._busy += 1
            request.state = _DISPATCHED
            batch = [request]
            try:
                self._fill_locked(batch, timeout)
            except BaseException as exc:  # interrupted in the fill wait
                self._release_locked()
                self._deliver(batch, error=exc)
                raise
        try:
            self._deliver(batch)
        finally:
            with self._cond:
                self._release_locked()
        if request.error is not None and not isinstance(request.error, Exception):
            raise request.error  # an interrupt, not a failed dispatch
        return True

    def _release_locked(self) -> None:
        """Give back a caller's dispatch slot."""
        self._busy -= 1
        # Wake a worker only for work it could not start while this
        # slot was taken, or for close() waiting on it.
        if self._stopping:
            self._cond.notify_all()
        elif self._queue:
            self._cond.notify()

    def cancel(self, request: ServeRequest) -> bool:
        """Remove a still-queued block; ``False`` once dispatch began."""
        with self._cond:
            if request.state == _QUEUED:
                try:
                    self._queue.remove(request)
                except ValueError:  # pragma: no cover - state implies presence
                    return False
                self._queued_rows -= len(request)
                request.state = _CANCELLED
                return True
            return False

    def depth(self) -> int:
        """Current number of queued (undispatched) rows."""
        with self._cond:
            return self._queued_rows

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _take_matching_locked(
        self, method: str, limit: int
    ) -> List[ServeRequest]:
        """Pop the FIFO head of ``method`` blocks, up to ``limit`` rows.

        Only the contiguous head is taken so requests of another method
        are never overtaken (FIFO fairness across methods), and only
        whole blocks: one that would overflow ``limit`` waits for the
        next batch.
        """
        taken: List[ServeRequest] = []
        while self._queue:
            head = self._queue[0]
            if head.method != method or len(head) > limit:
                break
            self._queue.popleft()
            self._queued_rows -= len(head)
            limit -= len(head)
            head.state = _DISPATCHED
            taken.append(head)
        return taken

    def _fill_locked(self, batch: List[ServeRequest], timeout: float) -> None:
        """Let submitted blocks join ``batch`` for up to ``timeout`` seconds.

        The fill wait of workers and leading callers alike, run holding
        the lock and a dispatch slot.  While it waits, blocks submitted
        join ``batch`` directly (:meth:`submit_many`).  It stops early
        once the batch is full, once a block queues that cannot join
        (another method, or too big for the room left: it holds back
        everything behind it) or at close(), and never starts while such
        a block is queued.
        """
        if timeout > 0.0 and not self._queue:
            deadline = time.monotonic() + timeout
            self._filling = batch
            self._fill_rows = sum(len(request) for request in batch)
            try:
                while (
                    self._fill_rows < self.max_batch_size
                    and not self._queue
                    and not self._stopping
                ):
                    remaining = deadline - time.monotonic()
                    if remaining <= 0.0:
                        break
                    self._filler.wait(remaining)
            finally:
                self._filling = None
        if self._stopping:
            self._cond.notify_all()
        elif self._queue:
            # Leftover work (another method, or beyond the room left):
            # wake an idle worker to start on it while this batch
            # dispatches.
            self._cond.notify()

    def _collect_batch(self, finished: bool) -> List[ServeRequest]:
        """Block until a worker may take a batch (or empty list at
        shutdown); ``finished`` gives back the slot of the last batch.

        A worker takes work only while no batch is filling: a block
        queued during a fill could not join it and ends it, and the
        filling thread wakes a worker for it once it stops.
        """
        with self._cond:
            if finished:
                self._busy -= 1
            while (
                not self._queue
                or self._busy >= self._slots
                or self._filling is not None
            ):
                if self._stopping and not self._queue:
                    return []
                self._cond.wait()
            self._busy += 1
            method = self._queue[0].method
            batch = self._take_matching_locked(method, self.max_batch_size)
            self._fill_locked(batch, self.batch_timeout)
        return batch

    def _run(self) -> None:
        batch: List[ServeRequest] = []
        while True:
            batch = self._collect_batch(finished=bool(batch))
            if not batch:
                return
            self._deliver(batch)

    def _deliver(
        self, batch: List[ServeRequest], error: Optional[BaseException] = None
    ) -> None:
        """Dispatch ``batch`` as one call and answer every block.

        Each block gets its slice of the results, or the dispatch's
        error; ``error`` fails the batch without a dispatch.
        """
        if error is None:
            try:
                # Restore the head block's submit-time context (when
                # captured) so its trace parents the dispatch work, on
                # whichever thread runs it.  One batch = one model call
                # = one context; the coalesced followers' results are
                # sliced back regardless of whose context ran the call.
                head = batch[0]
                rows = (
                    head.rows if len(batch) == 1
                    else np.concatenate([request.rows for request in batch])
                )
                if head.context is not None:
                    results = head.context.run(
                        self._dispatch, head.method, rows, batch
                    )
                else:
                    results = self._dispatch(head.method, rows, batch)
                if len(results) != len(rows):
                    raise RuntimeError(
                        f"dispatch returned {len(results)} results for a "
                        f"batch of {len(rows)} rows"
                    )
                offset = 0
                for request in batch:
                    request.result = results[offset:offset + len(request)]
                    offset += len(request)
            except BaseException as exc:  # delivered to every caller
                error = exc
        if error is not None:
            for request in batch:
                request.error = error
        for request in batch:
            request.state = _DONE
            request.event.set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, drain: bool = True) -> None:
        """Stop the workers; never abandons an accepted request.

        ``drain=True`` lets queued requests complete first (workers
        prefer remaining work over exit, so everything accepted before
        the stop flag is dispatched).  ``drain=False`` fails the queued
        remainder immediately with a typed :class:`ServerClosed` error —
        every waiter wakes up either way; no future is left hanging.
        """
        with self._cond:
            self._stopping = True
            if not drain:
                self._fail_queued_locked()
            self._cond.notify_all()
            self._filler.notify_all()  # a filling batch dispatches now
        for thread in self._threads:
            thread.join()
        # Workers exit as soon as they see the stop flag with an empty
        # queue; with drain=True anything still queued at that point is
        # picked up first because _collect_batch prefers work over exit.
        # Belt-and-braces: if a queued request somehow survived the
        # worker drain (e.g. zero live workers), fail it rather than
        # leave its waiter blocked forever.
        with self._cond:
            while self._busy:  # a leading caller still dispatching
                self._cond.wait()
            self._fail_queued_locked()

    def _fail_queued_locked(self) -> None:
        """Fail every still-queued block with :class:`ServerClosed`."""
        while self._queue:
            request = self._queue.popleft()
            request.error = ServerClosed("server closed before dispatch")
            request.state = _DONE
            request.event.set()
        self._queued_rows = 0

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has begun (new submissions are rejected)."""
        with self._cond:
            return self._stopping

    @property
    def workers(self) -> int:
        """Number of dispatch worker threads (and of dispatch slots)."""
        return len(self._threads)

    def __repr__(self) -> str:
        return (
            f"MicroBatcher(max_batch_size={self.max_batch_size}, "
            f"depth={self.depth()}, workers={len(self._threads)})"
        )
