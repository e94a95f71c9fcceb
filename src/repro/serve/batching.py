"""Dynamic micro-batching queue whose callers dispatch the batches.

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
- the batcher starts no thread: every batch is **led** by a calling
  thread holding one of ``workers`` dispatch slots.  The leader
  **coalesces** queued whole blocks *of one method* from the FIFO head
  up to ``max_batch_size`` rows, waits at most ``batch_timeout``
  seconds for stragglers (they join as they are submitted), dispatches
  the rows **once** through a caller-provided ``dispatch(method, rows,
  blocks)`` and slices the results back.  A caller leads its own block
  while nothing is queued or filling (:meth:`MicroBatcher.try_dispatch`),
  the FIFO head while it waits on a queued block
  (:meth:`MicroBatcher.wait`), and :meth:`close` leads what is left;
- a dispatch is a start and a finish, so a caller with blocks queued
  on several batchers starts a head batch on each before it finishes
  any, round after round (:meth:`MicroBatcher.fan_out`);
- a :meth:`~MicroBatcher.wait` whose timeout passes while its block is
  still queued **cancels** the block, which is how per-request
  deadlines degrade gracefully instead of erroring; such a caller
  leads only a batch that carries its own block.

The batcher knows nothing about models, caches or metrics — the
:class:`~repro.serve.server.ModelServer` composes those around it.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import threading
import time
from collections import deque
from itertools import islice
from typing import Any, Callable, List, NoReturn, Optional, Sequence, Tuple

import numpy as np

__all__ = ["ServeRequest", "ServerClosed", "MicroBatcher"]

# dispatch(method, rows, blocks) starts scoring ``rows``, the rows of
# ``blocks`` (the batch's requests) concatenated, and returns finish();
# the leader calls that once to get the per-row results (anything
# supporting len() and slicing).
FinishFn = Callable[[], Sequence[Any]]
DispatchFn = Callable[[str, np.ndarray, Sequence["ServeRequest"]], FinishFn]

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
    is active); whichever thread leads the block's batch restores it
    around the dispatch, so the submitter's trace — and anything else
    riding on context variables — follows the request onto that thread.
    Untraced requests leave it ``None`` and pay nothing.

    ``keyed`` is an opaque payload the submitter may attach (the server
    puts the ``(version, keys)`` it looked the rows up under there); the
    batcher hands it to the dispatch with the block, untouched.
    """

    __slots__ = ("rows", "method", "event", "result", "error", "state",
                 "context", "keyed")

    def __init__(
        self,
        method: str,
        rows: np.ndarray,
        context: Optional[contextvars.Context] = None,
    ) -> None:
        self.method = method
        self.rows = rows
        self.event = threading.Event()
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.state = _QUEUED
        self.context = context
        self.keyed: Any = None

    def __len__(self) -> int:
        """Number of rows in the block."""
        return len(self.rows)

    def done(self) -> bool:
        """Whether a result or error has been delivered to this request."""
        return self.event.is_set()


def _raise(error: BaseException) -> NoReturn:
    raise error


class MicroBatcher:
    """Coalesce concurrently queued row blocks into batched dispatches.

    Parameters
    ----------
    dispatch:
        ``dispatch(method, rows, blocks)`` starting to score an
        ``(n, ...)`` array in one model call (``blocks`` are the
        requests whose rows it concatenates) and returning the
        ``finish()`` that completes it with the per-row results;
        exceptions either raises are delivered to every block of the
        failed batch.
    max_batch_size:
        Upper bound on rows per dispatch (1 disables coalescing), and
        so on the rows of one submitted block.
    batch_timeout:
        Seconds a leader waits for its batch to fill once it holds at
        least one block.  0 dispatches whatever is immediately queued.
    max_queue:
        Bound on queued (not yet dispatched) rows — the backpressure
        limit.
    workers:
        Dispatch slots: at most this many batches are in flight at once,
        each led by a calling thread.  With CPython's GIL more slots
        mainly help when the model releases the GIL inside BLAS (or
        scores in another process); the default stays small.
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
        # Batches in flight, at most ``workers``: a leader holds its slot
        # from taking the batch until every block of it is answered.
        self._slots = int(workers)
        self._busy = 0
        # One lock, two wait queues: callers waiting on a queued block
        # (and close()) sleep on ``_cond``; the one leader filling a
        # batch waits on ``_filler``, so a submission can end a fill
        # without waking a waiting caller.  A leader that gives its slot
        # back wakes every sleeper to look again: waking one could strand
        # a block, as the one woken may find its own answered.
        lock = threading.RLock()
        self._cond = threading.Condition(lock)
        self._filler = threading.Condition(lock)
        # The batch being filled (None when none is) and its rows.
        self._filling: Optional[List[ServeRequest]] = None
        self._fill_rows = 0
        self._stopping = False

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
        the rest exactly as for a ``False`` :meth:`submit`, and waits on
        the others (:meth:`wait`).  While a batch is filling, a block of
        its method that fits joins it instead of queueing; nothing is
        woken until the batch is full or a block queues that cannot join.

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
            if batch is not None and (
                self._queue or self._fill_rows >= self.max_batch_size
            ):
                # The filling batch is full, or a block it cannot take
                # queued: it dispatches now.
                self._filler.notify()
            return accepted

    def depth(self) -> int:
        """Current number of queued (undispatched) rows."""
        with self._cond:
            return self._queued_rows

    # ------------------------------------------------------------------
    # Leading: take a slot, fill, start, finish, give the slot back
    # ------------------------------------------------------------------
    def try_dispatch(
        self, request: ServeRequest, deadline: Optional[float] = None
    ) -> bool:
        """Lead a batch headed by ``request`` on the calling thread.

        Allowed while a dispatch slot is free, nothing is queued (queued
        blocks go first) and no batch is filling; returns ``False``
        without running anything otherwise, so the caller queues the
        block instead.  Blocks of its method submitted meanwhile join
        the batch until it is full, a block queues that cannot join,
        :meth:`close` begins, ``batch_timeout`` passes or, sooner,
        ``deadline`` seconds do.  A full block skips the wait.

        Raises :class:`ServerClosed` once :meth:`close` has begun.
        """
        with self._cond:
            if self._stopping:
                raise ServerClosed()
            if self._queue or not self._may_lead_locked():
                return False
            request.state = _DISPATCHED
            batch = self._open_locked([request], deadline)
        self._finish(batch, self._start(batch))
        return True

    def wait(self, request: ServeRequest, timeout: Optional[float] = None) -> bool:
        """Block until ``request`` is answered, leading batches meanwhile.

        While the block is queued, the caller leads the FIFO head — not
        always its own block — whenever a slot is free and no batch is
        filling, and otherwise sleeps until a leader gives its slot back
        or a fill ends.  With a ``timeout`` it leads only a head batch
        that carries its block, so no other batch's dispatch can hold it
        past the timeout; if ``timeout`` seconds pass with the block
        still queued, it is cancelled (no batch will carry it) and
        ``False`` returned.  A block already in a batch is moments away,
        so it is waited for without a bound.
        """
        if request.event.is_set():
            return True
        end = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._cond:
                if request.state != _QUEUED:
                    break
                remaining = None if end is None else end - time.monotonic()
                if remaining is not None and remaining <= 0.0:
                    self._queue.remove(request)
                    self._queued_rows -= len(request)
                    request.state = _CANCELLED
                    # A waiter whose block the removal moved into the
                    # head batch may lead it now.
                    self._cond.notify_all()
                    return False
                if not self._may_lead_locked() or (
                    end is not None
                    and request not in islice(self._queue, self._head_locked())
                ):
                    self._cond.wait(remaining)
                    continue
                batch = self._open_locked(None, remaining)
            self._finish(batch, self._start(batch))
        request.event.wait()
        return True

    @staticmethod
    def fan_out(blocks: Sequence[Tuple["MicroBatcher", ServeRequest]]) -> None:
        """Lead head batches on several batchers at once, in rounds.

        ``blocks`` pairs each batcher with the caller's last block on it.
        A round starts the head batch of every batcher whose block is
        still queued and whose slot is free — the fills share one
        ``batch_timeout`` — then finishes them in the order they started.
        Rounds repeat until one starts nothing; it never waits for a slot.
        """
        while True:
            opened = time.monotonic()
            finishes: List[Callable[[], None]] = []
            try:
                for batcher, request in blocks:
                    finish = batcher._start_head(
                        request,
                        opened + batcher.batch_timeout - time.monotonic(),
                    )
                    if finish is not None:
                        finishes.append(finish)
            finally:
                # Every started batch is finished, first in first out, each
                # giving its slot back even when another one raises.
                with contextlib.ExitStack() as stack:
                    for finish in reversed(finishes):
                        stack.callback(finish)
            if not finishes:
                return

    def _start_head(
        self, request: ServeRequest, timeout: float
    ) -> Optional[Callable[[], None]]:
        """Start the FIFO head's batch, filling it for at most
        ``timeout`` seconds, if ``request`` is still queued and a slot
        is free now; returns the call that finishes it."""
        with self._cond:
            if request.state != _QUEUED or not self._may_lead_locked():
                return None
            batch = self._open_locked(None, timeout)
        return functools.partial(self._finish, batch, self._start(batch))

    def _may_lead_locked(self) -> bool:
        """Whether a slot is free and no batch is filling."""
        return self._busy < self._slots and self._filling is None

    def _head_locked(self) -> int:
        """How many FIFO-head blocks the next batch takes: whole blocks
        of the head's method, up to ``max_batch_size`` rows, so none of
        another method is overtaken."""
        method, room, count = self._queue[0].method, self.max_batch_size, 0
        for block in self._queue:
            if block.method != method or len(block) > room:
                break
            room -= len(block)
            count += 1
        return count

    def _open_locked(
        self, batch: Optional[List[ServeRequest]], timeout: Optional[float]
    ) -> List[ServeRequest]:
        """Take a slot for ``batch`` (by default the FIFO head's batch,
        :meth:`_head_locked`) and let submitted blocks join it for
        ``batch_timeout`` or, sooner, ``timeout`` seconds — less once it
        is full, a block queues that cannot join (it holds back
        everything behind it) or close() begins, and not at all while
        such a block is queued."""
        if batch is None:
            batch = [self._queue.popleft() for _ in range(self._head_locked())]
            for head in batch:
                self._queued_rows -= len(head)
                head.state = _DISPATCHED
        fill = self.batch_timeout
        if timeout is not None:
            fill = min(fill, max(timeout, 0.0))
        self._busy += 1
        if fill > 0.0 and not self._queue:
            deadline = time.monotonic() + fill
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
            except BaseException as exc:  # interrupted in the fill wait
                self._answer(batch, exc)
                self._busy -= 1
                self._cond.notify_all()
                raise
            finally:
                self._filling = None
            if self._queue and self._busy < self._slots:
                # A block queued that this batch could not take, and a
                # slot is free: a waiting caller may lead it now.
                self._cond.notify_all()
        return batch

    def _start(self, batch: List[ServeRequest]) -> FinishFn:
        """Start ``batch``'s dispatch; returns what finishes it (raising
        the error, if it failed to start).

        Runs in the head block's submit-time context (when captured), so
        its trace parents the dispatch on whichever thread leads; one
        batch = one model call = one context.
        """
        head = batch[0]
        rows = (
            head.rows if len(batch) == 1
            else np.concatenate([request.rows for request in batch])
        )
        try:
            if head.context is not None:
                return head.context.run(self._dispatch, head.method, rows, batch)
            return self._dispatch(head.method, rows, batch)
        except BaseException as exc:  # delivered by _finish
            return functools.partial(_raise, exc)

    def _finish(self, batch: List[ServeRequest], finish: FinishFn) -> None:
        """Finish ``batch``'s dispatch, give each block its slice of the
        results (or the error) and give the slot back; an interrupt that
        failed the batch is raised again once the slot is back."""
        error: Optional[BaseException] = None
        try:
            head = batch[0]
            results = (
                head.context.run(finish) if head.context is not None
                else finish()
            )
            offset = 0
            for request in batch:
                rows = len(request.rows)
                request.result = results[offset:offset + rows]
                offset += rows
            if offset != len(results):
                raise RuntimeError(
                    f"dispatch returned {len(results)} results for a "
                    f"batch of {offset} rows"
                )
        except BaseException as exc:  # delivered to every caller
            error = exc
        self._answer(batch, error)
        with self._cond:
            self._busy -= 1
            self._cond.notify_all()
        if error is not None and not isinstance(error, Exception):
            raise error

    @staticmethod
    def _answer(
        batch: List[ServeRequest], error: Optional[BaseException]
    ) -> None:
        """Mark every block done (failed by ``error``, if any) and wake
        its submitter."""
        for request in batch:
            if error is not None:
                request.result = None
                request.error = error
            request.state = _DONE
            request.event.set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, drain: bool = True) -> None:
        """Stop accepting blocks; never abandons an accepted request.

        ``drain=True`` leads whatever is still queued on the closing
        thread, so a block whose submitter stopped waiting is answered
        too; ``drain=False`` fails the queued blocks with a typed
        :class:`ServerClosed` error.  Either way ``close`` returns once
        no batch is in flight: no future is left hanging.
        """
        with self._cond:
            self._stopping = True
            if not drain:
                self._answer(
                    list(self._queue),
                    ServerClosed("server closed before dispatch"),
                )
                self._queue.clear()
                self._queued_rows = 0
                self._cond.notify_all()
            self._filler.notify_all()  # a filling batch dispatches now
        while True:
            with self._cond:
                if self._queue and self._may_lead_locked():
                    batch = self._open_locked(None, None)
                elif self._queue or self._busy:
                    self._cond.wait()
                    continue
                else:
                    return
            self._finish(batch, self._start(batch))

    @property
    def workers(self) -> int:
        """Number of dispatch slots."""
        return self._slots

    def __repr__(self) -> str:
        return (
            f"MicroBatcher(max_batch_size={self.max_batch_size}, "
            f"depth={self.depth()}, workers={self._slots})"
        )
