"""Shared-memory request/response channel between server and one shard.

Row data never crosses the process boundary through pickle.  Each shard
owns two fixed-size float64 slabs allocated from anonymous shared
memory (``multiprocessing.sharedctypes.RawArray`` — plain ``mmap``
pages both sides view as NumPy arrays):

- a **request slab** of ``slots x n_features`` the parent writes
  coalesced batch rows into, and
- a **response slab** of ``slots x out_width`` the worker writes
  per-row results into.

What *does* cross the pipe is a few dozen bytes of framing per batch:
``("score", batch_id, method, n_rows)`` one way and an ack carrying the
output shape/dtype, worker-side timing and the worker's current model
version the other.  One batch per shard is in flight at a time — the
channel's lock is held from :meth:`~ShardChannel.send` to
:meth:`~ShardChannel.receive` — so the slabs need no slot allocator
and replies always match the command that is waiting.  That
single-flight discipline is not a throughput limit: cross-shard
parallelism comes from having N channels (a caller sends to each
before it receives from any), and within a shard the worker is a
single CPU-bound process anyway.

Worker death is detected, not assumed: every receive polls with a short
interval and consults a liveness probe (the supervisor wires in
``Process.is_alive``), so a SIGKILLed worker surfaces as
:class:`ShardDead` within ~one poll interval instead of a hung request.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from multiprocessing import connection, sharedctypes
from typing import Any, Callable, Optional, Tuple

import numpy as np

__all__ = ["ShardDead", "ShardWorkerError", "ScoreResult", "ShardChannel"]

#: Seconds between liveness polls while waiting on a worker reply.
POLL_INTERVAL = 0.02

LivenessFn = Callable[[], bool]


class ShardDead(RuntimeError):
    """The shard worker died (or stopped answering) mid-conversation.

    The dispatch path treats this like any other batch failure: the
    affected rows are rescued inline on the parent's model snapshot
    while the supervisor respawns the worker — zero requests dropped.
    """

    def __init__(self, shard_id: int, detail: str) -> None:
        self.shard_id = shard_id
        super().__init__(f"shard {shard_id}: {detail}")


class ShardWorkerError(RuntimeError):
    """The worker's model call raised; carries the remote error text."""

    def __init__(self, shard_id: int, exc_type: str, detail: str) -> None:
        self.shard_id = shard_id
        self.remote_type = exc_type
        super().__init__(f"shard {shard_id}: {exc_type}: {detail}")


@dataclass(frozen=True)
class ScoreResult:
    """One scored batch as read back from the response slab.

    ``values`` is the dense ``(n_rows, width)`` float64 copy;
    ``out_shape`` / ``dtype_str`` restore each row's original result
    shape and dtype; ``version`` is the model version the worker
    actually scored with (authoritative for cache keys — the parent's
    idea of the version can lag a hot-swap by one in-flight batch).
    """

    values: np.ndarray
    out_shape: Tuple[int, ...]
    dtype_str: str
    worker_seconds: float
    version: str

    def row_value(self, index: int) -> Any:
        """Reconstruct row ``index``'s result exactly as the model made it.

        Scalars come back as NumPy scalars (matching ``list(model_out)``
        on the single-process path); vector outputs are reshaped and
        cast back to the model's dtype.  float64 and int64 round-trip
        through the slab bit-exactly, which is what keeps sharded labels
        identical to the single-process path.
        """
        width = int(np.prod(self.out_shape)) if self.out_shape else 1
        flat = self.values[index, :width]
        dtype = np.dtype(self.dtype_str)
        if not self.out_shape:
            return flat.astype(dtype, copy=False)[0]
        return flat.reshape(self.out_shape).astype(dtype, copy=False)


class ShardChannel:
    """Parent-side endpoint of one shard's slab + pipe conversation.

    Parameters
    ----------
    shard_id:
        Ring position (also the metrics label).
    slots:
        Row capacity of the slabs — the shard's ``max_batch_size``.
    n_features:
        Row width of the request slab.
    out_width:
        Row width of the response slab (max output elements per row
        over all supported methods, probed by the server at startup).
    clock:
        Injectable monotonic clock (tests substitute a fake to exercise
        timeouts without sleeping).
    """

    def __init__(
        self,
        shard_id: int,
        slots: int,
        n_features: int,
        out_width: int,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        if n_features < 1:
            raise ValueError(f"n_features must be >= 1, got {n_features}")
        if out_width < 1:
            raise ValueError(f"out_width must be >= 1, got {out_width}")
        self.shard_id = int(shard_id)
        self.slots = int(slots)
        self.n_features = int(n_features)
        self.out_width = int(out_width)
        self._clock = clock
        self._req_raw = sharedctypes.RawArray("d", self.slots * self.n_features)
        self._resp_raw = sharedctypes.RawArray("d", self.slots * self.out_width)
        self.request_slab = np.frombuffer(
            self._req_raw, dtype=np.float64
        ).reshape(self.slots, self.n_features)
        self.response_slab = np.frombuffer(
            self._resp_raw, dtype=np.float64
        ).reshape(self.slots, self.out_width)
        self._lock = threading.Lock()
        self._batch_serial = 0
        self._batch_rows = 0  # of the batch in flight
        parent_conn, child_conn = connection.Pipe(duplex=True)
        self._parent_conn: connection.Connection = parent_conn
        #: Handed to the worker process at spawn (fork inherits it).
        self.child_conn: connection.Connection = child_conn
        self._liveness: LivenessFn = lambda: True

    def bind_liveness(self, probe: LivenessFn) -> None:
        """Install the supervisor's ``is_alive`` probe for recv polling."""
        self._liveness = probe

    def reset_pipe(self) -> None:
        """Fresh pipe for a respawned worker (stale replies discarded).

        Called by the supervisor with the channel lock *not* held — the
        dying conversation's holder observes :class:`ShardDead` via its
        liveness poll and releases before respawn proceeds.
        """
        with self._lock:
            try:
                self._parent_conn.close()
                self.child_conn.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            parent_conn, child_conn = connection.Pipe(duplex=True)
            self._parent_conn = parent_conn
            self.child_conn = child_conn

    # ------------------------------------------------------------------
    # Conversation primitives (one in flight; caller-visible lock)
    # ------------------------------------------------------------------
    def _recv_locked(self, timeout: float) -> Tuple[Any, ...]:
        deadline = self._clock() + timeout
        conn = self._parent_conn
        while True:
            try:
                if conn.poll(POLL_INTERVAL):
                    reply = conn.recv()
                    if not isinstance(reply, tuple) or not reply:
                        raise ShardDead(
                            self.shard_id, f"malformed reply {reply!r}"
                        )
                    return reply
            except (EOFError, BrokenPipeError, OSError) as exc:
                raise ShardDead(self.shard_id, f"pipe broken: {exc}") from exc
            if not self._liveness():
                raise ShardDead(self.shard_id, "worker process died")
            if self._clock() >= deadline:
                raise ShardDead(
                    self.shard_id, f"no reply within {timeout:.1f}s"
                )

    def _send_locked(self, message: Tuple[Any, ...]) -> None:
        try:
            self._parent_conn.send(message)
        except (BrokenPipeError, OSError) as exc:
            raise ShardDead(self.shard_id, f"pipe broken: {exc}") from exc

    def send(self, method: str, batch: np.ndarray) -> None:
        """Start one coalesced batch's conversation with the worker.

        ``batch`` is ``(n_rows, n_features)`` float64, ``n_rows <=
        slots``.  The channel lock stays held until :meth:`receive`,
        which must follow, so no swap lands inside a score.
        """
        n_rows = int(batch.shape[0])
        if n_rows > self.slots:
            raise ValueError(
                f"batch of {n_rows} exceeds the {self.slots}-slot slab"
            )
        self._lock.acquire()
        try:
            self._batch_serial += 1
            self._batch_rows = n_rows
            self.request_slab[:n_rows] = batch
            self._send_locked(("score", self._batch_serial, method, n_rows))
        except BaseException:
            self._lock.release()
            raise

    def receive(self, timeout: float) -> ScoreResult:
        """End the conversation :meth:`send` started: the scored rows.

        Raises :class:`ShardDead` on death/timeout and
        :class:`ShardWorkerError` when the worker's model call raised.
        """
        try:
            reply = self._recv_locked(timeout)
            kind = reply[0]
            if kind == "error":
                _kind, _batch_id, exc_type, detail, _version = reply
                raise ShardWorkerError(self.shard_id, exc_type, detail)
            if kind != "ok" or reply[1] != self._batch_serial:
                raise ShardDead(
                    self.shard_id, f"protocol violation: reply {reply!r}"
                )
            _kind, _batch_id, out_shape, dtype_str, worker_seconds, version = (
                reply
            )
            width = int(np.prod(out_shape)) if out_shape else 1
            values = self.response_slab[:self._batch_rows, :width].copy()
        finally:
            self._lock.release()
        return ScoreResult(
            values=values,
            out_shape=tuple(out_shape),
            dtype_str=dtype_str,
            worker_seconds=float(worker_seconds),
            version=str(version),
        )

    def swap(self, version: str, state_blob: bytes, timeout: float) -> None:
        """Ship a serialized state dict; returns once the worker applied it."""
        with self._lock:
            self._send_locked(("swap", version, state_blob))
            reply = self._recv_locked(timeout)
            if reply[0] != "swapped" or reply[1] != version:
                raise ShardDead(
                    self.shard_id, f"swap not acknowledged: {reply!r}"
                )

    def stop(self) -> None:
        """Best-effort shutdown notice (no ack expected)."""
        with self._lock:
            try:
                self._parent_conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass

    def close(self) -> None:
        """Close both pipe ends (slabs are reclaimed with the process).

        Takes the channel lock so a concurrent :meth:`reset_pipe` can
        neither resurrect a closed channel nor leak its fresh pipe.
        """
        with self._lock:
            for conn in (self._parent_conn, self.child_conn):
                try:
                    conn.close()
                except OSError:  # pragma: no cover - close is best-effort
                    pass

    def __repr__(self) -> str:
        return (
            f"ShardChannel(shard={self.shard_id}, slots={self.slots}, "
            f"n_features={self.n_features}, out_width={self.out_width})"
        )
