"""Shard supervisor: spawn, watch, respawn and hot-swap worker processes.

The supervisor owns the *process* lifecycle of the sharded tier so the
server can treat shards as just "channels that sometimes die":

- **spawn** — workers are forked up front, *before* the monitor
  thread starts (forking a threaded process risks cloning a held
  allocator lock into the child; forking first sidesteps the whole
  class of problem for the initial fleet);
- **watch** — a monitor thread polls ``Process.is_alive`` every
  ``monitor_interval`` seconds and respawns anything dead, and a
  caller rescuing a batch whose worker died respawns it at once;
- **respawn** — a fresh process gets a fresh pipe (stale replies from
  the dead incarnation can never be mistaken for new ones) and the
  **last-known-good state blob**, so a worker that died after a
  hot-swap comes back serving the swapped version, not the fork-time
  snapshot;
- **hot-swap** — :meth:`ShardSupervisor.broadcast_swap` ships one
  serialized state dict to every worker and waits for every ack before
  returning; the blob is recorded first, so even a shard that dies
  mid-broadcast is respawned straight into the new version.  Publish →
  broadcast is therefore atomic from the caller's view: when it
  returns, no worker can score another batch with the old parameters.

Respawns and liveness are exported per shard
(``serve/shard/<i>/respawns_total``, ``serve/shard/<i>/alive``) so a
flapping worker is visible on the same metrics surface as everything
else in this repository.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from typing import Any, Dict, List, Optional

from ...telemetry.metrics import MetricsRegistry
from ...telemetry.trace import add_event
from .shm import ShardChannel, ShardDead
from .worker import shard_worker_main, state_blob

__all__ = ["ShardHandle", "ShardSupervisor"]

#: Default seconds between monitor liveness sweeps.
MONITOR_INTERVAL = 0.05

#: Default seconds to wait for a swap/stop acknowledgement.
CONTROL_TIMEOUT = 30.0


class ShardHandle:
    """One shard's channel + current process incarnation."""

    def __init__(self, shard_id: int, channel: ShardChannel) -> None:
        self.shard_id = shard_id
        self.channel = channel
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.respawns = 0
        self.version = "v0"

    @property
    def alive(self) -> bool:
        """Whether the current worker process is running."""
        return self.process is not None and self.process.is_alive()

    def __repr__(self) -> str:
        return (
            f"ShardHandle(shard={self.shard_id}, alive={self.alive}, "
            f"version={self.version!r}, respawns={self.respawns})"
        )


class ShardSupervisor:
    """Keep ``n_shards`` worker processes alive and on the right version.

    Parameters
    ----------
    model:
        The fork-time model template; each worker starts from a copy of
        it (copy-on-write via fork) plus the last-known-good state blob.
    n_shards, slots, n_features, out_width:
        Fleet size and slab geometry (see
        :class:`~repro.serve.sharding.shm.ShardChannel`).
    version:
        Version label of the initial snapshot.
    metrics:
        Registry for per-shard liveness/respawn instruments.
    monitor_interval:
        Seconds between liveness sweeps.

    Workers start by ``fork``, which supports unpicklable models; the
    constructor forks the initial fleet, then starts the monitor thread.
    """

    def __init__(
        self,
        model: Any,
        n_shards: int,
        slots: int,
        n_features: int,
        out_width: int,
        version: str = "v0",
        metrics: Optional[MetricsRegistry] = None,
        monitor_interval: float = MONITOR_INTERVAL,
        control_timeout: float = CONTROL_TIMEOUT,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = int(n_shards)
        self.monitor_interval = float(monitor_interval)
        self.control_timeout = float(control_timeout)
        self.metrics = metrics
        self._ctx = multiprocessing.get_context("fork")
        self._model = model
        self._lock = threading.Lock()
        self._last_version = version
        self._last_blob: Optional[bytes] = None
        self._closing = threading.Event()
        self.handles: List[ShardHandle] = []
        for shard_id in range(self.n_shards):
            channel = ShardChannel(
                shard_id, slots=slots, n_features=n_features,
                out_width=out_width,
            )
            handle = ShardHandle(shard_id, channel)
            handle.version = version
            self.handles.append(handle)
            self._spawn_locked(handle)
        self._monitor = threading.Thread(
            target=self._watch, name="shard-supervisor", daemon=True
        )
        self._monitor.start()

    # ------------------------------------------------------------------
    # Process lifecycle
    # ------------------------------------------------------------------
    def _spawn_locked(self, handle: ShardHandle) -> None:
        # *_locked: callers hold self._lock (or are the constructor).
        process = self._ctx.Process(
            target=shard_worker_main,
            args=(
                handle.shard_id,
                handle.channel.child_conn,
                handle.channel.request_slab,
                handle.channel.response_slab,
                self._model,
                self._last_version,
                self._last_blob,
            ),
            name=f"repro-shard-{handle.shard_id}",
            daemon=True,
        )
        process.start()
        handle.process = process
        handle.version = self._last_version
        handle.channel.bind_liveness(process.is_alive)
        self._export_alive(handle)

    def _export_alive(self, handle: ShardHandle) -> None:
        if self.metrics is not None:
            self.metrics.gauge(
                f"serve/shard/{handle.shard_id}/alive"
            ).set(1.0 if handle.alive else 0.0)

    def _watch(self) -> None:
        while not self._closing.wait(self.monitor_interval):
            for handle in self.handles:
                if not handle.alive:
                    self.respawn(handle.shard_id)

    def respawn(self, shard_id: int) -> bool:
        """Replace a dead worker (no-op if it is alive or we are closing).

        Returns True when a new process was actually started.  The dead
        incarnation's pipe is replaced first so a half-written reply
        can never leak into the new conversation, and the new worker
        starts from the last-known-good snapshot.
        """
        handle = self.handles[shard_id]
        with self._lock:
            if self._closing.is_set() or handle.alive:
                return False
            self._export_alive(handle)
            handle.channel.reset_pipe()
            self._spawn_locked(handle)
            handle.respawns += 1
            if self.metrics is not None:
                self.metrics.counter(
                    f"serve/shard/{shard_id}/respawns_total"
                ).inc()
            version = self._last_version
        add_event("shard_respawned", shard=shard_id, version=version)
        return True

    def kill(self, shard_id: int) -> None:
        """SIGKILL one worker — the chaos drill's dead-shard injection."""
        process = self.handles[shard_id].process
        if process is not None and process.is_alive():
            process.kill()
            process.join(timeout=self.control_timeout)

    # ------------------------------------------------------------------
    # Hot-swap propagation
    # ------------------------------------------------------------------
    def broadcast_swap(self, version: str, model: Any) -> None:
        """Atomically move every worker to ``model``'s parameters.

        The blob is recorded as last-known-good *before* any send, so a
        worker that dies mid-broadcast respawns directly into the new
        version; every surviving worker's ack is awaited before
        returning.
        """
        blob = state_blob(model)
        with self._lock:
            self._last_version = version
            self._last_blob = blob
        for handle in self.handles:
            try:
                handle.channel.swap(version, blob, self.control_timeout)
                handle.version = version
            except ShardDead:
                # Respawn picks up the recorded blob — same end state.
                self.respawn(handle.shard_id)
        add_event("shard_swap_broadcast", version=version,
                  shards=self.n_shards)

    @property
    def last_version(self) -> str:
        """Version every (re)spawned worker is currently pointed at."""
        with self._lock:
            return self._last_version

    # ------------------------------------------------------------------
    # Introspection / shutdown
    # ------------------------------------------------------------------
    def alive_mask(self) -> List[bool]:
        """Per-shard process liveness, index-aligned with the ring."""
        return [handle.alive for handle in self.handles]

    def statuses(self) -> List[Dict[str, Any]]:
        """Per-shard operator view (feeds ``ShardedModelServer.health``)."""
        return [
            {
                "shard": handle.shard_id,
                "alive": handle.alive,
                "active_version": handle.version,
                "respawns": handle.respawns,
                "pid": None if handle.process is None else handle.process.pid,
            }
            for handle in self.handles
        ]

    def close(self) -> None:
        """Stop the monitor, then the fleet (stop → join → kill)."""
        self._closing.set()
        self._monitor.join(timeout=self.control_timeout)
        for handle in self.handles:
            handle.channel.stop()
        deadline = time.monotonic() + self.control_timeout
        for handle in self.handles:
            process = handle.process
            if process is None:
                continue
            process.join(timeout=max(0.1, deadline - time.monotonic()))
            if process.is_alive():  # pragma: no cover - stop suffices
                process.kill()
                process.join(timeout=1.0)
            self._export_alive(handle)
            handle.channel.close()

    def __repr__(self) -> str:
        alive = sum(self.alive_mask())
        return (
            f"ShardSupervisor(shards={self.n_shards}, alive={alive}, "
            f"version={self.last_version!r})"
        )
