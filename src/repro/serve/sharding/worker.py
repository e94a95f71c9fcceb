"""Shard worker process: an isolated model snapshot scoring slab batches.

Each worker is a separate OS process, which is the whole point of the
sharded tier: NumPy model dispatch in one process serializes on the
GIL, but N processes each holding an immutable model snapshot score N
batches genuinely concurrently.  A worker's loop is deliberately tiny:

1. block on the control pipe for one framed command;
2. ``score`` — view the request slab (zero copies in), call the model
   method on the ``(n_rows, d)`` view, write the flattened result into
   the response slab (zero pickling out), ack with shape/dtype/timing
   and the version it scored with;
3. ``swap`` — deserialize a state-dict blob into its model *between*
   batches (commands are processed strictly in order, so a swap can
   never tear a batch) and ack the new version;
4. ``stop`` — clean exit.

The worker applies state via
:func:`repro.nn.checkpoint.load_network_state_dict`, the same lenient
loader the registry uses, so hot-swap semantics match the
single-process server exactly.  It never touches the registry, disk or
the network: the supervisor ships fully materialized state blobs, which
keeps the failure domain of a flaky registry out of the scoring path.

Workers are forked before the supervisor starts its monitor thread (see
:class:`~repro.serve.sharding.supervisor.ShardSupervisor`), inherit the
slab mappings and pipe ends directly, and ignore SIGINT — shutdown is
the parent's ``stop`` command (or, under chaos drills, SIGKILL).
"""

from __future__ import annotations

import io
import signal
import time
from multiprocessing import connection
from typing import Any, Optional, Tuple

import numpy as np

from ...nn.checkpoint import load_network_state_dict, network_state_dict

__all__ = ["state_blob", "apply_state_blob", "shard_worker_main"]


def state_blob(model: Any) -> bytes:
    """Serialize ``model``'s parameters to a compact ``.npz`` byte blob."""
    buffer = io.BytesIO()
    np.savez(buffer, **network_state_dict(model))
    return buffer.getvalue()


def apply_state_blob(model: Any, blob: bytes) -> None:
    """Load a :func:`state_blob` payload into ``model`` in place."""
    with np.load(io.BytesIO(blob)) as archive:
        state = {key: archive[key] for key in archive.files}
    load_network_state_dict(model, state, strict=False)


def _score_once(
    model: Any,
    method: str,
    batch: np.ndarray,
    response_slab: np.ndarray,
) -> Tuple[Tuple[int, ...], str, float]:
    """One model call; writes results into the slab, returns the ack fields."""
    bound = getattr(model, method, None)
    if not callable(bound):
        raise AttributeError(
            f"model {type(model).__name__} does not support {method!r}"
        )
    started = time.monotonic()
    out = np.asarray(bound(batch))
    elapsed = time.monotonic() - started
    n_rows = batch.shape[0]
    flat = out.reshape(n_rows, -1)
    width = flat.shape[1]
    if width > response_slab.shape[1]:
        raise ValueError(
            f"{method} produced {width} values/row but the response slab "
            f"holds {response_slab.shape[1]}"
        )
    response_slab[:n_rows, :width] = flat
    return tuple(out.shape[1:]), out.dtype.str, elapsed


def shard_worker_main(
    shard_id: int,
    conn: connection.Connection,
    request_slab: np.ndarray,
    response_slab: np.ndarray,
    model: Any,
    version: str,
    initial_blob: Optional[bytes] = None,
) -> None:
    """Run one shard worker until ``stop`` / pipe loss (process target).

    ``model`` arrives through fork inheritance (no pickling); a respawn
    passes ``initial_blob`` so the fresh process starts from the
    last-known-good snapshot rather than the original fork image.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if initial_blob is not None:
        apply_state_blob(model, initial_blob)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        kind = message[0]
        if kind == "stop":
            return
        if kind == "score":
            _kind, batch_id, method, n_rows = message
            try:
                out_shape, dtype_str, elapsed = _score_once(
                    model, method, request_slab[:n_rows], response_slab
                )
            except Exception as exc:
                reply: Tuple[Any, ...] = (
                    "error", batch_id, type(exc).__name__, str(exc), version,
                )
            else:
                reply = ("ok", batch_id, out_shape, dtype_str, elapsed,
                         version)
        elif kind == "swap":
            _kind, new_version, blob = message
            try:
                apply_state_blob(model, blob)
            except Exception as exc:
                reply = ("error", -1, type(exc).__name__, str(exc), version)
            else:
                version = new_version
                reply = ("swapped", version)
        else:
            reply = ("error", -1, "ValueError",
                     f"unknown command {kind!r}", version)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return
