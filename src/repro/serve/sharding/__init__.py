"""Multi-process sharded serving tier.

:class:`~repro.serve.sharding.server.ShardedModelServer` is a
:class:`~repro.serve.server.ModelServer` subclass: it inherits the
request lifecycle and adds the fleet, composed of these pieces:

- :mod:`~repro.serve.sharding.hashing` — seeded consistent-hash ring
  (stable, bounded-movement routing of cache-keyed requests);
- :mod:`~repro.serve.sharding.shm` — shared-memory slab channel (row
  data never crosses the process boundary through pickle);
- :mod:`~repro.serve.sharding.worker` — the shard process loop with an
  isolated model snapshot and in-place hot-swap;
- :mod:`~repro.serve.sharding.supervisor` — spawn/watch/respawn with
  last-known-good snapshots and atomic swap broadcast;
- :mod:`~repro.serve.sharding.server` — the
  :class:`~repro.serve.sharding.server.ShardedModelServer` itself: the
  lifecycle steps where the fleet differs from one process.
"""

from .hashing import ConsistentHashRing, routing_key
from .server import ShardedModelServer
from .shm import ScoreResult, ShardChannel, ShardDead, ShardWorkerError
from .supervisor import ShardHandle, ShardSupervisor
from .worker import apply_state_blob, shard_worker_main, state_blob

__all__ = [
    "ConsistentHashRing",
    "routing_key",
    "ShardedModelServer",
    "ScoreResult",
    "ShardChannel",
    "ShardDead",
    "ShardWorkerError",
    "ShardHandle",
    "ShardSupervisor",
    "apply_state_blob",
    "shard_worker_main",
    "state_blob",
]
