"""LRU prediction cache keyed on feature-row content hashes.

Live analytics traffic is heavily repetitive — the same patient row is
scored by several dashboards, retries re-send identical queries — so
the serving layer memoizes per-row results.  Keys cover the model
*version* as well as the row bytes and the requested method, which is
what makes the cache safe under the registry's hot-swap: activating a
new version changes every key, so stale predictions can never be
served (no explicit invalidation needed).

Two resilience features ride on top of the plain LRU:

- **full accounting** — hits, misses, inserts, evictions and detected
  corruptions are counted under the same lock that guards the entries,
  so ``stats()`` is a consistent snapshot even under concurrent
  traffic (``inserts - evictions == size`` always holds);
- **optional integrity checking** — with ``integrity=True`` every
  entry stores a content checksum at ``put`` time and re-verifies it at
  ``get`` time; a mismatch (a poisoned or bit-rotted entry) is evicted
  and reported as a miss, so corruption degrades to one recompute
  instead of a wrong answer.  This is the detection side of the
  :class:`~repro.serve.resilience.FaultInjector`'s cache-corruption
  chaos.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..telemetry.trace import add_event

__all__ = ["PredictionCache"]


class PredictionCache:
    """Thread-safe LRU cache of single-row prediction results.

    Parameters
    ----------
    maxsize:
        Maximum number of cached rows; ``0`` disables the cache (every
        lookup misses, nothing is stored).
    integrity:
        When True, entries carry a content checksum verified on every
        hit; mismatching entries are dropped and counted in
        ``corruptions`` instead of being served.

    Hit/miss totals are kept here as plain integers; the server mirrors
    them into its :class:`~repro.telemetry.metrics.MetricsRegistry`
    counters so they show up in snapshots alongside latency and queue
    metrics.
    """

    def __init__(self, maxsize: int = 1024, integrity: bool = False) -> None:
        if maxsize < 0:
            raise ValueError(f"maxsize must be >= 0, got {maxsize}")
        self.maxsize = int(maxsize)
        self.integrity = bool(integrity)
        # key -> (value, checksum-or-None)
        self._entries: "OrderedDict[bytes, Tuple[Any, Optional[bytes]]]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.inserts = 0
        self.evictions = 0
        self.corruptions = 0

    @staticmethod
    def make_keys(method: str, version: str, rows: np.ndarray) -> List[bytes]:
        """Per row of ``rows``: digest of method, version, dtype/shape/bytes.

        The method, version, dtype and per-row shape are hashed once
        into a shared prefix; each row then costs one ``copy()`` of that
        prefix plus its own bytes, read from a single buffer.
        """
        rows = np.ascontiguousarray(rows)
        prefix = hashlib.sha1()
        prefix.update(method.encode())
        prefix.update(b"\x00")
        prefix.update(version.encode())
        prefix.update(b"\x00")
        prefix.update(rows.dtype.str.encode())
        prefix.update(str(rows.shape[1:]).encode())
        data = memoryview(rows.tobytes())
        width = rows.nbytes // len(rows) if len(rows) else 0
        keys = []
        for index in range(len(rows)):
            digest = prefix.copy()
            digest.update(data[index * width:(index + 1) * width])
            keys.append(digest.digest())
        return keys

    @staticmethod
    def make_key(method: str, version: str, row: np.ndarray) -> bytes:
        """Digest of one row: the one-row case of :meth:`make_keys`."""
        return PredictionCache.make_keys(
            method, version, np.asarray(row)[np.newaxis]
        )[0]

    @staticmethod
    def fingerprint(value: Any) -> bytes:
        """Content checksum of a cached value (integrity mode).

        Numeric scalars/arrays hash their dtype, shape and raw bytes;
        anything that cannot be viewed as contiguous bytes falls back to
        hashing its ``repr``.
        """
        digest = hashlib.sha1()
        try:
            arr = np.ascontiguousarray(value)
            if arr.dtype.hasobject:
                raise TypeError("object arrays have no stable bytes")
            digest.update(str(arr.dtype).encode())
            digest.update(str(arr.shape).encode())
            digest.update(arr.tobytes())
        except (TypeError, ValueError):
            digest.update(repr(value).encode())
        return digest.digest()

    def get_many(self, keys: Sequence[bytes]) -> List[Tuple[bool, Any]]:
        """``(hit, value)`` per key, all looked up under one lock.

        A hit refreshes the entry's recency.  In integrity mode a
        checksum mismatch evicts the entry and reports a miss (counted
        in ``corruptions``) — a poisoned cache line costs one
        recompute, never a wrong answer.
        """
        found: List[Tuple[bool, Any]] = []
        with self._lock:
            for key in keys:
                entry = self._entries.get(key)
                if entry is None:
                    self.misses += 1
                    found.append((False, None))
                    continue
                value, checksum = entry
                if checksum is not None and (
                    PredictionCache.fingerprint(value) != checksum
                ):
                    del self._entries[key]
                    self.corruptions += 1
                    self.evictions += 1
                    self.misses += 1
                    add_event("cache_corruption_detected")
                    found.append((False, None))
                    continue
                self._entries.move_to_end(key)
                self.hits += 1
                found.append((True, value))
        return found

    def get(self, key: bytes) -> Tuple[bool, Optional[Any]]:
        """``(hit, value)`` of one key: the one-key :meth:`get_many`."""
        return self.get_many([key])[0]

    def put_many(
        self,
        keys: Sequence[bytes],
        values: Sequence[Any],
        originals: Optional[Sequence[Any]] = None,
    ) -> None:
        """Insert/refresh every ``keys[i] -> values[i]`` under one lock.

        Least-recent entries beyond capacity are evicted.  In integrity
        mode each entry's checksum is taken from ``originals[i]`` when
        given, else from ``values[i]`` — the chaos seam: a corrupted
        value stored under its honest original's checksum is caught by
        the next lookup (see :meth:`put_poisoned`).
        """
        if self.maxsize == 0:
            return
        checksums: Sequence[Optional[bytes]] = (
            [PredictionCache.fingerprint(value)
             for value in (values if originals is None else originals)]
            if self.integrity
            else [None] * len(keys)
        )
        with self._lock:
            for key, value, checksum in zip(keys, values, checksums):
                if key not in self._entries:
                    self.inserts += 1
                self._entries[key] = (value, checksum)
                self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1

    def put(self, key: bytes, value: Any) -> None:
        """Insert/refresh one entry: the one-key case of :meth:`put_many`."""
        self.put_many([key], [value])

    def put_poisoned(self, key: bytes, value: Any, original: Any) -> None:
        """Store ``value`` under the checksum of ``original`` (chaos seam).

        This is how the :class:`~repro.serve.resilience.FaultInjector`
        plants *detectable* corruption: the entry's bytes are the
        corrupted ``value`` but its checksum describes ``original``, so
        the next :meth:`get` notices the mismatch and evicts instead of
        serving a wrong answer.  Outside integrity mode this is a plain
        :meth:`put` of the corrupted value — silent corruption, which is
        exactly the failure mode integrity mode exists to remove.
        """
        self.put_many([key], [value], originals=[original])

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when none yet).

        ``hits`` and ``misses`` are read together *under the entry
        lock*: a field-by-field read racing a concurrent ``get`` could
        pair a fresh ``hits`` with a stale ``misses`` (or vice versa)
        and report a rate that corresponds to no actual moment — the
        aggregation bug the concurrent-stats test pins down.
        """
        with self._lock:
            hits, misses = self.hits, self.misses
        total = hits + misses
        return hits / total if total else 0.0

    def stats(self) -> Dict[str, Any]:
        """Consistent snapshot of size and all counters.

        Taken under the entry lock, so the invariant
        ``inserts - evictions == size`` holds in every snapshot no
        matter how many threads are mid-``get``/``put``.
        """
        with self._lock:
            hits, misses = self.hits, self.misses
            total = hits + misses
            return {
                "size": len(self._entries),
                "maxsize": self.maxsize,
                "hits": hits,
                "misses": misses,
                "inserts": self.inserts,
                "evictions": self.evictions,
                "corruptions": self.corruptions,
                "hit_rate": hits / total if total else 0.0,
                "integrity": self.integrity,
            }

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        with self._lock:
            self.evictions += len(self._entries)
            self._entries.clear()

    def __repr__(self) -> str:
        snapshot = self.stats()
        return (
            f"PredictionCache(size={snapshot['size']}/{self.maxsize}, "
            f"hits={snapshot['hits']}, misses={snapshot['misses']})"
        )
