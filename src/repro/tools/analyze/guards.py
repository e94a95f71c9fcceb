"""Guard-set inference: GUARD-VIOLATION findings.

The invariant, per class: *an attribute ever written under*
``with self._lock:`` *is guarded by that lock* — every other read or
write of it must hold the same lock.  The ``LOCK-DISCIPLINE`` lint
rule checks the write half of this; ``GUARD-VIOLATION`` checks reads
too, because the repository's actual bugs were torn *reads* — the
``PredictionCache.hit_rate`` pairing a fresh ``hits`` with a stale
``misses``, the ``PhaseTimer`` summary reading ``total_seconds`` and
``count`` from different moments.

Violations are reported with the guard that was inferred and where the
guarding write lives, so the finding reads as an argument, not an
accusation::

    cache.py:181:9: GUARD-VIOLATION: `self.hits` is guarded by
    `self._lock` (written under it in PredictionCache) but read here
    without holding it

Escapes: ``__init__``/``__new__`` bodies (no concurrent reader exists
yet), ``*_locked`` helpers (callers hold the lock by convention), and
per-line ``# reprolint: disable=GUARD-VIOLATION`` suppressions with a
justification for the deliberate unguarded fast paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Set, Tuple

from .symbols import Access, ClassInfo

__all__ = ["GUARD_VIOLATION", "GuardViolation", "class_violations"]

GUARD_VIOLATION = "GUARD-VIOLATION"


@dataclass(frozen=True)
class GuardViolation:
    """One unguarded access to a guarded attribute."""

    cls: ClassInfo
    method: str
    access: Access
    guards: FrozenSet[str]

    def message(self) -> str:
        guard = "`self." + "`/`self.".join(sorted(self.guards)) + "`"
        verb = "written" if self.access.kind == "write" else "read"
        clause = (
            "under a different lock"
            if self.access.held
            else "without holding it"
        )
        return (
            f"`self.{self.access.attr}` is guarded by {guard} (written "
            f"under it in {self.cls.name}) but {verb} here {clause}"
        )


def class_violations(cls: ClassInfo) -> List[GuardViolation]:
    """Every unguarded access to a guarded attribute of one class."""
    if not cls.lock_attrs:
        return []
    guards = cls.guarded_attrs()
    if not guards:
        return []
    violations: List[GuardViolation] = []
    seen: Set[Tuple[str, int, str]] = set()
    for method in cls.methods.values():
        if method.exempt:
            continue
        for access in method.accesses:
            guard_locks = guards.get(access.attr)
            if guard_locks is None:
                continue
            if access.held & guard_locks:
                continue
            # One finding per attribute per line: an AugAssign's read
            # half, or a mutator call's receiver read, must not double
            # the report of the write at the same spot.
            key = (access.attr, access.line, method.name)
            if key in seen:
                continue
            seen.add(key)
            violations.append(
                GuardViolation(cls, method.name, access, guard_locks)
            )
    violations.sort(key=lambda v: (v.access.line, v.access.col, v.access.attr))
    return violations

