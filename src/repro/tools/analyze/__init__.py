"""Whole-project concurrency analyses and the runtime lock-order checker.

The repository's worst real bugs have all been concurrency bugs — the
PhaseTimer thread-safety bug, PredictionCache stats read outside the
lock, MicroBatcher shutdown stranding queued waiters.  A per-file
pattern cannot see *which* attributes a lock actually guards or in
what order locks nest across classes, so this package builds the
project-wide view that the lock rules of :mod:`repro.tools.lint`
(``LOCK-DISCIPLINE``, ``GUARD-VIOLATION``, ``LOCK-ORDER-CYCLE``) read:

- :mod:`repro.tools.analyze.symbols` — a class/attribute symbol table
  over every file under analysis: lock attributes, per-method attribute
  reads/writes with the set of locks held at each access, lock
  acquisitions, call sites and inferred attribute types (the call-edge
  substrate);
- :mod:`repro.tools.analyze.guards` — guard-set inference: an attribute
  written under ``with self._lock:`` anywhere in a class is *guarded*,
  and every read or write of it outside a lock body (or under a
  different lock) is a ``GUARD-VIOLATION``;
- :mod:`repro.tools.analyze.lockorder` — a cross-class
  lock-acquisition-order graph from nested ``with`` bodies and call
  edges; every cycle is a ``LOCK-ORDER-CYCLE`` (potential deadlock),
  exportable as Graphviz DOT;
- :mod:`repro.tools.analyze.lockcheck` — the runtime side: a
  :class:`~repro.tools.analyze.lockcheck.CheckedLock` sanitizer that
  records per-thread acquisition stacks during the test suite and
  raises on any lock-order inversion observed live.

The lint runner builds the table and the graph once per run, so
``python -m repro.tools.lint src/`` reports these findings with the
same suppressions, baseline, JSON output and exit codes as every other
rule, and ``--dot FILE`` writes the graph.
"""

from .guards import GUARD_VIOLATION, GuardViolation, class_violations
from .lockcheck import CheckedLock, LockInversion, LockOrderError, LockOrderTracker
from .lockorder import LOCK_ORDER_CYCLE, LockOrderGraph, build_lock_graph
from .symbols import ClassInfo, MethodInfo, SymbolTable

__all__ = [
    "CheckedLock",
    "ClassInfo",
    "GUARD_VIOLATION",
    "GuardViolation",
    "LOCK_ORDER_CYCLE",
    "LockInversion",
    "LockOrderError",
    "LockOrderGraph",
    "LockOrderTracker",
    "MethodInfo",
    "SymbolTable",
    "build_lock_graph",
    "class_violations",
]
