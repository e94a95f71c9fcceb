"""Lock rules: LOCK-DISCIPLINE, GUARD-VIOLATION and LOCK-ORDER-CYCLE.

The serving layer's correctness argument (atomic hot-swap in
``ModelRegistry``, LRU consistency in ``PredictionCache``, bounded
queue in ``MicroBatcher``) rests on a convention no generic linter
checks: *if an attribute is ever mutated under* ``with self._lock:``,
*every* access to it must hold that lock, and no two code paths may
take the same locks in opposite orders.  A single unguarded write is a
data race that no test reliably catches.

The three rules are project rules: they read the run's one
class/attribute symbol table (:mod:`repro.tools.analyze.symbols`) and
its lock-acquisition-order graph (:mod:`repro.tools.analyze.lockorder`),
which the runner builds once over every parsed file.

- ``LOCK-DISCIPLINE`` flags a write to a guarded attribute made while
  holding *no* class lock.  Each class is built from its own file, so
  this is a per-file check; it keeps its ID, suppressions and baseline
  fingerprints.
- ``GUARD-VIOLATION`` (:mod:`repro.tools.analyze.guards`) is the
  stricter superset: reads too, and accesses under a different lock.
- ``LOCK-ORDER-CYCLE`` flags every acquisition edge inside a cycle of
  the graph (a potential deadlock), across classes and modules.

Two escapes encode legitimate patterns: ``__init__`` / ``__new__`` are
exempt (no concurrent readers can exist before the constructor
returns), and methods whose name ends in ``_locked`` are assumed to be
called with the lock already held — the convention
``MicroBatcher._take_matching_locked`` established.
"""

from __future__ import annotations

from typing import Iterator, Set, Tuple

from ...analyze.guards import GUARD_VIOLATION, class_violations
from ...analyze.lockorder import LOCK_ORDER_CYCLE
from ...analyze.symbols import ClassInfo
from ..engine import Finding, LintContext, Project, ProjectRule

__all__ = ["GuardViolationRule", "LockDisciplineRule", "LockOrderCycleRule"]


class LockDisciplineRule(ProjectRule):
    name = "LOCK-DISCIPLINE"
    description = (
        "Attributes mutated under a class lock must always be mutated "
        "under it (except __init__ and *_locked helpers)"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        for cls in project.table.all_classes():
            yield from self._check_class(project.by_path[cls.path], cls)

    def _check_class(
        self, ctx: LintContext, cls: ClassInfo
    ) -> Iterator[Finding]:
        if not cls.lock_attrs:
            return
        guarded = cls.guarded_attrs()
        if not guarded:
            return
        default_lock = sorted(cls.lock_attrs)[0]
        reported: Set[Tuple[str, int]] = set()
        for method in cls.methods.values():
            if method.exempt:
                continue
            for access in method.accesses:
                if access.kind != "write" or access.attr not in guarded:
                    continue
                if access.held:
                    # Any class lock satisfies this rule; the wrong-lock
                    # case is GUARD-VIOLATION's to report.
                    continue
                key = (access.attr, access.line)
                if key in reported:
                    continue
                reported.add(key)
                yield ctx.finding(
                    self.name,
                    access.line,
                    access.col,
                    f"`self.{access.attr}` is mutated under a lock "
                    f"elsewhere in `{cls.name}` but written here "
                    "without holding one; wrap in `with self."
                    f"{default_lock}:` (or rename the method *_locked "
                    "if callers hold it)",
                )


class GuardViolationRule(ProjectRule):
    name = GUARD_VIOLATION
    description = "Guarded attribute read or written outside its lock"

    def check_project(self, project: Project) -> Iterator[Finding]:
        for cls in project.table.all_classes():
            ctx = project.by_path[cls.path]
            for violation in class_violations(cls):
                access = violation.access
                yield ctx.finding(
                    self.name, access.line, access.col, violation.message()
                )


class LockOrderCycleRule(ProjectRule):
    name = LOCK_ORDER_CYCLE
    description = "Locks acquired in a cyclic order (potential deadlock)"

    def check_project(self, project: Project) -> Iterator[Finding]:
        # One finding per edge of a cycle, at its acquisition site:
        # breaking any edge fixes the deadlock, and each names the ring.
        for edge, component in project.graph.cycle_edges():
            ring = " -> ".join(node.label for node in component)
            detail = f" via {edge.detail}" if edge.detail else ""
            yield project.by_path[edge.path].finding(
                self.name,
                edge.line,
                edge.col,
                f"acquiring `{edge.dst.label}` while holding "
                f"`{edge.src.label}`{detail} closes the cycle "
                f"[{ring} -> {component[0].label}] — opposite-order "
                "acquisition can deadlock",
            )
