"""The project rule set.

``ALL_RULES`` is the canonical ordering used by the CLI and the
self-check test; ``rules_by_name`` supports ``--select``.  The lock
rules are project rules (:class:`~repro.tools.lint.engine.ProjectRule`);
the rest run file by file.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..engine import Rule
from .docstrings import DocstringPublicRule
from .general import (
    AssertRuntimeRule,
    BareExceptRule,
    FloatEqualityRule,
    MutableDefaultRule,
)
from .locks import GuardViolationRule, LockDisciplineRule, LockOrderCycleRule
from .rng import RngDeterminismRule
from .telemetry import TelemetryCoverageRule

__all__ = [
    "ALL_RULES",
    "AssertRuntimeRule",
    "BareExceptRule",
    "DocstringPublicRule",
    "FloatEqualityRule",
    "GuardViolationRule",
    "LockDisciplineRule",
    "LockOrderCycleRule",
    "MutableDefaultRule",
    "RngDeterminismRule",
    "TelemetryCoverageRule",
    "default_rules",
    "rules_by_name",
]

ALL_RULES = (
    RngDeterminismRule,
    LockDisciplineRule,
    GuardViolationRule,
    LockOrderCycleRule,
    TelemetryCoverageRule,
    DocstringPublicRule,
    MutableDefaultRule,
    BareExceptRule,
    FloatEqualityRule,
    AssertRuntimeRule,
)


def default_rules() -> List[Rule]:
    """Fresh instances of every rule, in canonical order."""
    return [rule() for rule in ALL_RULES]


def rules_by_name(names: Sequence[str]) -> List[Rule]:
    """Instantiate the subset of rules named in ``names``."""
    table: Dict[str, type] = {rule.name: rule for rule in ALL_RULES}
    selected: List[Rule] = []
    for name in names:
        if name not in table:
            known = ", ".join(sorted(table))
            raise KeyError(f"unknown rule {name!r}; known rules: {known}")
        selected.append(table[name]())
    return selected
