"""Project-specific static analysis for the GM-regularizer reproduction.

Generic linters cannot state this project's invariants — that every
random draw comes from an injected seeded ``Generator``, that the
serving layer's lock-guarded attributes stay guarded and its locks are
taken in one order, that metrics go through the sanctioned
:class:`~repro.telemetry.metrics.MetricsRegistry` accessors.  This
package encodes them as AST rules with CI-friendly plumbing (JSON
output, a Graphviz lock-order graph, exit codes, per-line
suppressions, a committed baseline for accepted debt).

Run it as ``python -m repro.tools.lint src/``.
"""

from .baseline import Baseline, DEFAULT_BASELINE_NAME
from .engine import (
    Finding,
    LintContext,
    LintResult,
    Project,
    ProjectRule,
    Rule,
    fingerprint,
    lint_contexts,
    lint_source,
    run_lint,
)
from .rules import ALL_RULES, default_rules, rules_by_name

__all__ = [
    "ALL_RULES",
    "Baseline",
    "DEFAULT_BASELINE_NAME",
    "Finding",
    "LintContext",
    "LintResult",
    "Project",
    "ProjectRule",
    "Rule",
    "default_rules",
    "fingerprint",
    "lint_contexts",
    "lint_source",
    "rules_by_name",
    "run_lint",
]
