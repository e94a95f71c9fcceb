"""Core machinery of the project linter: contexts, findings, the runner.

``repro.tools.lint`` exists because the invariants this reproduction
depends on — seeded RNG streams, lock-guarded mutation in the serving
layer, metrics flowing through the sanctioned registry accessors — are
*project* rules that generic linters cannot express.  Each rule is a
small AST pass (see :mod:`repro.tools.lint.rules`); this module owns
everything around them:

- :class:`LintContext` — one parsed file (source, AST, dotted module
  name, per-line suppressions);
- :class:`Project` — every file of one run, plus the whole-project
  analyses built once from them: the class/attribute
  :class:`~repro.tools.analyze.symbols.SymbolTable` and the
  :class:`~repro.tools.analyze.lockorder.LockOrderGraph`;
- :class:`Finding` — one rule violation at one location;
- :func:`run_lint` — walk paths and parse each file once;
  :func:`lint_contexts` then runs every per-file :class:`Rule` on each
  file and every :class:`ProjectRule` once over the :class:`Project`,
  applies ``# reprolint: disable=RULE`` suppressions and the committed
  baseline, and returns a :class:`LintResult`.

Suppressions are per line::

    t0 = time.time()  # reprolint: disable=TELEMETRY-COVERAGE -- wall clock is the point here

``disable=all`` silences every rule on that line.  The text after
``--`` is a free-form justification (encouraged, not enforced).
"""

from __future__ import annotations

import ast
import hashlib
import os
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

from ..analyze.lockorder import LockOrderGraph, build_lock_graph
from ..analyze.symbols import SymbolTable

__all__ = [
    "Finding",
    "LintContext",
    "LintResult",
    "Project",
    "ProjectRule",
    "Rule",
    "collect_python_files",
    "fingerprint",
    "lint_contexts",
    "lint_source",
    "run_lint",
]

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\-]+|all)"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    source_line: str = ""

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"

    def to_json(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "source_line": self.source_line,
            "fingerprint": fingerprint(self),
        }


def fingerprint(finding: Finding) -> str:
    """Stable identity of a finding for baseline matching.

    Hashes the *stripped source line* rather than the line number, so a
    baselined finding keeps matching when unrelated edits shift the file
    up or down.
    """
    normalized = finding.source_line.strip()
    payload = f"{finding.path}::{finding.rule}::{normalized}"
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:16]


class Rule:
    """Base class for one per-file lint rule.

    Subclasses set ``name`` / ``description`` and implement
    :meth:`check` as a generator of findings over ``ctx.tree``.
    """

    name: str = ""
    description: str = ""

    def check(self, ctx: "LintContext") -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: "LintContext", node: ast.AST, message: str
    ) -> Finding:
        return ctx.finding(
            self.name,
            getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0),
            message,
        )


class ProjectRule(Rule):
    """Base class for a rule that needs every file of the run at once.

    Subclasses implement :meth:`check_project` over the run's
    :class:`Project` (its symbol table and lock graph) instead of
    :meth:`Rule.check`; the runner calls it once, after parsing.
    """

    def check_project(self, project: "Project") -> Iterator[Finding]:
        raise NotImplementedError


class LintContext:
    """One parsed Python file plus everything rules need to inspect it."""

    def __init__(self, path: str, source: str, module: Optional[str] = None):
        self.path = path
        self.source = source
        self.lines: List[str] = source.splitlines()
        self.tree: ast.Module = ast.parse(source, filename=path)
        self.module = module if module is not None else _infer_module(path)
        self._suppressions: Dict[int, Set[str]] = _parse_suppressions(self.lines)

    def finding(self, rule: str, line: int, col: int, message: str) -> Finding:
        """A ``rule`` finding at ``line``/``col`` of this file."""
        source_line = self.lines[line - 1] if 1 <= line <= len(self.lines) else ""
        return Finding(self.path, line, col, rule, message, source_line)

    def suppressed(self, finding: Finding) -> bool:
        rules = self._suppressions.get(finding.line)
        if not rules:
            return False
        return "all" in rules or finding.rule in rules

    def in_package(self, *prefixes: str) -> bool:
        """Whether this file's dotted module sits under any prefix."""
        if self.module is None:
            return False
        return any(
            self.module == prefix or self.module.startswith(prefix + ".")
            for prefix in prefixes
        )


def _parse_suppressions(lines: Sequence[str]) -> Dict[int, Set[str]]:
    table: Dict[int, Set[str]] = {}
    for number, text in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        spec = match.group(1)
        if spec == "all":
            table[number] = {"all"}
        else:
            table[number] = {part.strip() for part in spec.split(",") if part.strip()}
    return table


def _infer_module(path: str) -> Optional[str]:
    """Dotted module name from the filesystem (``.../src/repro/x.py`` ->
    ``repro.x``), by walking up while ``__init__.py`` files are present."""
    absolute = os.path.abspath(path)
    directory, filename = os.path.split(absolute)
    stem, ext = os.path.splitext(filename)
    if ext != ".py":
        return None
    parts: List[str] = [] if stem == "__init__" else [stem]
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, package = os.path.split(directory)
        parts.insert(0, package)
    return ".".join(parts) if parts else None


class Project:
    """Every parsed file of one run, with the whole-project analyses.

    The symbol table and the lock-order graph are built once per run;
    every :class:`ProjectRule` reads them, and the CLI reports the graph.
    """

    def __init__(self, contexts: Sequence[LintContext]):
        self.contexts = list(contexts)
        self.by_path: Dict[str, LintContext] = {
            ctx.path: ctx for ctx in self.contexts
        }
        self.table = SymbolTable.build(self.contexts)
        self.graph = build_lock_graph(self.table)


@dataclass
class LintResult:
    """Outcome of a lint run over a set of files."""

    findings: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    parse_errors: List[Finding] = field(default_factory=list)
    graph: LockOrderGraph = field(default_factory=LockOrderGraph)

    @property
    def clean(self) -> bool:
        return not self.findings and not self.parse_errors

    def all_findings(self) -> List[Finding]:
        return list(self.parse_errors) + list(self.findings)


def collect_python_files(paths: Iterable[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    collected: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                collected.append(path)
        elif os.path.isdir(path):
            for root, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d
                    for d in dirnames
                    if not d.startswith(".") and d != "__pycache__"
                )
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        collected.append(os.path.join(root, filename))
        else:
            raise FileNotFoundError(f"no such file or directory: {path!r}")
    return sorted(set(collected))


def lint_contexts(
    contexts: Sequence[LintContext],
    rules: Sequence[Rule],
    baseline: Optional["Baseline"] = None,
) -> LintResult:
    """Run ``rules`` over already-parsed files.

    Per-file rules run on each file; project rules run once over the
    :class:`Project`.  Every finding is then sorted and split into
    suppressed, baselined and fresh ones.
    """
    project = Project(contexts)
    raw: List[Finding] = []
    for rule in rules:
        if isinstance(rule, ProjectRule):
            raw.extend(rule.check_project(project))
        else:
            for ctx in project.contexts:
                raw.extend(rule.check(ctx))
    raw.sort(key=lambda f: (f.path, f.line, f.col, f.rule, f.message))
    result = LintResult(files_checked=len(project.contexts), graph=project.graph)
    matcher = baseline.matcher() if baseline is not None else None
    for finding in raw:
        if project.by_path[finding.path].suppressed(finding):
            result.suppressed.append(finding)
        elif matcher is not None and matcher.absorb(finding):
            result.baselined.append(finding)
        else:
            result.findings.append(finding)
    return result


def lint_source(
    source: str,
    rules: Sequence[Rule],
    path: str = "<string>",
    module: Optional[str] = None,
) -> List[Finding]:
    """Run ``rules`` over in-memory source (fixture tests use this)."""
    ctx = LintContext(path, source, module=module)
    return lint_contexts([ctx], rules).findings


def run_lint(
    paths: Iterable[str],
    rules: Sequence[Rule],
    baseline: Optional["Baseline"] = None,
) -> LintResult:
    """Lint every Python file under ``paths`` and split findings into
    fresh ones versus those covered by the committed baseline."""
    contexts: List[LintContext] = []
    parse_errors: List[Finding] = []
    for path in collect_python_files(paths):
        display = os.path.relpath(path)
        try:
            with open(path, encoding="utf-8") as handle:
                contexts.append(LintContext(display, handle.read()))
        except SyntaxError as exc:
            parse_errors.append(
                Finding(
                    path=display,
                    line=exc.lineno or 1,
                    col=exc.offset or 0,
                    rule="SYNTAX-ERROR",
                    message=f"file does not parse: {exc.msg}",
                )
            )
    result = lint_contexts(contexts, rules, baseline=baseline)
    result.files_checked += len(parse_errors)
    result.parse_errors = parse_errors
    return result


# Imported at the bottom to avoid a cycle (baseline needs Finding).
from .baseline import Baseline  # noqa: E402,F401
