"""DOCSTRING-PUBLIC: public core/serve/telemetry API carries docstrings.

The serving and telemetry subsystems are the repo's operator-facing
surface — the runbook (``docs/RUNBOOK.md``) and architecture notes
lean on their docstrings, and ``help()`` at a debugging prompt is the
operator's first tool.  ``repro.core`` is the paper's algorithmic
surface (mixtures, regularizers, the E-step kernel) and is held
to the same bar.  This rule keeps that surface documented for the
``repro.core``, ``repro.serve`` and ``repro.telemetry`` packages:

- every public module-level **class** and **function** needs a
  docstring;
- every public **method** of a public class needs one too;
- anything underscore-prefixed (including dunders), nested functions,
  and ``@x.setter`` / ``@x.deleter`` companions (the getter holds the
  doc) are exempt.

Like every rule here it is baseline-budgeted: pre-existing gaps can be
absorbed into ``.reprolint-baseline.json``, but new undocumented API
fails CI.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple, Union

from ..engine import Finding, LintContext, Rule

__all__ = ["DocstringPublicRule"]

_SCOPED_PACKAGES = ("repro.core", "repro.serve", "repro.telemetry")

_DefNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _is_accessor_companion(node: _DefNode) -> bool:
    """Whether ``node`` is a ``@x.setter`` / ``@x.deleter`` overload."""
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Attribute) and decorator.attr in (
            "setter",
            "deleter",
        ):
            return True
    return False


def _public_defs(
    tree: ast.Module,
) -> Iterator[Tuple[Union[_DefNode, ast.ClassDef], str]]:
    """Yield ``(node, kind)`` for every public top-level def/class/method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                yield node, "function"
        elif isinstance(node, ast.ClassDef):
            if node.name.startswith("_"):
                continue
            yield node, "class"
            for item in node.body:
                if not isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                if item.name.startswith("_"):
                    continue
                if _is_accessor_companion(item):
                    continue
                yield item, f"method `{node.name}.{item.name}`"


class DocstringPublicRule(Rule):
    name = "DOCSTRING-PUBLIC"
    description = (
        "public classes/functions/methods in repro.core, repro.serve "
        "and repro.telemetry must carry docstrings"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if not ctx.in_package(*_SCOPED_PACKAGES):
            return
        for node, kind in _public_defs(ctx.tree):
            if ast.get_docstring(node) is not None:
                continue
            label = kind if kind.startswith("method") else (
                f"{kind} `{node.name}`"
            )
            yield self.finding(
                ctx,
                node,
                f"public {label} has no docstring; document the "
                "operator-facing API (or underscore-prefix genuinely "
                "internal helpers)",
            )
