"""Command-line front end: ``python -m repro.tools.lint [paths...]``.

Exit codes: 0 = clean (every finding suppressed or baselined, or
none), 1 = at least one fresh finding or parse error, 2 = usage error.
``--json`` emits a machine-readable report for CI; ``--dot FILE``
writes the lock-acquisition-order graph as Graphviz DOT (cycle edges
highlighted) for the CI artifact; ``--write-baseline`` snapshots the
current findings as accepted debt (hand-edit the justifications
afterwards) and refuses a tree that does not parse.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .baseline import DEFAULT_BASELINE_NAME, Baseline
from .engine import run_lint
from .rules import ALL_RULES, default_rules, rules_by_name

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.lint",
        description=(
            "Project-specific static analysis: RNG determinism, lock "
            "discipline, guarded attributes and lock order, telemetry "
            "coverage and general hygiene."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit a JSON report instead of human-readable lines",
    )
    parser.add_argument(
        "--dot",
        default=None,
        metavar="FILE",
        help="write the lock-acquisition-order graph as Graphviz DOT "
        "('-' for stdout)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help=(
            "baseline file of accepted findings "
            f"(default: ./{DEFAULT_BASELINE_NAME} when present)"
        ),
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file; report every finding",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write current findings to the baseline file and exit 0 "
        "(exit 1, writing nothing, if a file does not parse)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule names to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list available rules and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)

    if options.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.name:20s} {rule.description}")
        return 0

    try:
        rules = (
            rules_by_name([n.strip() for n in options.select.split(",")])
            if options.select
            else default_rules()
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    baseline_path = options.baseline or os.path.join(
        os.getcwd(), DEFAULT_BASELINE_NAME
    )
    baseline: Optional[Baseline] = None
    if not options.no_baseline and not options.write_baseline:
        if os.path.isfile(baseline_path):
            baseline = Baseline.load(baseline_path)

    try:
        result = run_lint(options.paths, rules, baseline=baseline)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if options.dot:
        dot = result.graph.to_dot()
        if options.dot == "-":
            sys.stdout.write(dot)
        else:
            with open(options.dot, "w", encoding="utf-8") as handle:
                handle.write(dot)

    if options.write_baseline:
        if result.parse_errors:
            # A SYNTAX-ERROR entry could never be absorbed by a later run.
            for finding in result.parse_errors:
                print(finding.render())
            print(f"{baseline_path} not written: fix the parse errors first")
            return 1
        snapshot = Baseline.from_findings(result.findings)
        snapshot.dump(baseline_path)
        print(
            f"wrote {len(snapshot.entries)} baseline entrie(s) to "
            f"{baseline_path}"
        )
        return 0

    if options.json:
        report = {
            "version": 1,
            "files_checked": result.files_checked,
            "rules": [rule.name for rule in rules],
            "findings": [f.to_json() for f in result.all_findings()],
            "baselined": [f.to_json() for f in result.baselined],
            "suppressed": [f.to_json() for f in result.suppressed],
            "lock_graph": result.graph.to_json(),
            "clean": result.clean,
        }
        print(json.dumps(report, indent=2))
        return 0 if result.clean else 1

    for finding in result.all_findings():
        print(finding.render())
    fresh = len(result.all_findings())
    summary = (
        f"{result.files_checked} file(s) checked, {fresh} finding(s)"
    )
    if result.suppressed:
        summary += f", {len(result.suppressed)} suppressed"
    if result.baselined:
        summary += f", {len(result.baselined)} baselined"
    graph = result.graph
    summary += (
        f"; lock graph: {len(graph.nodes)} lock(s), "
        f"{len(graph.edges)} order edge(s), {len(graph.cycles())} cycle(s)"
    )
    print(summary)
    return 0 if result.clean else 1
