"""Self-check: the repository's own source must lint clean.

This is the same invocation CI runs (``python -m repro.tools.lint
src/``): zero fresh findings, with deliberate exceptions recorded and
justified in ``.reprolint-baseline.json``.  The lock rules
(GUARD-VIOLATION, LOCK-ORDER-CYCLE, LOCK-DISCIPLINE) keep no baseline
debt: their false positives are suppressed inline, each under a
comment saying why the access is safe.
"""

import json
from pathlib import Path

import pytest

from repro.tools.analyze import GUARD_VIOLATION, LOCK_ORDER_CYCLE
from repro.tools.lint import (
    Baseline,
    DEFAULT_BASELINE_NAME,
    default_rules,
    rules_by_name,
    run_lint,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
LOCK_RULES = {GUARD_VIOLATION, LOCK_ORDER_CYCLE, "LOCK-DISCIPLINE"}


@pytest.fixture()
def repo_cwd(monkeypatch):
    # Findings and baseline entries use repo-root-relative paths.
    monkeypatch.chdir(REPO_ROOT)
    return REPO_ROOT


def test_src_tree_has_zero_nonbaselined_findings(repo_cwd):
    baseline = Baseline.load_default(str(repo_cwd))
    result = run_lint(["src"], default_rules(), baseline=baseline)
    rendered = "\n".join(f.render() for f in result.all_findings())
    assert result.clean, f"fresh lint findings on src/:\n{rendered}"
    assert result.files_checked > 50


def test_src_tree_analyzes_clean(repo_cwd):
    # The lock rules alone, with no baseline at all: src/ has zero
    # unsuppressed concurrency findings, not merely zero fresh ones.
    result = run_lint(["src"], rules_by_name(sorted(LOCK_RULES)))
    rendered = "\n".join(f.render() for f in result.all_findings())
    assert result.clean, f"fresh concurrency findings on src/:\n{rendered}"
    assert result.files_checked > 50


def test_baseline_entries_are_justified_and_consumed(repo_cwd):
    path = repo_cwd / DEFAULT_BASELINE_NAME
    payload = json.loads(path.read_text())
    assert payload["tool"] == "repro.tools.lint"
    for entry in payload["entries"]:
        assert entry["justification"].strip(), (
            f"baseline entry {entry['fingerprint']} has no justification"
        )
        assert "TODO" not in entry["justification"]

    # Every baseline entry must still correspond to a real finding —
    # stale entries mean the debt was paid and the entry should go.
    baseline = Baseline.load_default(str(repo_cwd))
    result = run_lint(["src"], default_rules(), baseline=baseline)
    assert len(result.baselined) == sum(
        e["count"] for e in payload["entries"]
    )


def test_baseline_carries_no_lock_rule_debt(repo_cwd):
    payload = json.loads((repo_cwd / DEFAULT_BASELINE_NAME).read_text())
    debt = [e for e in payload["entries"] if e["rule"] in LOCK_RULES]
    assert debt == [], "suppress lock-rule false positives inline instead"


def test_src_lock_graph_is_acyclic(repo_cwd):
    result = run_lint(["src"], default_rules())
    cycles = result.graph.cycles()
    assert cycles == [], (
        "lock-order cycles in src/: "
        + "; ".join(
            " -> ".join(n.label for n in cycle) for cycle in cycles
        )
    )
    # The graph is non-trivial: the serving tier's nested acquisitions
    # must be visible to the analysis for the acyclicity claim to mean
    # anything.
    assert len(result.graph.nodes) >= 10
    assert len(result.graph.edges) >= 3


def test_suppressions_carry_justification(repo_cwd):
    # Every inline suppression must sit next to prose saying why the
    # line is safe — a bare disable comment is just debt.
    for finding in run_lint(["src"], default_rules()).suppressed:
        source = Path(finding.path).read_text().splitlines()
        start = max(0, finding.line - 4)
        window = "\n".join(source[start:finding.line])
        comment_lines = [
            line
            for line in window.splitlines()
            if line.strip().startswith("#")
        ]
        assert comment_lines, (
            f"{finding.path}:{finding.line} suppresses "
            f"{finding.rule} without a justification comment"
        )


def test_no_legacy_global_numpy_rng_in_src(repo_cwd):
    # Mirrors the acceptance grep:
    #   grep -rn "np\.random\.\(seed\|rand\|randn\|randint\)" src/
    offenders = []
    for py in sorted((repo_cwd / "src").rglob("*.py")):
        for lineno, line in enumerate(py.read_text().splitlines(), start=1):
            for fragment in (
                "np.random.seed(",
                "np.random.rand(",
                "np.random.randn(",
                "np.random.randint(",
            ):
                if fragment in line:
                    offenders.append(f"{py}:{lineno}: {line.strip()}")
    assert offenders == [], "\n".join(offenders)
