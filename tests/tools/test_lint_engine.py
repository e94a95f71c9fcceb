"""Engine plumbing: suppressions, baselines, CLI exit codes, JSON."""

import json
import os
import textwrap

import pytest

from repro.tools.lint import (
    Baseline,
    DEFAULT_BASELINE_NAME,
    fingerprint,
    lint_source,
    run_lint,
)
from repro.tools.lint.cli import main
from repro.tools.lint.engine import LintContext, collect_python_files
from repro.tools.lint.rules import (
    ALL_RULES,
    AssertRuntimeRule,
    default_rules,
    rules_by_name,
)

BAD_SNIPPET = textwrap.dedent(
    """
    import numpy as np

    def sample():
        np.random.seed(0)
        return np.random.rand(3)
    """
)

# Two locks taken in both orders (one LOCK-ORDER-CYCLE per edge), one
# unguarded read (GUARD-VIOLATION) and one suppressed unguarded read.
LOCK_SNIPPET = textwrap.dedent(
    """
    import threading

    class Pool:
        def __init__(self):
            self._a = threading.Lock()
            self._b = threading.Lock()
            self.items = []

        def put(self, x):
            with self._a:
                with self._b:
                    self.items.append(x)

        def drain(self):
            with self._b:
                with self._a:
                    self.items.clear()

        def size(self):
            return len(self.items)

        def peek(self):
            # Racy by design: a stale answer is fine for a peek.
            return self.items[-1]  # reprolint: disable=GUARD-VIOLATION
    """
)


# ----------------------------------------------------------------------
# Suppression comments
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_named_rule_suppressed_on_its_line(self):
        source = (
            "def f(x):\n"
            "    assert x > 0  # reprolint: disable=ASSERT-RUNTIME\n"
            "    return x\n"
        )
        assert lint_source(source, [AssertRuntimeRule()]) == []

    def test_suppression_is_per_line(self):
        source = (
            "def f(x):\n"
            "    assert x > 0  # reprolint: disable=ASSERT-RUNTIME\n"
            "    assert x < 9\n"
        )
        found = lint_source(source, [AssertRuntimeRule()])
        assert [f.line for f in found] == [3]

    def test_disable_all(self):
        source = "def f(x):\n    assert x  # reprolint: disable=all\n"
        assert lint_source(source, default_rules()) == []

    def test_wrong_rule_name_does_not_suppress(self):
        source = (
            "def f(x):\n"
            "    assert x  # reprolint: disable=BARE-EXCEPT\n"
        )
        found = lint_source(source, [AssertRuntimeRule()])
        assert len(found) == 1

    def test_justification_suffix_tolerated(self):
        source = (
            "def f(x):\n"
            "    assert x  # reprolint: disable=ASSERT-RUNTIME -- hot loop\n"
        )
        assert lint_source(source, [AssertRuntimeRule()]) == []


# ----------------------------------------------------------------------
# Fingerprints and baselines
# ----------------------------------------------------------------------
class TestBaseline:
    def test_fingerprint_survives_line_drift(self):
        shifted = "\n\n\n" + BAD_SNIPPET
        original = lint_source(BAD_SNIPPET, default_rules(), path="mod.py")
        moved = lint_source(shifted, default_rules(), path="mod.py")
        assert [f.line for f in original] != [f.line for f in moved]
        assert [fingerprint(f) for f in original] == [
            fingerprint(f) for f in moved
        ]

    def test_fingerprint_depends_on_path_and_rule(self):
        a = lint_source(BAD_SNIPPET, default_rules(), path="a.py")
        b = lint_source(BAD_SNIPPET, default_rules(), path="b.py")
        assert fingerprint(a[0]) != fingerprint(b[0])

    def test_baseline_round_trip_absorbs_findings(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(BAD_SNIPPET)
        baseline = Baseline.from_findings(
            run_lint([str(target)], default_rules()).findings
        )
        assert len(baseline.entries) == 2

        path = tmp_path / DEFAULT_BASELINE_NAME
        baseline.dump(str(path))
        reloaded = Baseline.load(str(path))

        result = run_lint([str(target)], default_rules(), baseline=reloaded)
        assert result.findings == []
        assert len(result.baselined) == 2
        assert result.clean

    def test_count_budget_blocks_duplicates(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(BAD_SNIPPET)
        baseline = Baseline.from_findings(
            run_lint([str(target)], default_rules()).findings
        )

        # Duplicate the offending body: same source lines, same
        # fingerprints, but each entry's budget only covers one hit.
        target.write_text(
            BAD_SNIPPET
            + textwrap.dedent(
                """
                def sample_again():
                    np.random.seed(0)
                    return np.random.rand(3)
                """
            )
        )
        result = run_lint([str(target)], default_rules(), baseline=baseline)
        assert len(result.baselined) == 2
        assert len(result.findings) == 2
        assert not result.clean

    def test_missing_default_baseline_is_empty(self, tmp_path):
        baseline = Baseline.load_default(str(tmp_path))
        assert baseline.entries == []


# ----------------------------------------------------------------------
# File collection and module inference
# ----------------------------------------------------------------------
class TestDiscovery:
    def test_collect_skips_hidden_and_pycache(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "ok.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "ok.cpython-311.py").write_text("")
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "no.py").write_text("x = 1\n")
        (tmp_path / "notes.txt").write_text("not python\n")

        files = collect_python_files([str(tmp_path)])
        assert [f for f in files if "__pycache__" in f] == []
        assert [f for f in files if ".hidden" in f] == []
        assert len(files) == 1 and files[0].endswith("ok.py")

    def test_collect_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            collect_python_files([str(tmp_path / "nope")])

    def test_module_inference_walks_init_chain(self, tmp_path):
        pkg = tmp_path / "mylib" / "sub"
        pkg.mkdir(parents=True)
        (tmp_path / "mylib" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "leaf.py").write_text("x = 1\n")

        ctx = LintContext(str(pkg / "leaf.py"), "x = 1\n")
        assert ctx.module == "mylib.sub.leaf"
        assert ctx.in_package("mylib")
        assert ctx.in_package("mylib.sub")
        assert not ctx.in_package("mylib.subword")
        assert not ctx.in_package("other")

    def test_syntax_error_becomes_parse_finding(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        result = run_lint([str(broken)], default_rules())
        assert len(result.parse_errors) == 1
        assert result.parse_errors[0].rule == "SYNTAX-ERROR"
        assert not result.clean


# ----------------------------------------------------------------------
# Project rules
# ----------------------------------------------------------------------
class TestProjectRules:
    UNGUARDED_RESET = textwrap.dedent(
        """
        import threading

        class Box:
            def __init__(self):
                self._lock = threading.Lock()
                self.value = 0

            def set(self, v):
                with self._lock:
                    self.value = v

            def reset(self):
                self.value = 0
        """
    )

    def test_every_class_is_checked_when_module_names_collide(self, tmp_path):
        # Two scripts outside any package both infer module `box`, so
        # their classes share one qualified name in the symbol table.
        for script_dir in ("a", "b"):
            (tmp_path / script_dir).mkdir()
            (tmp_path / script_dir / "box.py").write_text(self.UNGUARDED_RESET)
        rules = rules_by_name(["LOCK-DISCIPLINE", "GUARD-VIOLATION"])
        result = run_lint([str(tmp_path)], rules)
        hits = sorted(
            (f.path.split(os.sep)[-2], f.rule, f.line) for f in result.findings
        )
        assert hits == [
            ("a", "GUARD-VIOLATION", 14),
            ("a", "LOCK-DISCIPLINE", 14),
            ("b", "GUARD-VIOLATION", 14),
            ("b", "LOCK-DISCIPLINE", 14),
        ]


# ----------------------------------------------------------------------
# CLI behaviour
# ----------------------------------------------------------------------
class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("def f(x):\n    return x + 1\n")
        code = main([str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 finding(s)" in out

    def test_findings_exit_one_with_rendered_lines(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_SNIPPET)
        code = main([str(bad), "--no-baseline"])
        out = capsys.readouterr().out
        assert code == 1
        assert "RNG-DETERMINISM" in out

    def test_json_report_shape(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_SNIPPET)
        code = main([str(bad), "--json", "--no-baseline"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["clean"] is False
        assert report["files_checked"] == 1
        assert {f["rule"] for f in report["findings"]} == {"RNG-DETERMINISM"}
        first = report["findings"][0]
        assert set(first) >= {
            "path",
            "line",
            "col",
            "rule",
            "message",
            "fingerprint",
        }

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_SNIPPET)
        baseline_path = tmp_path / DEFAULT_BASELINE_NAME

        code = main(
            [str(bad), "--baseline", str(baseline_path), "--write-baseline"]
        )
        assert code == 0
        assert baseline_path.is_file()
        capsys.readouterr()

        code = main([str(bad), "--baseline", str(baseline_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "2 baselined" in out

    def test_select_unknown_rule_is_usage_error(self, tmp_path, capsys):
        code = main([str(tmp_path), "--select", "NO-SUCH-RULE"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown rule" in err

    def test_select_runs_only_named_rule(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(x):\n    assert x\n" + BAD_SNIPPET)
        code = main(
            [str(bad), "--select", "ASSERT-RUNTIME", "--no-baseline"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "ASSERT-RUNTIME" in out
        assert "RNG-DETERMINISM" not in out

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        code = main([str(tmp_path / "ghost")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_write_baseline_refuses_unparsable_tree(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(BAD_SNIPPET)
        (tmp_path / "broken.py").write_text("def f(:\n")
        baseline_path = tmp_path / DEFAULT_BASELINE_NAME

        code = main(
            [str(tmp_path), "--baseline", str(baseline_path), "--write-baseline"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "SYNTAX-ERROR" in out
        assert not baseline_path.exists()

    def test_dot_writes_lock_graph_with_red_cycle_edges(self, tmp_path, capsys):
        src = tmp_path / "pool.py"
        src.write_text(LOCK_SNIPPET)
        dot_path = tmp_path / "lock-order.dot"

        code = main([str(src), "--no-baseline", "--dot", str(dot_path)])
        capsys.readouterr()
        assert code == 1
        dot = dot_path.read_text()
        assert dot.startswith("digraph lock_order {")
        assert '"Pool._a" -> "Pool._b"' in dot
        assert '"Pool._b" -> "Pool._a"' in dot
        assert dot.count('color="red"') == 2

        main([str(src), "--no-baseline", "--dot", "-"])
        assert dot in capsys.readouterr().out

    def test_json_carries_lock_graph_and_suppressed(self, tmp_path, capsys):
        src = tmp_path / "pool.py"
        src.write_text(LOCK_SNIPPET)

        code = main([str(src), "--json", "--no-baseline"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        graph = report["lock_graph"]
        assert graph["nodes"] == ["Pool._a", "Pool._b"]
        assert {(e["src"], e["dst"]) for e in graph["edges"]} == {
            ("Pool._a", "Pool._b"),
            ("Pool._b", "Pool._a"),
        }
        assert all(e["kind"] == "nested-with" for e in graph["edges"])
        assert graph["cycles"] == [["Pool._a", "Pool._b"]]
        rules = [f["rule"] for f in report["findings"]]
        assert rules.count("LOCK-ORDER-CYCLE") == 2
        assert rules.count("GUARD-VIOLATION") == 1
        [suppressed] = report["suppressed"]
        assert suppressed["rule"] == "GUARD-VIOLATION"
        assert "disable=GUARD-VIOLATION" in suppressed["source_line"]

    def test_select_guard_violation_runs_only_it(self, tmp_path, capsys):
        src = tmp_path / "pool.py"
        src.write_text(LOCK_SNIPPET + "\n" + BAD_SNIPPET)

        code = main(
            [str(src), "--json", "--no-baseline", "--select", "GUARD-VIOLATION"]
        )
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["rules"] == ["GUARD-VIOLATION"]
        assert {f["rule"] for f in report["findings"]} == {"GUARD-VIOLATION"}
        assert len(report["findings"]) == 1

    def test_list_rules_covers_all_ten(self, capsys):
        code = main(["--list-rules"])
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert code == 0
        assert listed == [rule.name for rule in ALL_RULES]
        assert len(listed) == 10
        assert {"GUARD-VIOLATION", "LOCK-ORDER-CYCLE"} <= set(listed)

    def test_list_rules(self, capsys):
        code = main(["--list-rules"])
        out = capsys.readouterr().out
        assert code == 0
        for name in (
            "RNG-DETERMINISM",
            "LOCK-DISCIPLINE",
            "TELEMETRY-COVERAGE",
        ):
            assert name in out
