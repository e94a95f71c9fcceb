"""Good/bad fixture pairs for the concurrency analyses.

Each analysis gets at least one seeded-bad snippet that must produce
exactly the expected findings and the corrected snippet that must not.
Snippets run in memory through the linter's GUARD-VIOLATION and
LOCK-ORDER-CYCLE rules via :func:`repro.tools.lint.lint_contexts`; the
src/ self-check lives in ``test_lint_self.py``.
"""

import textwrap

from repro.tools.analyze import (
    GUARD_VIOLATION,
    LOCK_ORDER_CYCLE,
    build_lock_graph,
)
from repro.tools.analyze.symbols import SymbolTable
from repro.tools.lint import lint_contexts, rules_by_name
from repro.tools.lint.engine import LintContext

CONCURRENCY_RULES = [GUARD_VIOLATION, LOCK_ORDER_CYCLE]


def analyze(source, module="repro.fake"):
    ctx = LintContext("<string>", textwrap.dedent(source), module=module)
    return lint_contexts([ctx], rules_by_name(CONCURRENCY_RULES))


def rules_hit(result):
    return [f.rule for f in result.findings]


# ----------------------------------------------------------------------
# GUARD-VIOLATION
# ----------------------------------------------------------------------
class TestGuardViolation:
    BAD = """
        import threading

        class Box:
            def __init__(self):
                self._lock = threading.Lock()
                self.value = 0

            def set(self, v):
                with self._lock:
                    self.value = v

            def peek(self):
                return self.value

            def bump(self):
                self.value += 1
    """

    GOOD = """
        import threading

        class Box:
            def __init__(self):
                self._lock = threading.Lock()
                self.value = 0

            def set(self, v):
                with self._lock:
                    self.value = v

            def peek(self):
                with self._lock:
                    return self.value

            def _bump_locked(self):
                self.value += 1
    """

    def test_bad_yields_exactly_the_expected_findings(self):
        result = analyze(self.BAD)
        assert rules_hit(result) == [GUARD_VIOLATION, GUARD_VIOLATION]
        read, write = result.findings
        assert "`self.value` is guarded by `self._lock`" in read.message
        assert "read here without holding it" in read.message
        assert "written here without holding it" in write.message

    def test_good_is_clean(self):
        result = analyze(self.GOOD)
        assert result.findings == []

    def test_init_and_locked_helpers_are_exempt(self):
        # GOOD writes `value` in __init__ and in a *_locked helper with
        # no lock held; neither may count as a violation.
        result = analyze(self.GOOD)
        assert result.clean

    def test_wrong_lock_is_flagged(self):
        result = analyze(
            """
            import threading

            class Pair:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()
                    self.n = 0

                def set(self, v):
                    with self._a:
                        self.n = v

                def peek(self):
                    with self._b:
                        return self.n
            """
        )
        assert rules_hit(result) == [GUARD_VIOLATION]
        assert "under a different lock" in result.findings[0].message

    def test_mutator_calls_count_as_writes(self):
        result = analyze(
            """
            import threading

            class Q:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []

                def put(self, x):
                    with self._lock:
                        self._items.append(x)

                def drop(self):
                    self._items.clear()
            """
        )
        assert rules_hit(result) == [GUARD_VIOLATION]
        assert "`self._items`" in result.findings[0].message

    def test_inline_suppression_is_honored(self):
        result = analyze(
            """
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.value = 0

                def set(self, v):
                    with self._lock:
                        self.value = v

                def peek(self):
                    return self.value  # reprolint: disable=GUARD-VIOLATION
            """
        )
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == [GUARD_VIOLATION]
        assert result.clean


# ----------------------------------------------------------------------
# LOCK-ORDER-CYCLE
# ----------------------------------------------------------------------
class TestLockOrderCycle:
    BAD_NESTED = """
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
    """

    GOOD_NESTED = """
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
                with self._a:
                    with self._b:
                        self.items.clear()
    """

    def test_nested_with_inversion_is_a_cycle(self):
        result = analyze(self.BAD_NESTED)
        rules = rules_hit(result)
        assert rules == [LOCK_ORDER_CYCLE, LOCK_ORDER_CYCLE]
        assert len(result.graph.cycles()) == 1
        message = result.findings[0].message
        assert "can deadlock" in message
        assert "Pool._a" in message and "Pool._b" in message

    def test_consistent_order_is_clean(self):
        result = analyze(self.GOOD_NESTED)
        assert result.findings == []
        assert result.graph.cycles() == []
        # The order edges themselves are still in the graph (one per
        # acquisition site), all pointing the same way.
        assert {(e.src.label, e.dst.label) for e in result.graph.edges} == {
            ("Pool._a", "Pool._b")
        }

    def test_cross_class_call_edge_cycle(self):
        result = analyze(
            """
            import threading

            class Left:
                def __init__(self, right):
                    self._lock = threading.Lock()
                    self.right: "Right" = right
                    self.total = 0

                def poke(self):
                    with self._lock:
                        self.right.bump()

                def bump(self):
                    with self._lock:
                        self.total += 1

            class Right:
                def __init__(self, left: "Left"):
                    self._lock = threading.Lock()
                    self.left = left
                    self.total = 0

                def poke(self):
                    with self._lock:
                        self.left.bump()

                def bump(self):
                    with self._lock:
                        self.total += 1
            """
        )
        assert LOCK_ORDER_CYCLE in rules_hit(result)
        cycles = result.graph.cycles()
        assert len(cycles) == 1
        labels = {node.label for node in cycles[0]}
        assert labels == {"Left._lock", "Right._lock"}
        assert any(e.kind == "call" for e, _c in result.graph.cycle_edges())

    def test_reentrant_same_lock_is_not_an_edge(self):
        result = analyze(
            """
            import threading

            class R:
                def __init__(self):
                    self._lock = threading.RLock()
                    self.n = 0

                def outer(self):
                    with self._lock:
                        self.inner()

                def inner(self):
                    with self._lock:
                        self.n += 1
            """
        )
        assert result.findings == []
        assert result.graph.edges == []

    def test_shadowed_classes_keep_their_own_locks_and_edges(self):
        # Two nested classes of one qualified name take their locks in
        # opposite orders: each keeps its own two nodes and its edge,
        # and two different classes make no cycle.
        result = analyze(
            """
            import threading

            def first():
                class Pair:
                    def __init__(self):
                        self._a = threading.Lock()
                        self._b = threading.Lock()

                    def run(self):
                        with self._a:
                            with self._b:
                                pass
                return Pair

            def second():
                class Pair:
                    def __init__(self):
                        self._a = threading.Lock()
                        self._b = threading.Lock()

                    def run(self):
                        with self._b:
                            with self._a:
                                pass
                return Pair
            """
        )
        graph = result.graph
        assert len(graph.nodes) == 4
        assert {(e.src.label, e.dst.label) for e in graph.edges} == {
            ("Pair@<string>:5._a", "Pair@<string>:5._b"),
            ("Pair._b", "Pair._a"),
        }
        assert graph.cycles() == [] and result.findings == []

    def test_dot_export_mentions_cycle_edges(self):
        result = analyze(self.BAD_NESTED)
        dot = result.graph.to_dot()
        assert dot.startswith("digraph lock_order {")
        assert '"Pool._a" -> "Pool._b"' in dot
        assert 'color="red"' in dot


# ----------------------------------------------------------------------
# Symbol table
# ----------------------------------------------------------------------
class TestSymbolTable:
    def test_cross_module_attribute_resolution(self):
        metrics_src = textwrap.dedent(
            """
            import threading

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}

                def add(self, k, v):
                    with self._lock:
                        self._items[k] = v
            """
        )
        user_src = textwrap.dedent(
            """
            import threading
            from repro.fake.metrics import Registry

            class User:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.registry = Registry()

                def push(self, k, v):
                    with self._lock:
                        self.registry.add(k, v)
            """
        )
        contexts = [
            LintContext("m.py", metrics_src, module="repro.fake.metrics"),
            LintContext("u.py", user_src, module="repro.fake.user"),
        ]
        table = SymbolTable.build(contexts)
        user = table.classes["repro.fake.user.User"]
        target = table.attr_class(user, "registry")
        assert target is not None
        assert target.qualified == "repro.fake.metrics.Registry"
        graph = build_lock_graph(table)
        pairs = {(e.src.label, e.dst.label) for e in graph.edges}
        assert ("User._lock", "Registry._lock") in pairs
        assert graph.cycles() == []

    def test_guarded_attrs_union_of_locks(self):
        ctx = LintContext(
            "g.py",
            textwrap.dedent(
                """
                import threading

                class G:
                    def __init__(self):
                        self._a = threading.Lock()
                        self._b = threading.Lock()
                        self.n = 0

                    def f(self):
                        with self._a:
                            self.n = 1

                    def g(self):
                        with self._b:
                            self.n = 2
                """
            ),
            module="repro.fake",
        )
        table = SymbolTable.build([ctx])
        info = table.classes["repro.fake.G"]
        assert info.guarded_attrs() == {"n": frozenset({"_a", "_b"})}
        # Either lock satisfies the guard, so the file is clean.
        assert lint_contexts([ctx], rules_by_name(CONCURRENCY_RULES)).findings == []
