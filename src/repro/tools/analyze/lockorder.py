"""Cross-class lock-acquisition-order graph and deadlock-cycle detection.

Deadlock needs two ingredients: more than one lock, and two code paths
that acquire them in opposite orders.  The graph built here records the
orders the code *can* exhibit:

- **nested ``with`` edges** — ``with self._a:`` containing
  ``with self._b:`` adds the edge ``Class._a -> Class._b``;
- **call edges** — a method that calls ``self.registry.activate(...)``
  while holding ``self._close_lock`` adds edges from ``_close_lock`` to
  every lock ``activate`` may acquire, computed as a fixed point over
  the symbol table's call sites (``self.method`` stays in-class,
  ``self.attr.method`` crosses to the attribute's inferred class).

Nodes are ``Class.lock_attr`` — *instance-free*, because lock ordering
is a property of code paths, not of objects.  Re-entry of the same
attribute (the registry's RLock) is therefore not an edge.  The lint
rule ``LOCK-ORDER-CYCLE`` (:mod:`repro.tools.lint.rules.locks`) reports
every edge inside a cycle at its acquisition site;
:func:`LockOrderGraph.to_dot` renders the whole graph (cycle edges
highlighted) for the CI artifact.

What the static graph cannot see — locks reached through untyped
locals, containers of handles, or dynamic dispatch — is exactly what
the runtime sanitizer (:mod:`repro.tools.analyze.lockcheck`) observes
live, so the two tools bracket the problem from both sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .symbols import ClassInfo, SymbolTable

__all__ = [
    "LOCK_ORDER_CYCLE",
    "LockNode",
    "LockEdge",
    "LockOrderGraph",
    "build_lock_graph",
]

LOCK_ORDER_CYCLE = "LOCK-ORDER-CYCLE"

#: Call-graph expansion depth bound: a chain of calls longer than this
#: between a held lock and a nested acquisition is treated as
#: unreachable (prevents nontermination on recursive call cycles).
_MAX_FIXPOINT_ROUNDS = 64


@dataclass(frozen=True)
class LockNode:
    """One lock *attribute* of one class (instance-free identity)."""

    cls: str  # class name (display); a shadowed class adds where it is
    qualified: str  # "module.Class.lock_attr"
    attr: str

    @property
    def label(self) -> str:
        return f"{self.cls}.{self.attr}"


@dataclass(frozen=True)
class LockEdge:
    """``src`` held while ``dst`` is (possibly transitively) acquired."""

    src: LockNode
    dst: LockNode
    path: str
    line: int
    col: int
    kind: str  # "nested-with" | "call"
    detail: str = ""


@dataclass
class LockOrderGraph:
    """The acquisition-order graph plus its cycle analysis."""

    nodes: List[LockNode] = field(default_factory=list)
    edges: List[LockEdge] = field(default_factory=list)

    def successors(self) -> Dict[LockNode, Set[LockNode]]:
        adjacency: Dict[LockNode, Set[LockNode]] = {n: set() for n in self.nodes}
        for edge in self.edges:
            adjacency.setdefault(edge.src, set()).add(edge.dst)
            adjacency.setdefault(edge.dst, set())
        return adjacency

    def cycles(self) -> List[List[LockNode]]:
        """Strongly-connected components with at least one real cycle.

        Tarjan's algorithm, iterative (the linter runs inside pytest with
        a default recursion limit).  Each returned component is sorted
        for deterministic reporting.
        """
        adjacency = self.successors()
        index: Dict[LockNode, int] = {}
        lowlink: Dict[LockNode, int] = {}
        on_stack: Set[LockNode] = set()
        stack: List[LockNode] = []
        components: List[List[LockNode]] = []
        counter = 0

        for root in sorted(adjacency, key=lambda n: n.qualified):
            if root in index:
                continue
            work: List[Tuple[LockNode, int]] = [(root, 0)]
            while work:
                node, child_index = work[-1]
                if child_index == 0:
                    index[node] = lowlink[node] = counter
                    counter += 1
                    stack.append(node)
                    on_stack.add(node)
                children = sorted(adjacency[node], key=lambda n: n.qualified)
                advanced = False
                for position in range(child_index, len(children)):
                    child = children[position]
                    if child not in index:
                        work[-1] = (node, position + 1)
                        work.append((child, 0))
                        advanced = True
                        break
                    if child in on_stack:
                        lowlink[node] = min(lowlink[node], index[child])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    component: List[LockNode] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member is node:
                            break
                    if len(component) > 1:
                        components.append(
                            sorted(component, key=lambda n: n.qualified)
                        )
        components.sort(key=lambda comp: comp[0].qualified)
        return components

    def cycle_edges(self) -> List[Tuple[LockEdge, List[LockNode]]]:
        """Every edge inside a cycle, with the component it belongs to."""
        involved: List[Tuple[LockEdge, List[LockNode]]] = []
        for component in self.cycles():
            members = set(component)
            for edge in self.edges:
                if edge.src in members and edge.dst in members:
                    involved.append((edge, component))
        return involved

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def to_json(self) -> Dict[str, object]:
        """Nodes, edges and cycles by label, for the JSON report."""
        return {
            "nodes": [n.label for n in self.nodes],
            "edges": [
                {
                    "src": e.src.label,
                    "dst": e.dst.label,
                    "path": e.path,
                    "line": e.line,
                    "kind": e.kind,
                    "detail": e.detail,
                }
                for e in self.edges
            ],
            "cycles": [[n.label for n in cycle] for cycle in self.cycles()],
        }

    def to_dot(self) -> str:
        """Graphviz DOT rendering; cycle edges are red and bold."""
        hot = {
            (edge.src, edge.dst, edge.path, edge.line)
            for edge, _comp in self.cycle_edges()
        }
        lines = [
            "digraph lock_order {",
            '  rankdir="LR";',
            '  node [shape=box, fontname="monospace"];',
        ]
        for node in sorted(self.nodes, key=lambda n: n.qualified):
            lines.append(f'  "{node.label}";')
        for edge in sorted(
            self.edges, key=lambda e: (e.src.qualified, e.dst.qualified, e.line)
        ):
            style = (
                ' color="red" penwidth=2.0'
                if (edge.src, edge.dst, edge.path, edge.line) in hot
                else ""
            )
            label = f"{edge.path}:{edge.line} ({edge.kind})"
            lines.append(
                f'  "{edge.src.label}" -> "{edge.dst.label}" '
                f'[label="{label}"{style}];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"


def _class_identity(table: SymbolTable, cls: ClassInfo) -> Tuple[str, str]:
    """``(key, display name)`` of ``cls`` in the graph.

    A class that a later class of the same qualified name replaced in
    :attr:`SymbolTable.classes` (two nested ``Pair`` classes in one
    file, say) keeps its own lock nodes and methods, told apart by where
    it is defined, so two different classes never share a node.
    """
    if table.classes.get(cls.qualified) is cls:
        return cls.qualified, cls.name
    where = f"@{cls.path}:{cls.lineno}"
    return cls.qualified + where, cls.name + where


def build_lock_graph(table: SymbolTable) -> LockOrderGraph:
    """The acquisition-order graph over every class in the table."""
    nodes: Dict[str, LockNode] = {}
    ordered = sorted(table.all_classes(), key=lambda c: (c.path, c.lineno))
    identity = {id(cls): _class_identity(table, cls) for cls in ordered}

    def node_for(cls: ClassInfo, attr: str) -> LockNode:
        key, name = identity[id(cls)]
        qualified = f"{key}.{attr}"
        existing = nodes.get(qualified)
        if existing is None:
            existing = LockNode(cls=name, qualified=qualified, attr=attr)
            nodes[qualified] = existing
        return existing

    def method_key(cls: ClassInfo, method: str) -> str:
        return f"{identity[id(cls)][0]}.{method}"

    for cls in ordered:
        for attr in sorted(cls.lock_attrs):
            node_for(cls, attr)

    # ------------------------------------------------------------------
    # Fixed point: which lock nodes can each method (transitively)
    # acquire?  Direct acquisitions seed the sets; call sites propagate
    # callee sets (self.method stays in-class, self.attr.method follows
    # the inferred attribute type).
    # ------------------------------------------------------------------
    may_acquire: Dict[str, Set[LockNode]] = {}
    for cls in ordered:
        for method in cls.methods.values():
            direct = {
                node_for(cls, acq.lock) for acq in method.acquisitions
            }
            may_acquire[method_key(cls, method.name)] = direct

    def callee_key(cls: ClassInfo, call_receiver: str, call_method: str) -> Optional[str]:
        if call_receiver == "self":
            target: Optional[ClassInfo] = cls
        else:
            target = table.attr_class(cls, call_receiver)
        if target is None or call_method not in target.methods:
            return None
        return method_key(target, call_method)

    for _round in range(_MAX_FIXPOINT_ROUNDS):
        changed = False
        for cls in ordered:
            for method in cls.methods.values():
                key = method_key(cls, method.name)
                acquired = may_acquire[key]
                before = len(acquired)
                for call in method.calls:
                    target_key = callee_key(cls, call.receiver, call.method)
                    if target_key is not None:
                        acquired |= may_acquire[target_key]
                if len(acquired) != before:
                    changed = True
        if not changed:
            break

    # ------------------------------------------------------------------
    # Edges.
    # ------------------------------------------------------------------
    edges: List[LockEdge] = []
    seen: Set[Tuple[LockNode, LockNode, str, int, int]] = set()

    def add_edge(
        src: LockNode,
        dst: LockNode,
        cls: ClassInfo,
        line: int,
        col: int,
        kind: str,
        detail: str = "",
    ) -> None:
        if src == dst:
            return  # re-entry (RLock) is not an ordering edge
        key = (src, dst, cls.path, line, col)
        if key in seen:
            return
        seen.add(key)
        edges.append(
            LockEdge(
                src=src, dst=dst, path=cls.path, line=line, col=col,
                kind=kind, detail=detail,
            )
        )

    for cls in ordered:
        for method in cls.methods.values():
            for acq in method.acquisitions:
                dst = node_for(cls, acq.lock)
                for held in sorted(acq.held):
                    add_edge(
                        node_for(cls, held), dst, cls,
                        acq.line, acq.col, "nested-with",
                    )
            for call in method.calls:
                if not call.held:
                    continue
                target_key = callee_key(cls, call.receiver, call.method)
                if target_key is None:
                    continue
                receiver = (
                    f"self.{call.method}"
                    if call.receiver == "self"
                    else f"self.{call.receiver}.{call.method}"
                )
                for dst in sorted(
                    may_acquire[target_key], key=lambda n: n.qualified
                ):
                    for held in sorted(call.held):
                        add_edge(
                            node_for(cls, held), dst, cls,
                            call.line, call.col, "call",
                            detail=f"{receiver}(...)",
                        )

    graph = LockOrderGraph(
        nodes=sorted(nodes.values(), key=lambda n: n.qualified), edges=edges
    )
    return graph
