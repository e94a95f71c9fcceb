"""Project-wide class/attribute symbol table for concurrency analysis.

One :class:`SymbolTable` holds every class found in the analyzed files,
and for each class everything the guard and lock-order analyses need:

- ``lock_attrs`` — attributes assigned ``threading.Lock()`` /
  ``RLock()`` / ``Condition()`` anywhere in the class;
- per-method :class:`Access` records — every ``self.X`` read or write
  together with the *held set*, the class's locks held at that point
  (tracked through nested ``with self._lock:`` bodies);
- per-method :class:`Acquisition` records — every ``with self._lock:``
  entry with the locks already held when it is entered (the nested-
  ``with`` edges of the lock-order graph);
- per-method :class:`CallSite` records — ``self.method(...)`` and
  ``self.attr.method(...)`` calls with the held set at the call point
  (the interprocedural edges);
- ``attr_types`` — best-effort attribute type inference from
  ``self.X = ClassName(...)`` construction, ``self.X: ClassName``
  annotations and ``self.X = param`` where the parameter is annotated,
  resolved through each file's import table so cross-module call edges
  land on the right class.

The table is deliberately *syntactic*: it resolves only what the
project's own idioms make unambiguous (attributes of ``self``, classes
constructed or annotated by name).  Locals, containers of handles and
module-level locks are out of scope — the runtime sanitizer in
:mod:`repro.tools.analyze.lockcheck` covers what static resolution
cannot see.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - the linter imports this module
    from ..lint.engine import LintContext

__all__ = [
    "Access",
    "Acquisition",
    "CallSite",
    "ClassInfo",
    "MethodInfo",
    "SymbolTable",
    "EXEMPT_METHODS",
    "LOCK_FACTORIES",
    "MUTATORS",
]

#: Constructors whose result makes an attribute a lock.
LOCK_FACTORIES = frozenset({"Lock", "RLock", "Condition"})

#: Method names that mutate their receiver in place.
MUTATORS = frozenset(
    {
        "append",
        "appendleft",
        "extend",
        "extendleft",
        "insert",
        "remove",
        "pop",
        "popleft",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "add",
        "discard",
        "sort",
        "reverse",
        "move_to_end",
        "rotate",
    }
)

#: Methods exempt from guard checks: no concurrent reader can exist
#: before the constructor returns, and ``__del__``/``__repr__`` are not
#: exempt — PR 7 fixed exactly such a ``__repr__`` race.
EXEMPT_METHODS = frozenset({"__init__", "__new__"})


@dataclass(frozen=True)
class Access:
    """One read or write of ``self.<attr>`` at one location."""

    attr: str
    kind: str  # "read" | "write"
    line: int
    col: int
    held: FrozenSet[str]


@dataclass(frozen=True)
class Acquisition:
    """One ``with self.<lock>:`` entry and the locks already held."""

    lock: str
    line: int
    col: int
    held: FrozenSet[str]


@dataclass(frozen=True)
class CallSite:
    """One ``self.method(...)`` / ``self.attr.method(...)`` call.

    ``receiver`` is ``"self"`` for own-method calls, otherwise the
    ``self`` attribute the call goes through (``self.registry.activate``
    has receiver ``"registry"``).  Calls through locals or chains the
    table cannot type are not recorded.
    """

    receiver: str
    method: str
    line: int
    col: int
    held: FrozenSet[str]


@dataclass
class MethodInfo:
    """Everything recorded about one method body."""

    name: str
    lineno: int
    accesses: List[Access] = field(default_factory=list)
    acquisitions: List[Acquisition] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)

    @property
    def exempt(self) -> bool:
        """Whether guard checks skip this method entirely.

        Constructors have no concurrent readers yet; ``*_locked``
        helpers are called with the lock already held by convention
        (``MicroBatcher._take_matching_locked``).
        """
        return self.name in EXEMPT_METHODS or self.name.endswith("_locked")


@dataclass
class ClassInfo:
    """One class: its locks, methods, and inferred attribute types."""

    module: Optional[str]
    name: str
    path: str
    lineno: int
    lock_attrs: Set[str] = field(default_factory=set)
    methods: Dict[str, MethodInfo] = field(default_factory=dict)
    #: attribute name -> bare class name it was constructed from.
    attr_types: Dict[str, str] = field(default_factory=dict)
    #: local/imported name -> dotted module target (the file's imports).
    imports: Dict[str, str] = field(default_factory=dict)

    @property
    def qualified(self) -> str:
        """``module.Class`` when the module is known, else the bare name."""
        return f"{self.module}.{self.name}" if self.module else self.name

    def guarded_attrs(self) -> Dict[str, FrozenSet[str]]:
        """``{attr: locks that guard it}`` from this class's own writes.

        An attribute is guarded when any non-``*_locked`` method writes
        it while holding a lock; the guard set is the union of locks
        held across those writes (an attribute consistently written
        under two locks accepts either).
        """
        guards: Dict[str, Set[str]] = {}
        for method in self.methods.values():
            if method.name.endswith("_locked"):
                # Held set inside *_locked helpers is statically
                # unknowable (the caller holds it); their writes are
                # neither guard evidence nor violations.
                continue
            for access in method.accesses:
                if access.kind == "write" and access.held:
                    guards.setdefault(access.attr, set()).update(access.held)
        return {attr: frozenset(locks) for attr, locks in guards.items()}


def _is_lock_factory(node: ast.AST) -> bool:
    """``threading.Lock()`` / ``Lock()`` (and RLock/Condition)."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr in LOCK_FACTORIES
    if isinstance(func, ast.Name):
        return func.id in LOCK_FACTORIES
    return False


def _self_attr_root(node: ast.AST) -> Optional[str]:
    """The ``X`` in a chain rooted at ``self.X`` (through subscripts,
    attribute hops and call results), else ``None``."""
    while True:
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                return node.attr
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        else:
            return None


def _unpack_targets(target: ast.expr) -> List[ast.expr]:
    """Flatten tuple/list/starred assignment targets into leaves."""
    if isinstance(target, (ast.Tuple, ast.List)):
        leaves: List[ast.expr] = []
        for element in target.elts:
            leaves.extend(_unpack_targets(element))
        return leaves
    if isinstance(target, ast.Starred):
        return _unpack_targets(target.value)
    return [target]


#: typing-module wrappers that appear in annotations but never name the
#: concrete class an attribute holds.
_TYPING_NAMES = frozenset(
    {
        "Optional",
        "Union",
        "List",
        "Dict",
        "Set",
        "FrozenSet",
        "Tuple",
        "Sequence",
        "Iterable",
        "Iterator",
        "Mapping",
        "MutableMapping",
        "Callable",
        "Any",
        "Type",
        "ClassVar",
        "Final",
        "Annotated",
        "None",
    }
)


def _annotation_names(node: ast.AST) -> List[str]:
    """Candidate class names mentioned in a type annotation.

    Handles ``ClassName``, ``mod.ClassName``, ``Optional[ClassName]``,
    ``"ClassName"`` string annotations and unions — every identifier in
    the annotation is a candidate; the caller keeps the first one that
    resolves to a known class.
    """
    names: List[str] = []
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return names
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id not in _TYPING_NAMES:
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute) and sub.attr not in _TYPING_NAMES:
            names.append(sub.attr)
    return names


def _imports_of(tree: ast.Module, module: Optional[str]) -> Dict[str, str]:
    """Local name -> dotted module, resolving relative imports."""
    table: Dict[str, str] = {}
    package_parts = (module or "").split(".")[:-1] if module else []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                table[local] = alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base_parts = package_parts[: len(package_parts) - node.level + 1]
                base = ".".join(base_parts + ([node.module] if node.module else []))
            else:
                base = node.module or ""
            for alias in node.names:
                local = alias.asname or alias.name
                table[local] = f"{base}.{alias.name}" if base else alias.name
    return table


class _MethodWalker:
    """Walk one method body tracking the currently-held own-class locks."""

    def __init__(self, lock_attrs: Set[str], info: MethodInfo) -> None:
        self.lock_attrs = lock_attrs
        self.info = info
        #: line numbers already recorded as writes, so the Load half of
        #: an AugAssign (or the receiver read of ``self._q.append``)
        #: does not double as a read at the same spot.
        self._written_at: Set[Tuple[str, int, int]] = set()

    def walk(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._visit(stmt, frozenset())

    # ------------------------------------------------------------------
    def _record_write(self, attr: str, node: ast.AST, held: FrozenSet[str]) -> None:
        line = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        self.info.accesses.append(Access(attr, "write", line, col, held))
        self._written_at.add((attr, line, col))

    def _visit(self, node: ast.AST, held: FrozenSet[str]) -> None:
        if isinstance(node, ast.With):
            acquired: Set[str] = set()
            for item in node.items:
                root = _self_attr_root(item.context_expr)
                if root is not None and root in self.lock_attrs:
                    acquired.add(root)
                    self.info.acquisitions.append(
                        Acquisition(
                            root,
                            item.context_expr.lineno,
                            item.context_expr.col_offset,
                            held,
                        )
                    )
                else:
                    # `with self.metrics.timer(...)` etc: the context
                    # expression still contains reads and calls.
                    self._visit(item.context_expr, held)
            inner = held | frozenset(acquired)
            for stmt in node.body:
                self._visit(stmt, inner)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # Nested function bodies run later, under unknown locks;
            # analyzing them with the current held set would be wrong in
            # both directions.  Skip them (their defaults still belong
            # to this scope).
            return
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in _unpack_targets(target):
                    root = _self_attr_root(leaf)
                    if root is not None and root not in self.lock_attrs:
                        self._record_write(root, node, held)
            if node.value is not None:
                self._visit(node.value, held)
            return
        if isinstance(node, ast.Delete):
            for target in node.targets:
                root = _self_attr_root(target)
                if root is not None and root not in self.lock_attrs:
                    self._record_write(root, node, held)
                self._visit(target, held)
            return
        if isinstance(node, ast.Call):
            self._visit_call(node, held)
            return
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                attr = node.attr
                if attr not in self.lock_attrs:
                    key = (attr, node.lineno, node.col_offset)
                    if key not in self._written_at:
                        self.info.accesses.append(
                            Access(attr, "read", node.lineno, node.col_offset, held)
                        )
                return
        for child in ast.iter_child_nodes(node):
            self._visit(child, held)

    def _visit_call(self, node: ast.Call, held: FrozenSet[str]) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            # self.method(...)
            if isinstance(func.value, ast.Name) and func.value.id == "self":
                self.info.calls.append(
                    CallSite("self", func.attr, node.lineno, node.col_offset, held)
                )
            # self.attr.method(...): a call edge through a typed
            # attribute, and (for mutators) a write to that attribute.
            elif (
                isinstance(func.value, ast.Attribute)
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id == "self"
            ):
                receiver = func.value.attr
                self.info.calls.append(
                    CallSite(receiver, func.attr, node.lineno, node.col_offset, held)
                )
                if receiver not in self.lock_attrs:
                    if func.attr in MUTATORS:
                        self._record_write(receiver, node, held)
                    else:
                        self.info.accesses.append(
                            Access(
                                receiver, "read", func.value.lineno,
                                func.value.col_offset, held,
                            )
                        )
            else:
                root = _self_attr_root(func.value)
                if root is not None and root not in self.lock_attrs:
                    # self._q[k].append / self._entries.popitem chains:
                    # mutators write the root attribute.
                    if func.attr in MUTATORS:
                        self._record_write(root, node, held)
                self._visit(func.value, held)
        else:
            self._visit(func, held)
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            self._visit(arg, held)


def _infer_attr_types(
    cls: ast.ClassDef, imports: Dict[str, str]
) -> Dict[str, str]:
    """``self.X`` -> bare class name, from constructions and annotations."""
    types: Dict[str, str] = {}
    for method in cls.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        # Parameter annotations: `def __init__(self, registry: ModelRegistry)`.
        param_types: Dict[str, List[str]] = {}
        args = method.args
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            if arg.annotation is not None:
                param_types[arg.arg] = _annotation_names(arg.annotation)
        for node in ast.walk(method):
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            annotation: Optional[ast.expr] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value, annotation = node.target, node.value, node.annotation
            if (
                not isinstance(target, ast.Attribute)
                or not isinstance(target.value, ast.Name)
                or target.value.id != "self"
            ):
                continue
            attr = target.attr
            candidates: List[str] = []
            if isinstance(value, ast.Call):
                func = value.func
                if isinstance(func, ast.Name):
                    candidates.append(func.id)
                elif isinstance(func, ast.Attribute):
                    candidates.append(func.attr)
            elif isinstance(value, ast.Name) and value.id in param_types:
                candidates.extend(param_types[value.id])
            if annotation is not None:
                candidates.extend(_annotation_names(annotation))
            if candidates and attr not in types:
                types[attr] = candidates[0]
                # Prefer a resolvable candidate over the first one.
                for name in candidates:
                    if name in imports or name[:1].isupper():
                        types[attr] = name
                        break
    return types


class SymbolTable:
    """Every class in the analyzed files, indexed for cross-class lookup."""

    def __init__(self) -> None:
        #: qualified name ("module.Class" or bare) -> info.
        self.classes: Dict[str, ClassInfo] = {}
        #: bare class name -> every info carrying it.
        self.by_name: Dict[str, List[ClassInfo]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, contexts: Iterable[LintContext]) -> "SymbolTable":
        """Build the table from parsed files (see :class:`LintContext`)."""
        table = cls()
        for ctx in contexts:
            table.add_context(ctx)
        return table

    def add_context(self, ctx: LintContext) -> None:
        """Index every class defined in one parsed file."""
        imports = _imports_of(ctx.tree, ctx.module)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                info = self._build_class(node, ctx, imports)
                self.classes[info.qualified] = info
                self.by_name.setdefault(info.name, []).append(info)

    def _build_class(
        self, cls_node: ast.ClassDef, ctx: LintContext, imports: Dict[str, str]
    ) -> ClassInfo:
        info = ClassInfo(
            module=ctx.module,
            name=cls_node.name,
            path=ctx.path,
            lineno=cls_node.lineno,
            imports=imports,
        )
        for node in ast.walk(cls_node):
            if isinstance(node, ast.Assign) and _is_lock_factory(node.value):
                for target in node.targets:
                    root = _self_attr_root(target)
                    if root is not None:
                        info.lock_attrs.add(root)
        info.attr_types = _infer_attr_types(cls_node, imports)
        for stmt in cls_node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = MethodInfo(name=stmt.name, lineno=stmt.lineno)
                _MethodWalker(info.lock_attrs, method).walk(stmt.body)
                info.methods[stmt.name] = method
        return info

    def all_classes(self) -> Iterator[ClassInfo]:
        """Every indexed class, including any that a later class of the
        same qualified name replaced in :attr:`classes`."""
        for infos in self.by_name.values():
            yield from infos

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve_class(
        self, name: str, from_class: Optional[ClassInfo] = None
    ) -> Optional[ClassInfo]:
        """The :class:`ClassInfo` a bare name refers to, if unambiguous.

        Resolution prefers the importing file's import table, then a
        same-module class, then a project-wide unique bare name; an
        ambiguous bare name resolves to nothing rather than guessing.
        """
        if from_class is not None:
            target = from_class.imports.get(name)
            if target is not None and target in self.classes:
                return self.classes[target]
            if from_class.module:
                qualified = f"{from_class.module}.{name}"
                if qualified in self.classes:
                    return self.classes[qualified]
        candidates = self.by_name.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def attr_class(self, cls: ClassInfo, attr: str) -> Optional[ClassInfo]:
        """The class of ``self.<attr>`` inside ``cls``, when inferable."""
        type_name = cls.attr_types.get(attr)
        if type_name is None:
            return None
        return self.resolve_class(type_name, from_class=cls)
