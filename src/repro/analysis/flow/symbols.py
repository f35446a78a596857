"""Module/class symbol tables for the flow layer.

One :class:`ModuleTable` per parsed file records what the cross-file
passes need to resolve names without importing anything:

* the import map (local name -> dotted target), including relative
  imports resolved against the module's own package path;
* every class: its bases, methods, and — most importantly — its **lock
  attributes**, seeded from ``self.x = threading.Lock()``-style
  assignments (``Lock``/``RLock``/``Condition``/``asyncio.Lock``; the
  constructor call is found anywhere inside the assigned expression, so
  ``self.pause = pause if pause is not None else asyncio.Lock()``
  seeds too).  ``__init__`` is scanned first but any method counts:
  the server seeds its pause lock in ``start()``, not ``__init__``;
* per-class attribute *types* for the one-level instance pattern
  ``self.cache = ResultCache(...)`` and module-level instances like
  ``_HITS_TOTAL = get_counter(...)`` (only direct ``ClassName(...)``
  calls are recorded — a factory call yields no type, by design);
* module-level locks (``_LOCK = threading.Lock()``).

A lock *identity* is the string ``"<rel>::<Class>.<attr>"`` (or
``"<rel>::<NAME>"`` for module globals): every runtime instance of a
class shares one static identity, which is the right granularity for
ordering checks (all ``ResultCache`` objects follow the same code
paths) and a documented over-approximation for aliasing (two locks
passed to the same parameter merge).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.astutil import dotted_name
from repro.analysis.base import Project

#: Constructor dotted name -> lock kind.  Semaphores and events are
#: deliberately absent: holding an admission semaphore across work is
#: its purpose, not a bug.
LOCK_CONSTRUCTORS = {
    "threading.Lock": "lock",
    "threading.RLock": "rlock",
    "threading.Condition": "condition",
    "multiprocessing.Lock": "lock",
    "multiprocessing.RLock": "rlock",
    "asyncio.Lock": "asyncio",
    "asyncio.Condition": "asyncio",
}


@dataclass(frozen=True)
class LockDecl:
    """One statically-known lock: identity, kind, and the seeding site."""

    ident: str
    kind: str  # a LOCK_CONSTRUCTORS value, or "assigned" (unseeded)
    rel: str
    line: int


@dataclass
class ClassTable:
    name: str
    rel: str
    line: int
    bases: list[str] = field(default_factory=list)
    #: method name -> def node (first definition wins)
    methods: dict[str, ast.AST] = field(default_factory=dict)
    #: self attr -> constructor-seeded lock
    locks: dict[str, LockDecl] = field(default_factory=dict)
    #: every self attr assigned anywhere in a method body -> first line
    assigned: dict[str, int] = field(default_factory=dict)
    #: self attr -> class token for ``self.x = Token(...)`` / class-body
    #: ``x = Token`` (syntactic; resolved lazily by the graph)
    attr_types: dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleTable:
    rel: str
    #: path segments sans ``.py`` (``__init__`` dropped), for dotted lookup
    key: tuple[str, ...]
    imports: dict[str, str] = field(default_factory=dict)
    classes: dict[str, ClassTable] = field(default_factory=dict)
    functions: dict[str, ast.AST] = field(default_factory=dict)
    global_locks: dict[str, LockDecl] = field(default_factory=dict)
    global_types: dict[str, str] = field(default_factory=dict)

    def expand(self, token: str) -> str:
        """Rewrite ``token``'s first segment through the import map."""
        head, _, rest = token.partition(".")
        target = self.imports.get(head)
        if target is None:
            return token
        return f"{target}.{rest}" if rest else target


@dataclass
class SymbolTable:
    modules: dict[str, ModuleTable] = field(default_factory=dict)  # rel ->

    def module_for_dotted(self, dotted: str) -> ModuleTable | None:
        """The unique module whose path-key ends with ``dotted``'s parts."""
        want = tuple(dotted.split("."))
        hits = [
            m
            for m in self.modules.values()
            if m.key[-len(want):] == want
        ]
        return hits[0] if len(hits) == 1 else None


def _module_key(rel: str) -> tuple[str, ...]:
    parts = rel[:-3].split("/") if rel.endswith(".py") else rel.split("/")
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return tuple(parts)


def _imports_of(
    tree: ast.Module, key: tuple[str, ...], is_init: bool
) -> dict[str, str]:
    out: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.setdefault(alias.asname or alias.name.split(".")[0],
                               alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # level 1 from a module is its containing package; from a
                # package __init__ it is the package itself (key already
                # dropped the ``__init__`` segment).
                drop = node.level - 1 if is_init else node.level
                prefix = list(key[: len(key) - drop] if drop else key)
            else:
                prefix = []
            if node.module:
                prefix += node.module.split(".")
            dotted = ".".join(prefix)
            for alias in node.names:
                if alias.name == "*":
                    continue
                out.setdefault(
                    alias.asname or alias.name,
                    f"{dotted}.{alias.name}" if dotted else alias.name,
                )
    return out


def _lock_kind(value: ast.AST, module: ModuleTable) -> "tuple[str, int] | None":
    """(kind, line) if any call inside ``value`` constructs a lock."""
    for node in ast.walk(value):
        if isinstance(node, ast.Call):
            token = dotted_name(node.func)
            if token is None:
                continue
            kind = LOCK_CONSTRUCTORS.get(module.expand(token))
            if kind is not None:
                return kind, node.lineno
    return None


def _looks_like_class(token: str) -> bool:
    tail = token.rsplit(".", 1)[-1].lstrip("_")
    return tail[:1].isupper()


def _instance_type(value: ast.AST) -> str | None:
    """Class token for a direct ``Token(...)`` call (factories excluded)."""
    if isinstance(value, ast.Call):
        token = dotted_name(value.func)
        if token is not None and _looks_like_class(token):
            return token
    return None


def _annotation_token(node: ast.AST) -> str | None:
    """Class token from a parameter annotation (``X``, ``"X"``, ``X | None``)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = _annotation_token(node.left)
        if left is not None and left != "None":
            return left
        return _annotation_token(node.right)
    token = dotted_name(node)
    if token in (None, "None"):
        return None
    return token if _looks_like_class(token) else None


def _param_types(func: ast.AST) -> dict[str, str]:
    """Parameter name -> annotated class token (the injection idiom)."""
    out: dict[str, str] = {}
    args = func.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        if arg.annotation is not None:
            token = _annotation_token(arg.annotation)
            if token is not None:
                out[arg.arg] = token
    return out


def _self_attr(node: ast.AST) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _scan_method(cls: ClassTable, func: ast.AST, module: ModuleTable) -> None:
    param_types = _param_types(func)
    for node in ast.walk(func):
        targets: list[ast.AST] = []
        value: ast.AST | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        elif isinstance(node, ast.AugAssign):
            targets, value = [node.target], None
        for target in targets:
            attr = _self_attr(target)
            if attr is None:
                continue
            cls.assigned.setdefault(attr, node.lineno)
            if value is None:
                continue
            seeded = _lock_kind(value, module)
            if seeded is not None and attr not in cls.locks:
                kind, line = seeded
                cls.locks[attr] = LockDecl(
                    ident=f"{cls.rel}::{cls.name}.{attr}",
                    kind=kind,
                    rel=cls.rel,
                    line=line,
                )
            instance = _instance_type(value)
            if instance is None and isinstance(value, ast.Name):
                # self.x = cache  where  cache: ResultCache  is a param
                instance = param_types.get(value.id)
            if instance is not None:
                cls.attr_types.setdefault(attr, instance)


def _scan_class(node: ast.ClassDef, module: ModuleTable) -> ClassTable:
    cls = ClassTable(name=node.name, rel=module.rel, line=node.lineno)
    for base in node.bases:
        token = dotted_name(base)
        if token is not None:
            cls.bases.append(token)
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            cls.methods.setdefault(stmt.name, stmt)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    cls.assigned.setdefault(target.id, stmt.lineno)
                    seeded = _lock_kind(stmt.value, module)
                    if seeded is not None and target.id not in cls.locks:
                        kind, line = seeded
                        cls.locks[target.id] = LockDecl(
                            ident=f"{cls.rel}::{cls.name}.{target.id}",
                            kind=kind,
                            rel=cls.rel,
                            line=line,
                        )
                    token = (
                        _instance_type(stmt.value)
                        or (
                            stmt.value.id
                            if isinstance(stmt.value, ast.Name)
                            else None
                        )
                    )
                    if token is not None:
                        cls.attr_types.setdefault(target.id, token)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            if stmt.value is not None and isinstance(stmt.value, ast.Name):
                cls.attr_types.setdefault(stmt.target.id, stmt.value.id)
    # seed __init__ first so its locks win the identity line numbers
    ordered = sorted(
        cls.methods.items(), key=lambda kv: (kv[0] != "__init__", kv[0])
    )
    for _, func in ordered:
        _scan_method(cls, func, module)
    return cls


def build_symbols(project: Project) -> SymbolTable:
    table = SymbolTable()
    for parsed in project.files:
        module = ModuleTable(rel=parsed.rel, key=_module_key(parsed.rel))
        module.imports = _imports_of(
            parsed.tree, module.key, parsed.is_init()
        )
        for node in parsed.tree.body:
            if isinstance(node, ast.ClassDef):
                module.classes[node.name] = _scan_class(node, module)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                module.functions.setdefault(node.name, node)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if not isinstance(target, ast.Name):
                        continue
                    seeded = _lock_kind(node.value, module)
                    if seeded is not None:
                        kind, line = seeded
                        module.global_locks.setdefault(
                            target.id,
                            LockDecl(
                                ident=f"{module.rel}::{target.id}",
                                kind=kind,
                                rel=module.rel,
                                line=line,
                            ),
                        )
                    instance = _instance_type(node.value)
                    if instance is not None:
                        module.global_types.setdefault(target.id, instance)
        table.modules[parsed.rel] = module
    return table
