"""The whole-program project model behind the interprocedural rules.

The per-file rules (FV001–FV005) see one AST at a time; the invariants
added by FV006–FV010 — pickle-safety of worker tasks, worker-state
hygiene, hidden nondeterminism, backend portability, layering — are
properties of the *program*, not of any single module.  This module
builds the shared cross-file model once per lint run:

- **module naming** — each linted file is assigned its dotted module
  name by walking up ``__init__.py`` packages, so absolute and relative
  imports resolve identically to the interpreter's view;
- **import graph** — per module, the project-internal modules it
  imports, split into *load-time* edges (module top level, the ones
  that can deadlock imports) and *all* edges (including function-level
  imports, the sanctioned cycle-breaking idiom);
- **symbol tables** — top-level classes, functions, methods, imported
  aliases and module-level mutable globals per module;
- **conservative call graph** — rooted at the worker-executed seams
  (``_run_chunk`` and every task class ``__call__``), resolving bare
  names through the symbol table, ``self.method`` through the class
  hierarchy, ``module.attr`` through import aliases, and falling back
  to class-hierarchy analysis by method name.  Over-approximation is
  deliberate: a function the model cannot prove unreachable from a
  worker is treated as reachable.

The model never imports the code it analyses — everything is derived
from the ASTs the lint engine already parsed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.model import ModuleContext

__all__ = [
    "FunctionInfo",
    "ClassInfo",
    "ProjectModule",
    "ProjectModel",
    "attr_chain",
    "build_project",
    "module_name_for_path",
]

#: Constructor calls whose result is a mutable container.
_MUTABLE_CONSTRUCTORS = {
    "dict",
    "list",
    "set",
    "bytearray",
    "defaultdict",
    "Counter",
    "OrderedDict",
    "deque",
}

#: AST literal nodes denoting a mutable container.
_MUTABLE_LITERALS = (
    ast.Dict,
    ast.List,
    ast.Set,
    ast.DictComp,
    ast.ListComp,
    ast.SetComp,
)


def attr_chain(node: ast.AST) -> str:
    """Dotted name for ``Name``/``Attribute`` chains, else ``""``.

    ``np.random.default_rng`` comes back as the literal string; any
    other expression shape (subscripts, calls) yields ``""``.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def module_name_for_path(path: Path) -> str:
    """The dotted module name the interpreter would give ``path``.

    Walks parent directories upward while they contain ``__init__.py``,
    so ``src/repro/core/batch.py`` maps to ``repro.core.batch`` and a
    free-standing corpus file maps to its stem.
    """
    path = Path(path)
    parts: List[str] = [] if path.stem == "__init__" else [path.stem]
    directory = path.parent
    while (directory / "__init__.py").exists():
        parts.insert(0, directory.name)
        parent = directory.parent
        if parent == directory:
            break
        directory = parent
    return ".".join(parts) if parts else path.stem


@dataclass
class FunctionInfo:
    """One function or method: its AST plus raw call expressions."""

    module: str
    qualname: str
    node: ast.AST
    calls: List[ast.Call] = field(default_factory=list)

    @property
    def key(self) -> str:
        """Globally unique ``module::qualname`` identifier."""
        return f"{self.module}::{self.qualname}"


@dataclass
class ClassInfo:
    """One top-level class: bases, methods, decorator shapes."""

    module: str
    name: str
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class ProjectModule:
    """Everything the model knows about one module."""

    name: str
    context: ModuleContext
    package: str = ""
    #: Project module -> first import line, module top level only.
    toplevel_imports: Dict[str, int] = field(default_factory=dict)
    #: Project module -> first import line, anywhere in the file.
    all_imports: Dict[str, int] = field(default_factory=dict)
    #: Local alias -> project module it names (``import m as a``).
    module_aliases: Dict[str, str] = field(default_factory=dict)
    #: Local name -> (project module, original name) for ``from m import f``.
    imported_names: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    #: Local alias -> external dotted module (``import time`` -> ``time``).
    external_aliases: Dict[str, str] = field(default_factory=dict)
    #: Local name -> (external module, original) for ``from time import x``.
    external_names: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: Classes defined inside functions or other classes (not picklable
    #: by reference, hence interesting to FV006).
    nested_classes: List[ast.ClassDef] = field(default_factory=list)
    #: Module-level name -> definition line for mutable-container globals.
    mutable_globals: Dict[str, int] = field(default_factory=dict)


class ProjectModel:
    """The cross-file model: import graph, symbols, call graph, seams."""

    def __init__(self, modules: Dict[str, ProjectModule]) -> None:
        self.modules = modules
        self._by_path = {
            str(Path(mod.context.path)): mod for mod in modules.values()
        }
        self._reachable: Optional[Set[str]] = None
        self._edges: Optional[Dict[str, Set[str]]] = None

    # -- lookups ----------------------------------------------------------

    def module_for_path(self, path: str) -> Optional[ProjectModule]:
        """The module parsed from ``path``, if it is part of this model."""
        return self._by_path.get(str(Path(path)))

    def function(self, key: str) -> Optional[FunctionInfo]:
        """Resolve a ``module::qualname`` key back to its info."""
        module_name, _, qualname = key.partition("::")
        mod = self.modules.get(module_name)
        if mod is None:
            return None
        if qualname in mod.functions:
            return mod.functions[qualname]
        cls_name, _, meth = qualname.partition(".")
        cls = mod.classes.get(cls_name)
        if cls is not None:
            return cls.methods.get(meth)
        return None

    # -- task classes and worker seams ------------------------------------

    def task_classes(self) -> List[ClassInfo]:
        """Every class the parallel executor may ship to a worker.

        A class is a *task class* when its name ends with ``Task`` or it
        transitively inherits (within the project) from a class whose
        name ends with ``Task`` — covering ``EstimatorTask`` subclasses
        without importing them.
        """
        found: List[ClassInfo] = []
        for mod in self.modules.values():
            for cls in mod.classes.values():
                if self._is_task_class(mod, cls, set()):
                    found.append(cls)
        return found

    def _is_task_class(
        self, mod: ProjectModule, cls: ClassInfo, seen: Set[str]
    ) -> bool:
        if cls.name.endswith("Task"):
            return True
        key = f"{mod.name}::{cls.name}"
        if key in seen:
            return False
        seen.add(key)
        for base in cls.bases:
            resolved = self._resolve_class(mod, base)
            if resolved is None:
                if base.rsplit(".", 1)[-1].endswith("Task"):
                    return True
                continue
            base_mod, base_cls = resolved
            if self._is_task_class(base_mod, base_cls, seen):
                return True
        return False

    def _resolve_class(
        self, mod: ProjectModule, name: str
    ) -> Optional[Tuple[ProjectModule, ClassInfo]]:
        """Resolve a (possibly dotted, possibly imported) class name."""
        head, _, rest = name.partition(".")
        if not rest:
            if head in mod.classes:
                return mod, mod.classes[head]
            if head in mod.imported_names:
                src_name, original = mod.imported_names[head]
                src = self.modules.get(src_name)
                if src is not None and original in src.classes:
                    return src, src.classes[original]
            return None
        if head in mod.module_aliases:
            src = self.modules.get(mod.module_aliases[head])
            if src is not None and "." not in rest and rest in src.classes:
                return src, src.classes[rest]
        return None

    def seam_roots(self) -> List[FunctionInfo]:
        """The worker-executed entry points the call graph grows from.

        ``_run_chunk`` (the chunk body both worker pools execute) plus
        the ``__call__`` of every task class.
        """
        roots: List[FunctionInfo] = []
        for mod in self.modules.values():
            if "_run_chunk" in mod.functions:
                roots.append(mod.functions["_run_chunk"])
        for cls in self.task_classes():
            call = cls.methods.get("__call__")
            if call is not None:
                roots.append(call)
        return roots

    def seam_reachable(self) -> Set[str]:
        """Function keys conservatively reachable from the worker seams."""
        if self._reachable is not None:
            return self._reachable
        reachable: Set[str] = set()
        frontier = [info.key for info in self.seam_roots()]
        while frontier:
            key = frontier.pop()
            if key in reachable:
                continue
            reachable.add(key)
            info = self.function(key)
            if info is None:
                continue
            for call in info.calls:
                frontier.extend(self._callees(key, call) - reachable)
        self._reachable = reachable
        return reachable

    def _callees(self, caller_key: str, call: ast.Call) -> Set[str]:
        """Conservative resolution of one call expression to targets."""
        module_name, _, qualname = caller_key.partition("::")
        mod = self.modules[module_name]
        cls_name = qualname.partition(".")[0] if "." in qualname else None
        func = call.func
        if isinstance(func, ast.Name):
            return self._resolve_bare(mod, func.id)
        if isinstance(func, ast.Attribute):
            chain = attr_chain(func)
            if not chain:
                # Method on a computed expression: class-hierarchy fallback.
                return self._cha(func.attr)
            head, _, rest = chain.partition(".")
            if head == "self" and cls_name is not None:
                targets = self._resolve_method(mod, cls_name, func.attr, set())
                if targets:
                    return targets
                return set()
            if head in mod.module_aliases and "." not in rest:
                target_mod = self.modules.get(mod.module_aliases[head])
                if target_mod is not None:
                    return self._resolve_bare(target_mod, rest)
            if head in mod.imported_names:
                # Class imported by name, method called on an instance
                # attribute path — fall through to hierarchy analysis.
                pass
            if head in mod.external_aliases or head in mod.external_names:
                return set()
            return self._cha(func.attr)
        return set()

    def _resolve_bare(self, mod: ProjectModule, name: str) -> Set[str]:
        if name in mod.functions:
            return {mod.functions[name].key}
        if name in mod.classes:
            return self._constructor_keys(mod.classes[name])
        if name in mod.imported_names:
            src_name, original = mod.imported_names[name]
            src = self.modules.get(src_name)
            if src is not None:
                if original in src.functions:
                    return {src.functions[original].key}
                if original in src.classes:
                    return self._constructor_keys(src.classes[original])
        return set()

    @staticmethod
    def _constructor_keys(cls: ClassInfo) -> Set[str]:
        keys = set()
        for meth in ("__init__", "__post_init__", "__new__"):
            info = cls.methods.get(meth)
            if info is not None:
                keys.add(info.key)
        return keys

    def _resolve_method(
        self, mod: ProjectModule, cls_name: str, meth: str, seen: Set[str]
    ) -> Set[str]:
        cls = mod.classes.get(cls_name)
        if cls is None or f"{mod.name}::{cls_name}" in seen:
            return set()
        seen.add(f"{mod.name}::{cls_name}")
        if meth in cls.methods:
            return {cls.methods[meth].key}
        targets: Set[str] = set()
        for base in cls.bases:
            resolved = self._resolve_class(mod, base)
            if resolved is not None:
                base_mod, base_cls = resolved
                targets |= self._resolve_method(
                    base_mod, base_cls.name, meth, seen
                )
        return targets

    def _cha(self, method_name: str) -> Set[str]:
        """Class-hierarchy analysis: every project method with this name.

        The fallback when the receiver's type is unknown — deliberately
        an over-approximation, so worker reachability errs on the side
        of *more* code being checked.
        """
        targets: Set[str] = set()
        for mod in self.modules.values():
            for cls in mod.classes.values():
                info = cls.methods.get(method_name)
                if info is not None:
                    targets.add(info.key)
        return targets

    # -- import graph -----------------------------------------------------

    def import_cycles(self) -> List[List[str]]:
        """Load-time import cycles (SCCs of size > 1), deterministic order.

        Only module-top-level imports participate: a function-level
        import is the sanctioned way to break a load-time cycle, so it
        must not re-flag the cycle it just broke.
        """
        order: List[str] = []
        visited: Set[str] = set()

        def edges(name: str) -> List[str]:
            mod = self.modules.get(name)
            if mod is None:
                return []
            return sorted(t for t in mod.toplevel_imports if t in self.modules)

        for start in sorted(self.modules):
            if start in visited:
                continue
            stack: List[Tuple[str, int]] = [(start, 0)]
            visited.add(start)
            while stack:
                node, idx = stack.pop()
                outs = edges(node)
                if idx < len(outs):
                    stack.append((node, idx + 1))
                    nxt = outs[idx]
                    if nxt not in visited:
                        visited.add(nxt)
                        stack.append((nxt, 0))
                else:
                    order.append(node)

        transposed: Dict[str, List[str]] = {name: [] for name in self.modules}
        for name in self.modules:
            for target in edges(name):
                transposed[target].append(name)

        assigned: Set[str] = set()
        components: List[List[str]] = []
        for root in reversed(order):
            if root in assigned:
                continue
            component: List[str] = []
            frontier = [root]
            assigned.add(root)
            while frontier:
                node = frontier.pop()
                component.append(node)
                for prev in transposed.get(node, []):
                    if prev not in assigned:
                        assigned.add(prev)
                        frontier.append(prev)
            if len(component) > 1:
                components.append(sorted(component))
        return sorted(components)

    def reverse_dependents(self, names: Iterable[str]) -> Set[str]:
        """Modules that (transitively) import any of ``names``.

        Uses *all* import edges, including function-level ones, so a
        ``--changed`` run never skips a module that consumes the change
        lazily.  The seed names themselves are included in the result.
        """
        if self._edges is None:
            edges: Dict[str, Set[str]] = {name: set() for name in self.modules}
            for name, mod in self.modules.items():
                for target in mod.all_imports:
                    if target in edges:
                        edges[target].add(name)
            self._edges = edges
        result = {name for name in names if name in self.modules}
        frontier = list(result)
        while frontier:
            node = frontier.pop()
            for dependent in self._edges.get(node, ()):
                if dependent not in result:
                    result.add(dependent)
                    frontier.append(dependent)
        return result


def _record_import(
    mod: ProjectModule,
    target: str,
    lineno: int,
    toplevel: bool,
    known: Set[str],
) -> None:
    if target not in known:
        return
    mod.all_imports.setdefault(target, lineno)
    if toplevel:
        mod.toplevel_imports.setdefault(target, lineno)


def _resolve_from_target(
    mod: ProjectModule, node: ast.ImportFrom
) -> Optional[str]:
    """Absolute dotted base module of a ``from X import ...`` statement."""
    if node.level == 0:
        return node.module
    base_parts = mod.package.split(".") if mod.package else []
    # level=1 is the current package; each extra level climbs one parent.
    climb = node.level - 1
    if climb > len(base_parts):
        return None
    base_parts = base_parts[: len(base_parts) - climb] if climb else base_parts
    if node.module:
        base_parts = base_parts + node.module.split(".")
    return ".".join(base_parts) if base_parts else None


def _collect_imports(mod: ProjectModule, known: Set[str]) -> None:
    """Populate import edges and alias tables for one module."""
    toplevel_ids = {id(stmt) for stmt in mod.context.tree.body}
    for node in ast.walk(mod.context.tree):
        toplevel = id(node) in toplevel_ids
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                if alias.name in known:
                    _record_import(mod, alias.name, node.lineno, toplevel, known)
                    if alias.asname:
                        mod.module_aliases[local] = alias.name
                    else:
                        # ``import repro.core.batch`` binds ``repro``;
                        # record the root package alias when known.
                        root = alias.name.split(".")[0]
                        if root in known:
                            mod.module_aliases.setdefault(local, root)
                else:
                    mod.external_aliases[local] = alias.name
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_from_target(mod, node)
            if base is None:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                submodule = f"{base}.{alias.name}"
                if submodule in known:
                    _record_import(mod, submodule, node.lineno, toplevel, known)
                    mod.module_aliases[local] = submodule
                elif base in known:
                    _record_import(mod, base, node.lineno, toplevel, known)
                    mod.imported_names[local] = (base, alias.name)
                else:
                    mod.external_names[local] = (base, alias.name)


def _collect_calls(info: FunctionInfo) -> None:
    for node in ast.walk(info.node):
        if isinstance(node, ast.Call):
            info.calls.append(node)


def _is_mutable_value(value: ast.expr) -> bool:
    if isinstance(value, _MUTABLE_LITERALS):
        return True
    if isinstance(value, ast.Call):
        name = attr_chain(value.func).rsplit(".", 1)[-1]
        if name in _MUTABLE_CONSTRUCTORS:
            return True
        if attr_chain(value.func) in ("threading.local",):
            return True
    return False


def _collect_symbols(mod: ProjectModule) -> None:
    """Top-level functions, classes, mutable globals and nested classes."""
    for stmt in mod.context.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = FunctionInfo(module=mod.name, qualname=stmt.name, node=stmt)
            _collect_calls(info)
            mod.functions[stmt.name] = info
        elif isinstance(stmt, ast.ClassDef):
            cls = ClassInfo(
                module=mod.name,
                name=stmt.name,
                node=stmt,
                bases=[attr_chain(b) for b in stmt.bases if attr_chain(b)],
            )
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info = FunctionInfo(
                        module=mod.name,
                        qualname=f"{stmt.name}.{item.name}",
                        node=item,
                    )
                    _collect_calls(info)
                    cls.methods[item.name] = info
            mod.classes[stmt.name] = cls
        elif isinstance(stmt, ast.Assign):
            if _is_mutable_value(stmt.value):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        mod.mutable_globals[target.id] = stmt.lineno
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None and _is_mutable_value(stmt.value):
                if isinstance(stmt.target, ast.Name):
                    mod.mutable_globals[stmt.target.id] = stmt.lineno
    # Classes not at module top level cannot pickle by reference.
    toplevel_classes = {id(cls.node) for cls in mod.classes.values()}
    for node in ast.walk(mod.context.tree):
        if isinstance(node, ast.ClassDef) and id(node) not in toplevel_classes:
            mod.nested_classes.append(node)


def build_project(contexts: Sequence[ModuleContext]) -> ProjectModel:
    """Build the model for one lint run from already-parsed modules.

    Module names are derived from each context's path (packages are
    detected on disk); duplicate names keep the first occurrence, which
    cannot happen for files discovered under one root.
    """
    modules: Dict[str, ProjectModule] = {}
    for context in contexts:
        path = Path(context.path)
        name = context.module_name or module_name_for_path(path)
        if not context.module_name:
            context.module_name = name
        package = name.rsplit(".", 1)[0] if "." in name else ""
        if path.stem == "__init__":
            package = name
        if name not in modules:
            modules[name] = ProjectModule(
                name=name, context=context, package=package
            )
    known = set(modules)
    for mod in modules.values():
        _collect_symbols(mod)
        _collect_imports(mod, known)
    return ProjectModel(modules)
