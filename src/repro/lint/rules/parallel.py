"""FV006–FV008 — parallel-safety and determinism, whole-program.

The engine's serial ≡ parallel bit-identity guarantee fails in exactly
three structural ways, all statically detectable once a cross-file
model exists:

- **FV006 pickle-safety** — a task dataclass that cannot cross the
  process-pool boundary (not frozen, nested, or carrying lambdas,
  locks, handles or nested-class fields) fails only at dispatch time,
  and only under ``workers > 1``.
- **FV007 worker-state hygiene** — module-level mutable state read or
  written on a worker-reachable path diverges silently between serial
  (one interpreter) and parallel (N interpreters) execution.
- **FV008 hidden nondeterminism** — wall-clock/entropy values flowing
  into trial results, unordered ``set`` iteration, and legacy
  ``np.random`` global-state draws all make reruns non-reproducible.

FV007/FV008 check only functions conservatively reachable from the
worker seams (``engine._run_chunk`` and every task ``__call__``); the
:mod:`repro.obs` modules are exempt — the per-chunk trace aggregation
is the audited channel for wall-clock telemetry and is documented to
never feed trial values.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.model import Finding, ModuleContext, ProjectRule, Severity, register_rule
from repro.lint.project import ClassInfo, FunctionInfo, ProjectModule, attr_chain

__all__ = [
    "HiddenNondeterminismRule",
    "PickleSafetyRule",
    "WorkerStateHygieneRule",
]

#: Annotation chains that are never statically picklable in a task field.
_UNPICKLABLE_ANNOTATIONS = {
    "Lock",
    "RLock",
    "Condition",
    "Semaphore",
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
    "threading.Semaphore",
    "multiprocessing.Lock",
    "Iterator",
    "Generator",
    "typing.Iterator",
    "typing.Generator",
    "collections.abc.Iterator",
    "collections.abc.Generator",
    "IO",
    "TextIO",
    "BinaryIO",
    "typing.IO",
    "typing.TextIO",
    "typing.BinaryIO",
    "socket.socket",
    "Callable",
    "typing.Callable",
    "collections.abc.Callable",
}

#: Default-value constructors that produce unpicklable field values.
_UNPICKLABLE_DEFAULT_CALLS = {"open", "Lock", "RLock", "threading.Lock", "threading.RLock"}

#: ``np.random`` global-state draws flagged by FV008.  Deliberately
#: disjoint from FV001's legacy set so one line never double-flags.
_NONDET_DRAWS = {
    "random",
    "uniform",
    "normal",
    "standard_normal",
    "choice",
    "shuffle",
    "permutation",
    "exponential",
    "poisson",
    "binomial",
    "beta",
    "gamma",
    "bytes",
    "sample",
    "ranf",
    "get_state",
    "set_state",
}

#: Fully-qualified wall-clock / entropy sources for the taint check.
_NONDET_SOURCES = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "os.urandom",
    "os.getrandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.randbits",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


def _is_audited_module(module_name: str) -> bool:
    """The obs aggregation path is the audited telemetry channel."""
    return "obs" in module_name.split(".")


def _annotation_chains(annotation: ast.expr) -> Iterator[Tuple[ast.expr, str]]:
    """Maximal dotted-name chains inside an annotation expression.

    ``Optional[np.random.Generator]`` yields ``np.random.Generator``
    once (never its ``np.random`` prefix), so deny-list entries match
    whole type names only.
    """
    chain = attr_chain(annotation)
    if chain:
        yield annotation, chain
        return
    for child in ast.iter_child_nodes(annotation):
        if isinstance(child, ast.expr):
            yield from _annotation_chains(child)


def _reachable_in_module(
    project, module: ModuleContext
) -> List[FunctionInfo]:
    """Seam-reachable functions defined in the module being checked."""
    mod = project.modules.get(module.module_name)
    if mod is None:
        return []
    prefix = f"{mod.name}::"
    infos = []
    for key in sorted(project.seam_reachable()):
        if key.startswith(prefix):
            info = project.function(key)
            if info is not None:
                infos.append(info)
    return infos


def _resolve_external(mod: ProjectModule, chain: str) -> str:
    """Rewrite a local call chain through the module's import aliases.

    ``perf_counter`` under ``from time import perf_counter`` resolves
    to ``time.perf_counter``; ``dt.now`` under ``from datetime import
    datetime as dt`` resolves to ``datetime.datetime.now``.
    """
    if not chain:
        return chain
    head, _, rest = chain.partition(".")
    if head in mod.external_aliases:
        resolved = mod.external_aliases[head]
        return f"{resolved}.{rest}" if rest else resolved
    if head in mod.external_names:
        src, original = mod.external_names[head]
        resolved = f"{src}.{original}"
        return f"{resolved}.{rest}" if rest else resolved
    return chain


@register_rule
class PickleSafetyRule(ProjectRule):
    """FV006: every worker task dataclass must pickle by construction."""

    code = "FV006"
    name = "pickle-safety"
    severity = Severity.ERROR
    description = (
        "task dataclasses cross the process-pool boundary: they must be "
        "frozen, module-level dataclasses whose fields are statically "
        "picklable — no lambdas, locks, handles, callables or "
        "nested-class types"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if self.project is None:
            return
        mod = self.project.modules.get(module.module_name)
        if mod is None:
            return
        nested_names = self._nested_class_names()
        for node in mod.nested_classes:
            if node.name.endswith("Task"):
                yield self.finding(
                    module,
                    node,
                    f"task class {node.name!r} is not module-level: nested "
                    "classes cannot pickle by reference into worker processes",
                )
        for cls in self.project.task_classes():
            if cls.module != mod.name:
                continue
            yield from self._check_class(module, cls, nested_names)

    def _nested_class_names(self) -> Set[str]:
        names: Set[str] = set()
        for mod in self.project.modules.values():
            for node in mod.nested_classes:
                names.add(node.name)
        return names

    def _check_class(
        self, module: ModuleContext, cls: ClassInfo, nested_names: Set[str]
    ) -> Iterator[Finding]:
        frozen = self._dataclass_frozen(cls.node)
        if frozen is None:
            yield self.finding(
                module,
                cls.node,
                f"task class {cls.name!r} is not a dataclass: worker tasks "
                "must be @dataclass(frozen=True) so they pickle and cannot "
                "mutate mid-sweep",
            )
        elif not frozen:
            yield self.finding(
                module,
                cls.node,
                f"task dataclass {cls.name!r} is not frozen: declare "
                "@dataclass(frozen=True) so a dispatched task cannot drift "
                "from the copy a worker already received",
            )
        for stmt in cls.node.body:
            if not isinstance(stmt, ast.AnnAssign):
                continue
            yield from self._check_field(module, cls, stmt, nested_names)

    @staticmethod
    def _dataclass_frozen(node: ast.ClassDef) -> Optional[bool]:
        """``None`` when not a dataclass, else the ``frozen`` flag."""
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            chain = attr_chain(target)
            if chain.rsplit(".", 1)[-1] != "dataclass":
                continue
            if not isinstance(decorator, ast.Call):
                return False
            for keyword in decorator.keywords:
                if keyword.arg == "frozen":
                    value = keyword.value
                    return isinstance(value, ast.Constant) and value.value is True
            return False
        return None

    def _check_field(
        self,
        module: ModuleContext,
        cls: ClassInfo,
        stmt: ast.AnnAssign,
        nested_names: Set[str],
    ) -> Iterator[Finding]:
        field_name = stmt.target.id if isinstance(stmt.target, ast.Name) else "?"
        for node, chain in _annotation_chains(stmt.annotation):
            if chain.split(".", 1)[0] in ("np", "numpy"):
                continue  # numpy types (incl. Generator) pickle fine
            if chain in _UNPICKLABLE_ANNOTATIONS:
                yield self.finding(
                    module,
                    node,
                    f"field {cls.name}.{field_name} is typed {chain!r}: locks, "
                    "handles, iterators and bare callables cannot be proven "
                    "picklable, so the task would die at the pool boundary",
                )
            elif chain in nested_names:
                yield self.finding(
                    module,
                    node,
                    f"field {cls.name}.{field_name} is typed {chain!r}, a "
                    "nested class: instances cannot pickle by reference into "
                    "worker processes",
                )
        if stmt.value is not None:
            yield from self._check_default(module, cls, field_name, stmt.value)

    def _check_default(
        self, module: ModuleContext, cls: ClassInfo, field_name: str, value: ast.expr
    ) -> Iterator[Finding]:
        if isinstance(value, ast.Lambda):
            yield self.finding(
                module,
                value,
                f"field {cls.name}.{field_name} defaults to a lambda: lambdas "
                "never pickle — use a module-level function",
            )
            return
        if not isinstance(value, ast.Call):
            return
        chain = attr_chain(value.func)
        if chain in _UNPICKLABLE_DEFAULT_CALLS:
            yield self.finding(
                module,
                value,
                f"field {cls.name}.{field_name} defaults to {chain}(): open "
                "handles and locks cannot cross the process-pool boundary",
            )
        for keyword in value.keywords:
            if keyword.arg in ("default_factory", "default") and isinstance(
                keyword.value, ast.Lambda
            ):
                yield self.finding(
                    module,
                    keyword.value,
                    f"field {cls.name}.{field_name} uses a lambda "
                    f"{keyword.arg}: lambdas never pickle — use a "
                    "module-level function",
                )


@register_rule
class WorkerStateHygieneRule(ProjectRule):
    """FV007: no mutable module globals on a worker-reachable path."""

    code = "FV007"
    name = "worker-state-hygiene"
    severity = Severity.ERROR
    description = (
        "functions reachable from the worker seams (_run_chunk, task "
        "__call__) must not read or write module-level mutable globals: "
        "each worker process has its own copy, so serial and parallel "
        "runs silently diverge (the audited repro.obs path is exempt)"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if self.project is None:
            return
        if _is_audited_module(module.module_name):
            return
        mod = self.project.modules.get(module.module_name)
        if mod is None:
            return
        for info in _reachable_in_module(self.project, module):
            yield from self._check_function(module, mod, info)

    def _check_function(
        self, module: ModuleContext, mod: ProjectModule, info: FunctionInfo
    ) -> Iterator[Finding]:
        local_names: Set[str] = set()
        global_decls: Set[str] = set()
        args = getattr(info.node, "args", None)
        if args is not None:
            for arg in (
                list(args.posonlyargs)
                + list(args.args)
                + list(args.kwonlyargs)
                + ([args.vararg] if args.vararg else [])
                + ([args.kwarg] if args.kwarg else [])
            ):
                local_names.add(arg.arg)
        for node in ast.walk(info.node):
            if isinstance(node, ast.Global):
                global_decls.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                local_names.add(node.id)
        local_names -= global_decls
        seen: Set[Tuple[int, str]] = set()
        for node in ast.walk(info.node):
            hit: Optional[Tuple[ast.AST, str, str]] = None
            if isinstance(node, ast.Name):
                name = node.id
                if name in mod.mutable_globals and name not in local_names:
                    hit = (node, name, mod.name)
            elif isinstance(node, ast.Attribute):
                chain = attr_chain(node)
                head, _, rest = chain.partition(".")
                if rest and "." not in rest and head in mod.module_aliases:
                    target = self.project.modules.get(mod.module_aliases[head])
                    if (
                        target is not None
                        and rest in target.mutable_globals
                        and not _is_audited_module(target.name)
                    ):
                        hit = (node, rest, target.name)
            if hit is None:
                continue
            node_, name, owner = hit
            key = (getattr(node_, "lineno", 0), name)
            if key in seen:
                continue
            seen.add(key)
            yield self.finding(
                module,
                node_,
                f"{info.qualname} is reachable from a worker seam but touches "
                f"the mutable module global {name!r} (defined in {owner}): "
                "worker processes each hold a private copy, so parallel and "
                "serial runs diverge — pass state explicitly or make it "
                "immutable",
            )


@register_rule
class HiddenNondeterminismRule(ProjectRule):
    """FV008: no clocks, entropy, set iteration or legacy RNG in results."""

    code = "FV008"
    name = "hidden-nondeterminism"
    severity = Severity.ERROR
    description = (
        "trial results must be pure functions of the trial generator: no "
        "wall-clock/entropy values flowing into returns on worker-reachable "
        "paths, no iteration over unordered sets there, and no legacy "
        "np.random global-state draws anywhere"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        yield from self._check_legacy_draws(module)
        if self.project is None or _is_audited_module(module.module_name):
            return
        mod = self.project.modules.get(module.module_name)
        if mod is None:
            return
        for info in _reachable_in_module(self.project, module):
            yield from self._check_taint(module, mod, info)
            yield from self._check_set_iteration(module, info)

    def _check_legacy_draws(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = attr_chain(node.func)
            parts = chain.split(".")
            if (
                len(parts) == 3
                and parts[0] in ("np", "numpy")
                and parts[1] == "random"
                and parts[2] in _NONDET_DRAWS
            ):
                yield self.finding(
                    module,
                    node,
                    f"legacy global-state draw {chain}(): results depend on "
                    "hidden interpreter state — draw from the trial's seeded "
                    "Generator instead",
                )

    def _nondet_call(
        self, mod: ProjectModule, node: ast.AST
    ) -> Optional[ast.Call]:
        if isinstance(node, ast.Call):
            chain = _resolve_external(mod, attr_chain(node.func))
            if chain in _NONDET_SOURCES:
                return node
        return None

    def _contains_nondet(
        self, mod: ProjectModule, expr: ast.AST, tainted: Set[str]
    ) -> Optional[ast.AST]:
        for node in ast.walk(expr):
            call = self._nondet_call(mod, node)
            if call is not None:
                return call
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in tainted
            ):
                return node
        return None

    def _check_taint(
        self, module: ModuleContext, mod: ProjectModule, info: FunctionInfo
    ) -> Iterator[Finding]:
        tainted: Set[str] = set()
        taint_sites: Dict[str, ast.AST] = {}
        assignments: List[Tuple[List[ast.expr], ast.expr, ast.stmt]] = []
        for node in ast.walk(info.node):
            if isinstance(node, ast.Assign):
                assignments.append((node.targets, node.value, node))
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                if node.value is not None:
                    assignments.append(([node.target], node.value, node))
        changed = True
        while changed:
            changed = False
            for targets, value, stmt in assignments:
                source = self._contains_nondet(mod, value, tainted)
                if source is None:
                    continue
                for target in targets:
                    for leaf in ast.walk(target):
                        if isinstance(leaf, ast.Name) and leaf.id not in tainted:
                            tainted.add(leaf.id)
                            taint_sites[leaf.id] = stmt
                            changed = True
        reported: Set[int] = set()
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Return) or node.value is None:
                continue
            for sub in ast.walk(node.value):
                anchor: Optional[ast.AST] = None
                call = self._nondet_call(mod, sub)
                if call is not None:
                    anchor = call
                elif (
                    isinstance(sub, ast.Name)
                    and isinstance(sub.ctx, ast.Load)
                    and sub.id in tainted
                ):
                    anchor = taint_sites.get(sub.id, sub)
                if anchor is None or id(anchor) in reported:
                    continue
                reported.add(id(anchor))
                yield self.finding(
                    module,
                    anchor,
                    f"{info.qualname} is reachable from a worker seam and "
                    "returns a wall-clock/entropy-derived value: trial "
                    "results must be pure functions of the trial generator",
                )

    def _check_set_iteration(
        self, module: ModuleContext, info: FunctionInfo
    ) -> Iterator[Finding]:
        set_names: Set[str] = set()
        for node in ast.walk(info.node):
            if isinstance(node, ast.Assign) and self._is_set_expr(node.value, set()):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        set_names.add(target.id)
        iters: List[ast.expr] = []
        for node in ast.walk(info.node):
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
        for it in iters:
            if self._is_set_expr(it, set_names):
                yield self.finding(
                    module,
                    it,
                    f"{info.qualname} iterates an unordered set on a "
                    "worker-reachable path: iteration order is "
                    "interpreter-dependent — sort first (sorted(...)) so "
                    "results are reproducible",
                )

    @staticmethod
    def _is_set_expr(expr: ast.expr, set_names: Set[str]) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call):
            chain = attr_chain(expr.func)
            if chain in ("set", "frozenset"):
                return True
        if isinstance(expr, ast.Name) and expr.id in set_names:
            return True
        return False
