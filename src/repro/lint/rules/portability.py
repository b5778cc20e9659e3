"""FV009–FV010 — backend portability and layering, whole-program.

- **FV009 array-API portability** — the hot numerical paths
  (``core/batch.py``, ``core/kernels.py`` and any ``*_batch``/
  ``*_kernels`` module) stay within the array-API standard, so they
  could run unchanged on an array-API library (CuPy, torch,
  jax.numpy).  Any ``np.*`` call there with no array-API-standard
  equivalent is a port blocker and gets flagged now, while the fix is
  a one-line substitution rather than an excavation.  Calls the
  standard *renames* (``np.concatenate`` → ``concat``, ``np.power`` →
  ``pow`` ...) are allowed: a port would substitute them mechanically.
- **FV010 layering** — locks in the PR3 cycle fix structurally: no
  load-time import cycles anywhere (function-level imports are the
  sanctioned cycle-breaking idiom and do not count), and no package may
  import a package above it in the layer table (``core`` must never
  import ``simulation`` or ``experiments``).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, Set

from repro.lint.model import Finding, ModuleContext, ProjectRule, Rule, Severity, register_rule
from repro.lint.project import attr_chain

__all__ = [
    "ArrayApiPortabilityRule",
    "LayeringRule",
]

#: Function names present in the array-API standard (2023.12/2024.12),
#: hence safe in a hot path: a port keeps them verbatim.
_ARRAY_API_FUNCTIONS = {
    # creation
    "arange", "asarray", "empty", "empty_like", "eye", "from_dlpack",
    "full", "full_like", "linspace", "meshgrid", "ones", "ones_like",
    "tril", "triu", "zeros", "zeros_like",
    # element-wise
    "abs", "acos", "acosh", "add", "asin", "asinh", "atan", "atan2",
    "atanh", "bitwise_and", "bitwise_invert", "bitwise_left_shift",
    "bitwise_or", "bitwise_right_shift", "bitwise_xor", "ceil", "clip",
    "conj", "copysign", "cos", "cosh", "divide", "equal", "exp",
    "expm1", "floor", "floor_divide", "greater", "greater_equal",
    "hypot", "imag", "isfinite", "isinf", "isnan", "less",
    "less_equal", "log", "log1p", "log2", "log10", "logaddexp",
    "logical_and", "logical_not", "logical_or", "logical_xor",
    "maximum", "minimum", "multiply", "negative", "nextafter",
    "not_equal", "positive", "pow", "real", "reciprocal", "remainder",
    "round", "sign", "signbit", "sin", "sinh", "square", "sqrt",
    "subtract", "tan", "tanh", "trunc",
    # statistical
    "cumulative_prod", "cumulative_sum", "max", "mean", "min", "prod",
    "std", "sum", "var",
    # linear algebra (main namespace)
    "matmul", "matrix_transpose", "tensordot", "vecdot",
    # manipulation
    "broadcast_arrays", "broadcast_to", "concat", "expand_dims",
    "flip", "moveaxis", "permute_dims", "repeat", "reshape", "roll",
    "squeeze", "stack", "tile", "unstack",
    # searching / indexing
    "argmax", "argmin", "count_nonzero", "nonzero", "searchsorted",
    "take", "take_along_axis", "where",
    # set functions
    "unique_all", "unique_counts", "unique_inverse", "unique_values",
    # sorting
    "argsort", "sort",
    # utility
    "all", "any", "diff",
    # dtype helpers and dtype constructors
    "astype", "can_cast", "finfo", "iinfo", "isdtype", "result_type",
    "bool_", "complex64", "complex128", "float32", "float64",
    "int8", "int16", "int32", "int64",
    "uint8", "uint16", "uint32", "uint64",
}

#: numpy name -> array-API name.  A renamed call is *allowed* — a port
#: substitutes it mechanically, with no redesign.
_ARRAY_API_RENAMES = {
    "absolute": "abs",
    "amax": "max",
    "amin": "min",
    "arccos": "acos",
    "arccosh": "acosh",
    "arcsin": "asin",
    "arcsinh": "asinh",
    "arctan": "atan",
    "arctan2": "atan2",
    "arctanh": "atanh",
    "concatenate": "concat",
    "conjugate": "conj",
    "cumprod": "cumulative_prod",
    "cumsum": "cumulative_sum",
    "fabs": "abs",
    "invert": "bitwise_invert",
    "left_shift": "bitwise_left_shift",
    "mod": "remainder",
    "power": "pow",
    "right_shift": "bitwise_right_shift",
    "round_": "round",
    "transpose": "permute_dims",
    "true_divide": "divide",
    "unique": "unique_values",
}

#: ``linalg`` extension members (plus ``norm``, renamed to
#: ``vector_norm``/``matrix_norm``).
_ARRAY_API_LINALG = {
    "cholesky", "cross", "det", "diagonal", "eigh", "eigvalsh", "inv",
    "matmul", "matrix_norm", "matrix_power", "matrix_rank",
    "matrix_transpose", "norm", "outer", "pinv", "qr", "slogdet",
    "solve", "svd", "svdvals", "tensordot", "trace", "vecdot",
    "vector_norm",
}

#: ufunc-method calls (``np.add.reduce`` ...) have no array-API form.
_UFUNC_METHODS = {"accumulate", "at", "outer", "reduce", "reduceat"}

#: Package layer ranks.  A module may import strictly-lower-ranked
#: packages only; the root ``repro`` package module is exempt.
_LAYER_RANKS: Dict[str, int] = {
    "errors": 0,
    "_version": 0,
    "ioutil": 1,
    "seeding": 1,
    "lint": 1,
    "geometry": 1,
    "obs": 2,
    "sensors": 3,
    "deployment": 4,
    "core": 5,
    "analysis": 6,
    "barrier": 6,
    "planning": 6,
    "simulation": 6,
    "resilience": 7,
    "viz": 8,
    "experiments": 8,
    "api": 9,
    "service": 10,
    "cli": 11,
    "__main__": 12,
}


def _hot_path(path: str) -> bool:
    """True for the hot-path modules FV009 keeps array-API portable."""
    stem = Path(path).stem
    return stem in ("batch", "kernels") or stem.endswith(("_batch", "_kernels"))


def _layer_package(module_name: str) -> str:
    """The layer-table key for a ``repro.*`` module, else ``""``."""
    parts = module_name.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return ""
    return parts[1]


@register_rule
class ArrayApiPortabilityRule(Rule):
    """FV009: hot-path numpy calls must have array-API equivalents."""

    code = "FV009"
    name = "array-api-portability"
    severity = Severity.WARNING
    description = (
        "numpy calls in the hot batch/kernel paths must exist in the "
        "array-API standard (or be a standard rename) so running them on "
        "another array-API library stays a namespace substitution"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not _hot_path(module.path):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = attr_chain(node.func)
            parts = chain.split(".")
            if not parts or parts[0] not in ("np", "numpy"):
                continue
            if len(parts) == 2:
                name = parts[1]
                if name in _ARRAY_API_FUNCTIONS or name in _ARRAY_API_RENAMES:
                    continue
                yield self.finding(
                    module,
                    node,
                    f"{chain}() has no array-API-standard equivalent: an "
                    "array-API library cannot run this hot path — "
                    "restructure around standard functions or hoist the "
                    "call out of the kernel",
                )
            elif len(parts) == 3:
                _, middle, name = parts
                if middle == "linalg":
                    if name not in _ARRAY_API_LINALG:
                        yield self.finding(
                            module,
                            node,
                            f"{chain}() is outside the array-API linalg "
                            "extension: an array-API library need not "
                            "provide it",
                        )
                elif middle in ("fft", "random"):
                    # fft is a standard extension; random is FV001/FV008's
                    # jurisdiction — never double-flag a draw here.
                    continue
                elif name in _UFUNC_METHODS:
                    yield self.finding(
                        module,
                        node,
                        f"ufunc method {chain}() has no array-API form: "
                        "express the reduction with standard functions so "
                        "the hot path stays portable",
                    )


@register_rule
class LayeringRule(ProjectRule):
    """FV010: no load-time import cycles, no upward package imports."""

    code = "FV010"
    name = "layering"
    severity = Severity.ERROR
    description = (
        "the package layer table is a contract: no load-time import "
        "cycles, and no package imports a package at or above its own "
        "layer (core must never import simulation or experiments)"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if self.project is None:
            return
        mod = self.project.modules.get(module.module_name)
        if mod is None:
            return
        yield from self._check_cycles(module, mod)
        yield from self._check_layers(module, mod)

    def _check_cycles(self, module: ModuleContext, mod) -> Iterator[Finding]:
        for cycle in self.project.import_cycles():
            if mod.name != cycle[0]:
                continue  # one finding per cycle, anchored in the first member
            partner = next(
                (name for name in cycle[1:] if name in mod.toplevel_imports),
                cycle[1],
            )
            line = mod.toplevel_imports.get(partner, 1)
            yield self._finding_at(
                module,
                line,
                "load-time import cycle: "
                + " -> ".join(cycle + [cycle[0]])
                + " — break it with a function-level import or by moving "
                "the shared symbol down a layer",
            )

    def _check_layers(self, module: ModuleContext, mod) -> Iterator[Finding]:
        own = _layer_package(mod.name)
        if not own or own not in _LAYER_RANKS:
            return
        own_rank = _LAYER_RANKS[own]
        for target, line in sorted(mod.all_imports.items(), key=lambda kv: kv[1]):
            other = _layer_package(target)
            if not other or other == own or other not in _LAYER_RANKS:
                continue
            if _LAYER_RANKS[other] >= own_rank:
                yield self._finding_at(
                    module,
                    line,
                    f"layer violation: repro.{own} (layer {own_rank}) "
                    f"imports {target} (layer {_LAYER_RANKS[other]}): "
                    "dependencies must point strictly down the layer table",
                )

    def _finding_at(self, module: ModuleContext, line: int, message: str) -> Finding:
        anchor = ast.Pass()
        anchor.lineno = line
        anchor.col_offset = 0
        return self.finding(module, anchor, message)
