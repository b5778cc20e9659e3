"""Per-rule behaviour of fvlint, pinned against the snippet corpus.

Every rule FV001–FV009 gets at least one true-positive corpus test (the
``bad/`` file flags) and one negative corpus test (the ``good/`` file is
clean), plus inline ``lint_source`` cases for the edge behaviour the
corpus files cannot express naturally.  FV010 needs package-shaped
fixtures (a real import cycle cannot live in one file), so it is pinned
against the ``fv010_cycle``/``fv010_fixed`` corpus packages instead.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import lint_paths, lint_source

CORPUS = Path(__file__).resolve().parent / "corpus"
BAD = CORPUS / "bad"
GOOD = CORPUS / "good"

#: (rule code, bad corpus file, expected bad findings, good corpus file)
RULE_CASES = [
    ("FV001", "bad_fv001.py", 5, "good_fv001.py"),
    ("FV002", "bad_fv002.py", 3, "good_fv002.py"),
    ("FV003", "bad_fv003.py", 4, "good_fv003.py"),
    ("FV004", "bad_fv004.py", 2, "good_fv004.py"),
    ("FV005", "bad_fv005.py", 3, "good_fv005.py"),
    ("FV006", "bad_fv006.py", 5, "good_fv006.py"),
    ("FV007", "bad_fv007.py", 3, "good_fv007.py"),
    ("FV008", "bad_fv008.py", 3, "good_fv008.py"),
    ("FV009", "bad_fv009_kernels.py", 3, "good_fv009_kernels.py"),
]


@pytest.mark.parametrize("code,bad_file,expected,good_file", RULE_CASES)
class TestCorpusPerRule:
    def test_bad_snippet_flags(self, code, bad_file, expected, good_file):
        result = lint_paths([BAD / bad_file], select=[code])
        assert len(result.findings) == expected
        assert all(f.code == code for f in result.findings)

    def test_good_snippet_clean(self, code, bad_file, expected, good_file):
        result = lint_paths([GOOD / good_file], select=[code])
        assert result.ok, "\n".join(f.render() for f in result.findings)


class TestCorpusWhole:
    def test_good_directory_clean_under_all_rules(self):
        result = lint_paths([GOOD])
        assert result.ok, "\n".join(f.render() for f in result.findings)
        assert result.files_checked == len(list(GOOD.glob("*.py")))

    def test_bad_directory_flags_every_rule(self):
        result = lint_paths([BAD])
        assert not result.ok
        codes = set(result.counts_by_code())
        assert {
            "FV001", "FV002", "FV003", "FV004", "FV005",
            "FV006", "FV007", "FV008", "FV009",
        } <= codes

    def test_missing_dunder_all_variant(self):
        result = lint_paths([BAD / "bad_fv005_no_all.py"], select=["FV005"])
        assert len(result.findings) == 1
        assert "no __all__" in result.findings[0].message


class TestRngEdges:
    def test_monte_carlo_config_seed_arithmetic_flags(self):
        findings = lint_source(
            "config = MonteCarloConfig(trials=10, seed=seed + 7)\n",
            select=["FV001"],
        )
        assert len(findings) == 1
        assert "derive_seed" in findings[0].message

    def test_monte_carlo_config_derived_seed_clean(self):
        findings = lint_source(
            "config = MonteCarloConfig(trials=10, seed=derive_seed(seed, 7))\n",
            select=["FV001"],
        )
        assert findings == []

    def test_from_random_import_flags(self):
        findings = lint_source("from random import choice\n", select=["FV001"])
        assert len(findings) == 1

    def test_seeded_default_rng_clean(self):
        findings = lint_source(
            "rng = np.random.default_rng(seed)\n", select=["FV001"]
        )
        assert findings == []


class TestErrorContractEdges:
    def test_dynamic_constructor_name_flags(self):
        findings = lint_source("raise make_error()\n", select=["FV002"])
        assert len(findings) == 1

    def test_bare_name_builtin_still_flags(self):
        # `raise ValueError` without parens still instantiates.
        findings = lint_source("raise ValueError\n", select=["FV002"])
        assert len(findings) == 1

    def test_attribute_family_raise_clean(self):
        findings = lint_source(
            "raise errors.InvalidParameterError('bad')\n", select=["FV002"]
        )
        assert findings == []

    def test_raise_from_preserves_verdict(self):
        src = (
            "try:\n"
            "    pass\n"
            "except ValueError as exc:\n"
            "    raise InvalidParameterError('bad') from exc\n"
        )
        assert lint_source(src, select=["FV002"]) == []


class TestAngleEdges:
    def test_angles_module_itself_exempt(self):
        findings = lint_source(
            "TWO_PI = 2.0 * math.pi\n",
            path="src/repro/geometry/angles.py",
            select=["FV003"],
        )
        assert findings == []

    def test_reversed_product_flags(self):
        findings = lint_source("circle = math.pi * 2\n", select=["FV003"])
        assert len(findings) == 1

    def test_half_circle_clean(self):
        assert lint_source("half = math.pi / 2\n", select=["FV003"]) == []


class TestFloatEqualityEdges:
    def test_literal_on_left_flags(self):
        findings = lint_source("ok = 0.5 == x\n", select=["FV004"])
        assert len(findings) == 1

    def test_negative_literal_flags(self):
        findings = lint_source("ok = x == -1.5\n", select=["FV004"])
        assert len(findings) == 1

    def test_integer_literal_clean(self):
        assert lint_source("ok = x == 3\n", select=["FV004"]) == []

    def test_ordering_comparison_clean(self):
        assert lint_source("ok = x < 0.5\n", select=["FV004"]) == []


class TestApiSurfaceEdges:
    def test_private_module_exempt(self):
        findings = lint_source(
            "def undocumented():\n    return 1\n",
            path="src/repro/_internal.py",
            select=["FV005"],
        )
        assert findings == []

    def test_non_literal_dunder_all_flags(self):
        src = '"""Doc."""\n\n__all__ = sorted(["a"])\n'
        findings = lint_source(src, path="mod.py", select=["FV005"])
        assert len(findings) == 1
        assert "literal" in findings[0].message

    def test_conditional_import_counts_as_bound(self):
        src = (
            '"""Doc."""\n\n'
            "__all__ = ['helper']\n\n"
            "try:\n"
            "    from other import helper\n"
            "except ImportError:\n"
            "    helper = None\n"
        )
        assert lint_source(src, path="mod.py", select=["FV005"]) == []


class TestPickleSafetyEdges:
    def test_non_task_class_exempt(self):
        src = (
            "class Helper:\n"
            "    lock: object\n"
        )
        assert lint_source(src, select=["FV006"]) == []

    def test_numpy_generator_field_allowed(self):
        src = (
            "from dataclasses import dataclass\n"
            "import numpy as np\n"
            "@dataclass(frozen=True)\n"
            "class SeededTask:\n"
            "    rng: np.random.Generator\n"
            "    def __call__(self, rng):\n"
            "        return 0.0\n"
        )
        assert lint_source(src, select=["FV006"]) == []

    def test_task_subclass_inherits_taskness(self):
        # Name does not end in Task, but the base does — still checked.
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class EstimatorTask:\n"
            "    n: int\n"
            "@dataclass\n"
            "class PointEstimator(EstimatorTask):\n"
            "    m: int\n"
        )
        findings = lint_source(src, select=["FV006"])
        assert len(findings) == 1
        assert "PointEstimator" in findings[0].message

    def test_default_factory_lambda_flags(self):
        src = (
            "from dataclasses import dataclass, field\n"
            "@dataclass(frozen=True)\n"
            "class FactoryTask:\n"
            "    items: tuple = field(default_factory=lambda: ())\n"
        )
        findings = lint_source(src, select=["FV006"])
        assert len(findings) == 1
        assert "lambda" in findings[0].message


class TestWorkerStateEdges:
    def test_local_shadow_is_not_a_global_touch(self):
        src = (
            "_CACHE: dict = {}\n"
            "class ShadowTask:\n"
            "    def __call__(self, rng):\n"
            "        _CACHE = {}\n"
            "        _CACHE['k'] = 1\n"
            "        return 0.0\n"
        )
        assert lint_source(src, select=["FV007"]) == []

    def test_unreachable_function_exempt(self):
        src = (
            "_CACHE: dict = {}\n"
            "def import_time_helper():\n"
            "    _CACHE['k'] = 1\n"
        )
        assert lint_source(src, select=["FV007"]) == []

    def test_immutable_global_exempt(self):
        src = (
            "_LEVELS = ('a', 'b')\n"
            "class ReadTask:\n"
            "    def __call__(self, rng):\n"
            "        return len(_LEVELS)\n"
        )
        assert lint_source(src, select=["FV007"]) == []


class TestNondeterminismEdges:
    def test_fv001_legacy_set_not_double_flagged(self):
        # np.random.randint is FV001's jurisdiction, not FV008's.
        src = "x = np.random.randint(10)\n"
        assert lint_source(src, select=["FV008"]) == []
        assert len(lint_source(src, select=["FV001"])) == 1

    def test_clock_not_in_return_is_allowed(self):
        src = (
            "import time\n"
            "class LoggingTask:\n"
            "    def __call__(self, rng):\n"
            "        t0 = time.perf_counter()\n"
            "        print(time.perf_counter() - t0)\n"
            "        return 1.0\n"
        )
        assert lint_source(src, select=["FV008"]) == []

    def test_from_import_clock_resolves(self):
        src = (
            "from time import perf_counter\n"
            "class AliasedTask:\n"
            "    def __call__(self, rng):\n"
            "        return perf_counter()\n"
        )
        findings = lint_source(src, select=["FV008"])
        assert len(findings) == 1

    def test_sorted_set_iteration_clean(self):
        src = (
            "class SortedTask:\n"
            "    def __call__(self, rng):\n"
            "        return [x for x in sorted({'b', 'a'})]\n"
        )
        assert lint_source(src, select=["FV008"]) == []


class TestArrayApiEdges:
    def test_cold_module_exempt(self):
        findings = lint_source(
            "counts = np.bincount(rows)\n",
            path="src/repro/analysis/tables.py",
            select=["FV009"],
        )
        assert findings == []

    def test_rename_is_allowed(self):
        findings = lint_source(
            "joined = np.concatenate([a, b])\n",
            path="src/repro/core/kernels.py",
            select=["FV009"],
        )
        assert findings == []

    def test_random_namespace_not_double_flagged(self):
        findings = lint_source(
            "rng = np.random.default_rng(seed)\n",
            path="src/repro/core/kernels.py",
            select=["FV009"],
        )
        assert findings == []


class TestLayeringCorpus:
    def test_cycle_package_flags_once_in_first_member(self):
        result = lint_paths([CORPUS / "fv010_cycle"], select=["FV010"])
        assert len(result.findings) == 1
        finding = result.findings[0]
        assert finding.path.endswith("alpha.py")
        assert "import cycle" in finding.message
        assert "fv010_cycle.beta" in finding.message

    def test_function_level_import_breaks_cycle(self):
        # Regression fixture for the old montecarlo -> batch cycle: the
        # reverse edge moved into a function body, so FV010 stays quiet.
        result = lint_paths([CORPUS / "fv010_fixed"], select=["FV010"])
        assert result.ok, "\n".join(f.render() for f in result.findings)

    def test_core_importing_simulation_is_a_layer_violation(self, tmp_path):
        root = tmp_path / "src" / "repro"
        (root / "core").mkdir(parents=True)
        (root / "simulation").mkdir()
        for pkg in (root, root / "core", root / "simulation"):
            (pkg / "__init__.py").write_text('"""Pkg."""\n')
        (root / "simulation" / "engine.py").write_text('"""Doc."""\n\n__all__ = []\n')
        (root / "core" / "batch.py").write_text(
            '"""Doc."""\n\n'
            "from repro.simulation import engine\n\n"
            "__all__ = []\n"
        )
        result = lint_paths([tmp_path / "src"], select=["FV010"])
        assert len(result.findings) == 1
        assert "layer violation" in result.findings[0].message
        assert result.findings[0].path.endswith("batch.py")
