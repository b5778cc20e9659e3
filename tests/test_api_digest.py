"""Digest stability: one canonical hash across spellings and processes.

The satellite contract: identical configurations built via
``repro.api``, via raw dataclasses, or recovered from a JSON round
trip must produce byte-identical digests — across key orderings and
across processes (no ``PYTHONHASHSEED`` leakage).
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import canonical_payload, config_digest
from repro.api.schemas import EstimateRequest
from repro.ioutil import config_digest as ioutil_config_digest
from repro.simulation.engine import MonteCarloConfig

SRC = Path(__file__).resolve().parent.parent / "src"

# JSON-representable payloads: finite floats only (NaN breaks JSON
# round-trips by design), string keys, modest depth.
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=12),
)
_payloads = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=8), inner, max_size=4),
    ),
    max_leaves=12,
)


class TestOneImplementation:
    def test_api_and_ioutil_are_the_same_function(self):
        assert config_digest is ioutil_config_digest

    def test_digest_is_sha256_hex(self):
        digest = config_digest({"n": 500, "seed": 7})
        assert len(digest) == 64
        assert set(digest) <= set("0123456789abcdef")


class TestSpellings:
    def test_key_order_never_matters(self):
        assert config_digest({"n": 500, "seed": 7}) == config_digest(
            {"seed": 7, "n": 500}
        )

    def test_dataclass_and_raw_dict_agree(self):
        config = MonteCarloConfig(trials=64, seed=9)
        as_dict = {
            "trials": 64,
            "seed": 9,
            "use_index": config.use_index,
            "workers": None,
        }
        assert config_digest(config) == config_digest(as_dict)

    def test_local_dataclass_and_dict_agree(self):
        @dataclass(frozen=True)
        class Config:
            n: int
            seed: int

        assert config_digest(Config(n=500, seed=7)) == config_digest(
            {"n": 500, "seed": 7}
        )

    def test_tuple_and_list_agree(self):
        assert config_digest({"point": (0.5, 0.5)}) == config_digest(
            {"point": [0.5, 0.5]}
        )

    def test_numpy_scalars_agree_with_python(self):
        assert config_digest(
            {"radius": np.float64(0.25), "n": np.int64(30)}
        ) == config_digest({"radius": 0.25, "n": 30})

    def test_numpy_array_agrees_with_list(self):
        assert config_digest({"point": np.array([0.5, 0.25])}) == config_digest(
            {"point": [0.5, 0.25]}
        )

    def test_wire_request_defaults_vs_explicit(self):
        implicit = EstimateRequest(
            kind="point", radius=0.25, angle_of_view=1.2, n=30, theta=1.0
        )
        explicit = EstimateRequest.from_wire(implicit.to_wire())
        assert config_digest(implicit.canonical()) == config_digest(
            explicit.canonical()
        )


class TestHypothesisSweep:
    @settings(max_examples=200, deadline=None)
    @given(payload=_payloads)
    def test_json_round_trip_preserves_digest(self, payload):
        canonical = canonical_payload(payload)
        round_tripped = json.loads(json.dumps(canonical))
        assert config_digest(round_tripped) == config_digest(payload)

    @settings(max_examples=200, deadline=None)
    @given(entries=st.dictionaries(st.text(max_size=8), _scalars, max_size=6))
    def test_insertion_order_never_matters(self, entries):
        reversed_order = dict(reversed(list(entries.items())))
        assert config_digest(entries) == config_digest(reversed_order)

    @settings(max_examples=100, deadline=None)
    @given(payload=_payloads)
    def test_canonicalization_is_idempotent(self, payload):
        once = canonical_payload(payload)
        assert canonical_payload(once) == once


class TestCrossProcess:
    def test_digest_is_identical_in_a_fresh_interpreter(self):
        config = {"experiment": "EQ2-MC", "trials": 800, "seed": 42, "nested": {"k": 1}}
        script = (
            "import json, sys\n"
            "from repro.api import config_digest\n"
            "print(config_digest(json.loads(sys.argv[1])))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(config)],
            capture_output=True,
            text=True,
            timeout=120,
            env={"PYTHONPATH": str(SRC), "PYTHONHASHSEED": "12345"},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == config_digest(config)

    def test_ledger_checkpoint_and_cache_share_the_digest(self):
        """The three consumers all call the one ioutil implementation."""
        from repro.obs import __init__ as _  # noqa: F401 - import check only
        import repro.obs as obs_module
        import repro.service.cache as cache_module
        import repro.simulation.runner as runner_module

        for module in (obs_module, cache_module, runner_module):
            assert getattr(module, "config_digest") is ioutil_config_digest


def test_requires_hypothesis_marker_absent():
    """The sweep runs in tier 1: hypothesis is a baked-in test dep."""
    assert "hypothesis" in sys.modules
