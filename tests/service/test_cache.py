"""The content-addressed result cache: tiers, durability, corruption."""

from __future__ import annotations

import json

from repro.api.schemas import EstimateRequest
from repro.ioutil import verify_checksum
from repro.service.cache import CACHE_FORMAT, ResultCache, cache_key


def request(seed: int = 0) -> EstimateRequest:
    return EstimateRequest(
        kind="point", radius=0.25, angle_of_view=1.2, n=30, theta=1.0, seed=seed
    )


class TestCacheKey:
    def test_stable_for_equal_requests(self):
        assert cache_key(request(), "abc") == cache_key(request(), "abc")

    def test_changes_with_seed(self):
        assert cache_key(request(0), "abc") != cache_key(request(1), "abc")

    def test_changes_with_git_sha(self):
        assert cache_key(request(), "abc") != cache_key(request(), "def")

    def test_unversioned_tree_still_keys(self):
        assert len(cache_key(request(), None)) == 64


class TestMemoryTier:
    def test_miss_then_hit(self):
        cache = ResultCache()
        key = cache_key(request(), None)
        assert cache.get(key) == (None, None)
        assert cache.put(key, {"answer": 42}) == b'{"answer": 42}'
        # Memory holds the encoding the service splices into answers.
        assert cache.get(key) == (b'{"answer": 42}', "memory")
        assert len(cache) == 1

    def test_memory_only_without_directory(self):
        cache = ResultCache()
        assert cache.directory is None


class TestDiskTier:
    def test_round_trip_across_instances(self, tmp_path):
        key = cache_key(request(), "sha")
        ResultCache(tmp_path).put(key, {"answer": 42})
        fresh = ResultCache(tmp_path)
        assert fresh.get(key) == (b'{"answer": 42}', "disk")
        # Promotion: the second read is a memory hit.
        assert fresh.get(key) == (b'{"answer": 42}', "memory")

    def test_entries_are_fanned_out_and_stamped(self, tmp_path):
        key = cache_key(request(), "sha")
        ResultCache(tmp_path).put(key, 7)
        path = tmp_path / key[:2] / f"{key}.json"
        envelope = json.loads(path.read_text())
        assert envelope["format"] == CACHE_FORMAT
        assert envelope["key"] == key
        assert "sha256" in envelope

    def test_disk_holds_the_result_object(self, tmp_path):
        key = cache_key(request(), "sha")
        ResultCache(tmp_path).put(key, {"answer": 42})
        path = tmp_path / key[:2] / f"{key}.json"
        envelope = json.loads(path.read_text())
        assert envelope["result"] == {"answer": 42}
        assert verify_checksum(envelope)

    def test_corrupt_json_is_a_miss(self, tmp_path):
        key = cache_key(request(), "sha")
        ResultCache(tmp_path).put(key, 7)
        path = tmp_path / key[:2] / f"{key}.json"
        path.write_text("{ torn")
        assert ResultCache(tmp_path).get(key) == (None, None)

    def test_tampered_checksum_is_a_miss(self, tmp_path):
        key = cache_key(request(), "sha")
        ResultCache(tmp_path).put(key, 7)
        path = tmp_path / key[:2] / f"{key}.json"
        envelope = json.loads(path.read_text())
        envelope["result"] = 8
        path.write_text(json.dumps(envelope))
        assert ResultCache(tmp_path).get(key) == (None, None)

    def test_wrong_key_in_envelope_is_a_miss(self, tmp_path):
        key_a = cache_key(request(0), "sha")
        key_b = cache_key(request(1), "sha")
        cache = ResultCache(tmp_path)
        cache.put(key_a, 7)
        source = tmp_path / key_a[:2] / f"{key_a}.json"
        target = tmp_path / key_b[:2] / f"{key_b}.json"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source.read_text())
        assert ResultCache(tmp_path).get(key_b) == (None, None)
