"""Tests for the content-addressed service result cache."""

import json

import numpy as np
import pytest

from repro.service import cache as cache_module
from repro.service.cache import ResultCache
from repro.service.codec import payload_text, to_payload


def _payload(n: int) -> str:
    return json.dumps({"type": "tracegen", "value": n}, sort_keys=True)


class TestMemoryLayer:
    def test_miss_then_hit(self):
        cache = ResultCache()
        payload, layer = cache.get("k1")
        assert payload is None and layer == "miss"
        cache.put("k1", _payload(1))
        payload, layer = cache.get("k1")
        assert payload == _payload(1) and layer == "memory"
        assert cache.stats.misses == 1
        assert cache.stats.memory_hits == 1
        assert cache.stats.stores == 1

    def test_no_directory_means_no_files(self, tmp_path):
        cache = ResultCache()
        cache.put("k1", _payload(1))
        assert not list(tmp_path.iterdir())


class TestDiskLayer:
    def test_survives_a_new_instance(self, tmp_path):
        first = ResultCache(str(tmp_path))
        first.put("deadbeef", _payload(7))
        assert (tmp_path / "deadbeef.json").is_file()

        second = ResultCache(str(tmp_path))
        payload, layer = second.get("deadbeef")
        assert payload == _payload(7)
        assert layer == "disk"
        # Promoted to memory: the next hit is a memory hit.
        _, layer = second.get("deadbeef")
        assert layer == "memory"

    def test_corrupt_entry_is_a_miss_and_purged(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        path = tmp_path / "cafe.json"
        path.write_text("{ not json")
        payload, layer = cache.get("cafe")
        assert payload is None and layer == "miss"
        assert cache.stats.corrupt_entries == 1
        assert not path.exists(), "corrupt entries are deleted"

    def test_key_mismatch_is_treated_as_corrupt(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("aaaa", _payload(1))
        (tmp_path / "bbbb.json").write_text(
            (tmp_path / "aaaa.json").read_text()
        )
        fresh = ResultCache(str(tmp_path))
        payload, layer = fresh.get("bbbb")
        assert payload is None and layer == "miss"
        assert fresh.stats.corrupt_entries == 1

    def test_entry_bytes_keep_the_format(self, tmp_path):
        payload = {"type": "tracegen", "value": 7}
        cache = ResultCache(str(tmp_path))
        cache.put("beef", json.dumps(payload, sort_keys=True))
        assert (tmp_path / "beef.json").read_bytes() == json.dumps(
            {"key": "beef", "payload": payload, "version": 1},
            sort_keys=True,
        ).encode("utf-8")

    def test_non_object_payload_is_corrupt(self, tmp_path):
        (tmp_path / "list.json").write_text(
            json.dumps(
                {"key": "list", "payload": [1], "version": 1},
                sort_keys=True,
            )
        )
        assert ResultCache(str(tmp_path)).get("list") == (None, "miss")

    def test_version_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        (tmp_path / "old.json").write_text(
            json.dumps(
                {"version": 999, "key": "old", "payload": _payload(1)}
            )
        )
        payload, layer = cache.get("old")
        assert payload is None and layer == "miss"

    def test_stats_as_dict(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("k", _payload(1))
        cache.get("k")
        cache.get("missing")
        stats = cache.stats.as_dict()
        assert stats["stores"] == 1
        assert stats["memory_hits"] == 1
        assert stats["misses"] == 1
        assert cache.stats.hits == 1


class TestDiskCap:
    def _entry_bytes(self, tmp_path) -> int:
        probe = ResultCache(str(tmp_path / "probe"))
        probe.put("p1", _payload(1))
        return probe.disk_bytes

    def test_cap_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(str(tmp_path), max_disk_bytes=0)

    def test_lru_eviction_under_cap(self, tmp_path):
        entry = self._entry_bytes(tmp_path)
        cache = ResultCache(str(tmp_path), max_disk_bytes=2 * entry)
        cache.put("k1", _payload(1))
        cache.put("k2", _payload(2))
        assert cache.stats.evictions == 0
        cache.put("k3", _payload(3))
        assert cache.stats.evictions == 1
        assert cache.stats.evicted_bytes == entry
        assert not (tmp_path / "k1.json").exists(), "oldest entry goes"
        assert (tmp_path / "k2.json").exists()
        assert (tmp_path / "k3.json").exists()
        assert cache.disk_bytes <= 2 * entry

    def test_get_refreshes_recency(self, tmp_path):
        entry = self._entry_bytes(tmp_path)
        cache = ResultCache(str(tmp_path), max_disk_bytes=2 * entry)
        cache.put("k1", _payload(1))
        cache.put("k2", _payload(2))
        cache.get("k1")  # k1 is now the most recently used
        cache.put("k3", _payload(3))
        assert (tmp_path / "k1.json").exists()
        assert not (tmp_path / "k2.json").exists()

    def test_eviction_sheds_the_memory_layer_too(self, tmp_path):
        entry = self._entry_bytes(tmp_path)
        cache = ResultCache(str(tmp_path), max_disk_bytes=entry)
        cache.put("k1", _payload(1))
        cache.put("k2", _payload(2))
        payload, layer = cache.get("k1")
        assert payload is None and layer == "miss"

    def test_fresh_oversize_entry_is_exempt(self, tmp_path):
        cache = ResultCache(str(tmp_path), max_disk_bytes=1)
        cache.put("big", _payload(1))
        assert (tmp_path / "big.json").exists()
        assert cache.stats.evictions == 0
        # ... but it is the first victim once anything else lands.
        cache.put("next", _payload(2))
        assert not (tmp_path / "big.json").exists()

    def test_restart_rebuilds_the_index_from_mtimes(self, tmp_path):
        first = ResultCache(str(tmp_path))
        first.put("k1", _payload(1))
        first.put("k2", _payload(2))
        entry = first.disk_bytes // 2

        second = ResultCache(str(tmp_path), max_disk_bytes=2 * entry)
        assert second.disk_bytes == first.disk_bytes
        second.put("k3", _payload(3))
        assert second.stats.evictions >= 1
        assert second.disk_bytes <= 2 * entry
        assert (tmp_path / "k3.json").exists()

    def test_clear_memory_leaves_disk(self, tmp_path):
        cache = ResultCache(str(tmp_path), max_disk_bytes=10_000)
        cache.put("k1", _payload(1))
        cache.clear_memory()
        payload, layer = cache.get("k1")
        assert payload == _payload(1) and layer == "disk"


def _blob(n: int) -> str:
    """A result text of ``n`` plus 32 bytes."""
    return json.dumps({"type": "tracegen", "blob": "x" * n}, sort_keys=True)


BLOB = len(_blob(100))


class TestMemoryBudget:
    """The memory layer is an LRU bounded by result text bytes."""

    @pytest.fixture(autouse=True)
    def _budget(self, monkeypatch):
        monkeypatch.setattr(cache_module, "MEMORY_BUDGET_BYTES", 300)

    def test_entry_size_is_its_encoded_bytes(self):
        result = {
            "voltages": np.zeros((3, 5)),
            "ciphertexts": np.zeros((3, 16), dtype=np.uint8),
        }
        text = payload_text("tracegen", result)
        assert text == json.dumps(
            to_payload("tracegen", result), sort_keys=True
        )
        cache = ResultCache()
        cache.put("k", text)
        assert cache.memory_bytes == len(text)
        assert BLOB == 132

    def test_least_recently_used_goes_first(self):
        cache = ResultCache()
        for key in ("a", "b", "c"):
            cache.put(key, _blob(100))
        assert len(cache) == 2 and cache.memory_bytes == 2 * BLOB
        assert cache.get("a") == (None, "miss")
        assert cache.get("b")[1] == "memory"
        assert cache.get("c")[1] == "memory"

    def test_get_refreshes_recency(self):
        cache = ResultCache()
        cache.put("a", _blob(100))
        cache.put("b", _blob(100))
        cache.get("a")
        cache.put("c", _blob(100))
        assert cache.peek("a") is not None
        assert cache.peek("b") is None

    def test_oversize_newest_entry_survives_alone(self):
        cache = ResultCache()
        cache.put("a", _blob(100))
        cache.put("big", _blob(1000))
        assert len(cache) == 1 and cache.memory_bytes == len(_blob(1000))
        assert cache.get("big")[1] == "memory"
        cache.put("small", _blob(100))
        assert cache.peek("big") is None
        assert len(cache) == 1 and cache.memory_bytes == BLOB

    def test_oversize_disk_load_survives_alone(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("big", _blob(1000))
        cache.put("a", _blob(100))
        assert cache.get("big")[1] == "disk"
        assert len(cache) == 1 and cache.memory_bytes == len(_blob(1000))

    def test_disk_eviction_drops_the_memory_copy(self, tmp_path):
        probe = ResultCache(str(tmp_path / "probe"))
        probe.put("p", _blob(10))
        cache = ResultCache(
            str(tmp_path / "c"), max_disk_bytes=probe.disk_bytes
        )
        cache.put("a", _blob(10))
        cache.put("b", _blob(10))
        assert len(cache) == 1 and cache.memory_bytes == len(_blob(10))
        assert cache.peek("a") is None

    def test_clear_memory_resets_the_byte_count(self):
        cache = ResultCache()
        cache.put("a", _blob(100))
        cache.clear_memory()
        assert len(cache) == 0 and cache.memory_bytes == 0
        cache.put("b", _blob(100))
        assert cache.memory_bytes == BLOB

    def test_peek_counts_nothing_and_promotes_nothing(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("a", _blob(100))
        cache.put("b", _blob(100))
        cache.clear_memory()
        cache.put("c", _blob(100))
        assert cache.peek("a") == _blob(100)  # from disk, not promoted
        assert cache.peek("c") == _blob(100)
        assert cache.peek("missing") is None
        assert len(cache) == 1
        assert cache.stats.hits == 0 and cache.stats.misses == 0
        cache.put("d", _blob(100))
        cache.peek("c")  # no recency refresh: c is still the oldest
        cache.put("e", _blob(100))
        assert cache.get("c")[1] == "disk"
