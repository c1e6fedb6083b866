"""Two-tier result cache: LRU behavior, record-log round-trips, corruption."""

from __future__ import annotations

import json

import pytest

from repro.engine import CACHE_SCHEMA, ResultCache
from repro.engine.cache import LOG_NAME, QUARANTINE_DIR, result_checksum
from tests.engine.conftest import tear_record


KEY = "ab" + "0" * 62


class TestMemoryTier:
    def test_miss_then_hit(self):
        c = ResultCache(maxsize=4)
        assert c.get(KEY) is None
        c.put(KEY, {"x": 1.0})
        assert c.get(KEY) == {"x": 1.0}
        assert c.stats()["memory_hits"] == 1
        assert c.stats()["misses"] == 1

    def test_lru_evicts_oldest(self):
        c = ResultCache(maxsize=2)
        c.put("k1", {"v": 1.0})
        c.put("k2", {"v": 2.0})
        c.put("k3", {"v": 3.0})
        assert c.get("k1") is None  # evicted
        assert c.get("k2") == {"v": 2.0}
        assert c.get("k3") == {"v": 3.0}

    def test_get_refreshes_recency(self):
        c = ResultCache(maxsize=2)
        c.put("k1", {"v": 1.0})
        c.put("k2", {"v": 2.0})
        c.get("k1")  # k1 now most recent
        c.put("k3", {"v": 3.0})
        assert c.get("k2") is None  # k2 evicted instead of k1
        assert c.get("k1") == {"v": 1.0}

    def test_maxsize_validation(self):
        with pytest.raises(ValueError):
            ResultCache(maxsize=0)


class TestDiskTier:
    def test_round_trip_across_instances(self, tmp_path):
        a = ResultCache(cache_dir=tmp_path)
        a.put(KEY, {"duration": 2.5, "inf_field": float("inf")})
        b = ResultCache(cache_dir=tmp_path)  # fresh process, warm disk
        hit = b.get(KEY)
        assert hit == {"duration": 2.5, "inf_field": float("inf")}
        assert b.disk_hits == 1 and b.memory_hits == 0
        assert b.get(KEY) == hit  # promoted to memory
        assert b.memory_hits == 1

    def test_entry_records_provenance(self, tmp_path):
        c = ResultCache(cache_dir=tmp_path)
        c.put(KEY, {"v": 1.0}, request_doc={"model": "round"})
        (line,) = (tmp_path / LOG_NAME).read_text().splitlines()
        doc = json.loads(line)
        assert list(doc) == ["key", "schema", "checksum", "result", "request"]
        assert doc["key"] == KEY
        assert doc["result"] == {"v": 1.0}
        assert doc["request"] == {"model": "round"}

    def test_corrupt_file_is_a_miss(self, tmp_path):
        (tmp_path / LOG_NAME).write_text("{not json\n")
        c = ResultCache(cache_dir=tmp_path)
        assert c.get(KEY) is None
        # The next store appends a good record after the bad line.
        c.put(KEY, {"v": 2.0})
        assert ResultCache(cache_dir=tmp_path).get(KEY) == {"v": 2.0}

    def test_wrong_shape_is_a_miss(self, tmp_path):
        line = json.dumps({"key": KEY, "schema": CACHE_SCHEMA, "result": [1, 2, 3]})
        (tmp_path / LOG_NAME).write_text(line + "\n")
        c = ResultCache(cache_dir=tmp_path)
        assert c.get(KEY) is None
        assert c.quarantined == 1

    def test_no_disk_without_cache_dir(self, tmp_path):
        c = ResultCache()
        c.put(KEY, {"v": 1.0})
        assert list(tmp_path.iterdir()) == []

    def test_tail_appended_by_another_process_becomes_visible(self, tmp_path):
        reader = ResultCache(cache_dir=tmp_path)
        assert not reader.warm(KEY)
        ResultCache(cache_dir=tmp_path).put(KEY, {"v": 3.0})
        assert reader.warm(KEY)  # a miss re-reads the tail
        assert reader.get(KEY) == {"v": 3.0} and reader.disk_hits == 1


class TestIntegrity:
    """Checksums and quarantine: a failed record is never served."""

    def _store(self, tmp_path):
        c = ResultCache(cache_dir=tmp_path)
        c.put(KEY, {"duration": 2.5})
        c.close()
        return tmp_path / LOG_NAME

    def test_record_carries_schema_and_checksum(self, tmp_path):
        doc = json.loads(self._store(tmp_path).read_text())
        assert doc["schema"] == CACHE_SCHEMA
        assert doc["checksum"] == result_checksum({"duration": 2.5})

    def test_truncated_record_quarantined_not_served(self, tmp_path):
        self._store(tmp_path)
        torn = tear_record(tmp_path, KEY, "truncate")
        c = ResultCache(cache_dir=tmp_path)
        assert c.replayed == 1  # the line still names its key
        assert c.get(KEY) is None
        assert c.quarantined == 1
        assert not c.warm(KEY)  # out of the lookup path
        (kept,) = (tmp_path / QUARANTINE_DIR).iterdir()
        assert kept.name.startswith(KEY) and kept.read_text() + "\n" == torn

    def test_bit_rot_fails_the_checksum(self, tmp_path):
        self._store(tmp_path)
        tear_record(tmp_path, KEY, "rot")
        c = ResultCache(cache_dir=tmp_path)
        assert c.get(KEY) is None
        assert c.quarantined == 1

    def test_wrong_key_or_schema_quarantined(self, tmp_path):
        log = self._store(tmp_path)
        # A scribbled record whose body names another key: quarantined.
        doc = json.loads(log.read_text())
        scribbled = json.dumps(doc)[:-1] + ', "key": "' + "cd" * 32 + '"}'
        log.write_text(scribbled + "\n")
        c = ResultCache(cache_dir=tmp_path)
        assert c.get(KEY) is None
        assert c.stats()["quarantined"] == 1
        # Another schema's record is ignored: never served, never failed.
        doc["schema"] = CACHE_SCHEMA - 1
        log.write_text(json.dumps(doc) + "\n")
        c = ResultCache(cache_dir=tmp_path)
        assert c.replayed == 0 and c.get(KEY) is None
        assert c.stats()["quarantined"] == 0

    def test_quarantined_key_reevaluates_and_restores(self, tmp_path):
        self._store(tmp_path)
        tear_record(tmp_path, KEY, "truncate")
        c = ResultCache(cache_dir=tmp_path)
        assert c.get(KEY) is None
        c.put(KEY, {"duration": 2.5})  # the re-evaluation, appended
        again = ResultCache(cache_dir=tmp_path)
        assert again.get(KEY) == {"duration": 2.5}  # the later record wins
        assert again.quarantined == 0


class TestStats:
    def test_hit_rate(self, tmp_path):
        c = ResultCache(cache_dir=tmp_path)
        c.get("missing1")
        c.put(KEY, {"v": 1.0})
        c.get(KEY)
        s = c.stats()
        assert s["hit_rate"] == pytest.approx(0.5)
        assert s["memory_entries"] == 1
