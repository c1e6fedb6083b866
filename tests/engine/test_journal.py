"""The record log as the sweep's journal: durable replay, torn-tail
tolerance, schema filtering, directory-entry durability, and
multi-writer append safety.

A cache dir's ``results.jsonl`` is both the disk tier and the completion
journal ``--resume`` replays: the keys it holds are the keys that
completed.
"""

from __future__ import annotations

import json
import multiprocessing
import subprocess
import sys

from repro.engine import ResultCache
from repro.engine import cache as cache_mod
from repro.engine.cache import LOG_NAME
from repro.engine.keys import CACHE_SCHEMA


K1 = "a" * 64
K2 = "b" * 64
K3 = "c" * 64


def _result(key: str) -> dict:
    return {"value": float(int(key[:8], 16) % 1000), "inf": float("inf")}


def _lines(cache_dir) -> list[str]:
    return (cache_dir / LOG_NAME).read_text().splitlines()


class TestRoundTrip:
    def test_record_then_replay(self, tmp_path):
        c = ResultCache(cache_dir=tmp_path)
        assert c.replayed == 0 and len(c) == 0
        c.put(K1, _result(K1))
        c.put(K2, _result(K2))
        c.close()
        c2 = ResultCache(cache_dir=tmp_path)
        assert c2.replayed == 2
        assert c2.warm(K1) and c2.warm(K2) and not c2.warm(K3)
        assert c2.get(K1) == _result(K1) and c2.disk_hits == 1

    def test_record_is_idempotent(self, tmp_path):
        c = ResultCache(cache_dir=tmp_path)
        c.put(K1, _result(K1))
        c.put(K1, _result(K1))
        c.close()
        assert len(_lines(tmp_path)) == 1
        assert ResultCache(cache_dir=tmp_path).replayed == 1

    def test_request_doc_built_only_for_appended_records(self, tmp_path):
        built = []

        def doc(key):
            return lambda: built.append(key) or {"key": key}

        ResultCache().put_many([(K1, _result(K1), doc(K1))])  # no log
        c = ResultCache(cache_dir=tmp_path)
        c.put_many([(K1, _result(K1), doc(K1)), (K2, _result(K2), doc(K2))])
        c.put_many([(K1, _result(K1), doc(K1))])  # already logged
        c.close()
        assert built == [K1, K2]
        assert [json.loads(line)["request"] for line in _lines(tmp_path)] == [
            {"key": K1},
            {"key": K2},
        ]

    def test_resume_appends_not_rewrites(self, tmp_path):
        c = ResultCache(cache_dir=tmp_path)
        c.put(K1, _result(K1))
        c.close()
        first = _lines(tmp_path)
        c2 = ResultCache(cache_dir=tmp_path)
        c2.put(K2, _result(K2))
        c2.put(K1, _result(K1))  # already logged: no duplicate line
        c2.close()
        assert _lines(tmp_path)[:1] == first and len(_lines(tmp_path)) == 2
        assert ResultCache(cache_dir=tmp_path).replayed == 2

    def test_missing_file_is_empty(self, tmp_path):
        c = ResultCache(cache_dir=tmp_path / "nope")
        assert c.replayed == 0 and c.torn_lines == 0
        assert c.get(K1) is None and not c.warm(K1)
        assert not (tmp_path / "nope").exists()  # lookups create nothing


class TestCorruption:
    def test_torn_tail_tolerated(self, tmp_path):
        c = ResultCache(cache_dir=tmp_path)
        c.put(K1, _result(K1))
        c.put(K2, _result(K2))
        c.close()
        # A writer killed mid-append leaves an unterminated final line.
        with open(tmp_path / LOG_NAME, "a") as fh:
            fh.write('{"key": "dddddd')
        c2 = ResultCache(cache_dir=tmp_path)
        assert c2.replayed == 2 and c2.torn_lines == 0  # the tail is not read
        # The next record lands on a fresh line and round-trips.
        c2.put(K3, _result(K3))
        c2.close()
        lines = _lines(tmp_path)
        assert lines[2] == '{"key": "dddddd'
        assert json.loads(lines[3])["key"] == K3
        c3 = ResultCache(cache_dir=tmp_path)
        assert c3.replayed == 3 and c3.torn_lines == 1
        assert c3.get(K3) == _result(K3)

    def test_other_schema_lines_skipped(self, tmp_path):
        c = ResultCache(cache_dir=tmp_path)
        c.put(K1, _result(K1))
        c.close()
        foreign = json.dumps(
            {"key": K2, "schema": CACHE_SCHEMA - 1, "checksum": "", "result": {}}
        )
        keyless = json.dumps({"schema": CACHE_SCHEMA})
        with open(tmp_path / LOG_NAME, "a") as fh:
            fh.write(foreign + "\n" + keyless + "\n")
        c2 = ResultCache(cache_dir=tmp_path)
        assert c2.replayed == 1 and not c2.warm(K2)
        assert c2.get(K2) is None and c2.quarantined == 0  # ignored, not failed
        assert c2.torn_lines == 1  # only the key-less line


class TestDirectoryDurability:
    def test_fresh_journal_fsyncs_parent_directory(self, tmp_path, monkeypatch):
        synced: list[str] = []
        real = cache_mod.fsync_dir
        monkeypatch.setattr(
            cache_mod,
            "fsync_dir",
            lambda path: synced.append(str(path)) or real(path),
        )
        c = ResultCache(cache_dir=tmp_path)
        assert synced == []  # construction alone creates nothing
        c.put(K1, _result(K1))
        assert synced == [str(tmp_path)]
        c.put(K2, _result(K2))  # log already open: no second directory fsync
        c.close()
        assert synced == [str(tmp_path)]

    def test_existing_journal_skips_directory_fsync(self, tmp_path, monkeypatch):
        c = ResultCache(cache_dir=tmp_path)
        c.put(K1, _result(K1))
        c.close()
        synced: list[str] = []
        monkeypatch.setattr(cache_mod, "fsync_dir", lambda p: synced.append(str(p)))
        c2 = ResultCache(cache_dir=tmp_path)
        c2.put(K2, _result(K2))
        c2.close()
        assert synced == []  # the directory entry already exists

    def test_fsync_dir_succeeds_on_real_directory(self, tmp_path):
        assert cache_mod.fsync_dir(tmp_path) is True
        assert cache_mod.fsync_dir(tmp_path / "missing") is False

    def test_crash_replay_after_first_record(self, tmp_path):
        """A writer SIGKILLed right after its first put leaves a
        replayable log: the file exists and holds the verified record."""
        cache_dir = tmp_path / "cache"
        script = (
            "import os, signal\n"
            "from repro.engine import ResultCache\n"
            f"c = ResultCache(cache_dir={str(cache_dir)!r})\n"
            f"c.put({K1!r}, {{'value': 1.5}})\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script])
        assert proc.returncode == -9  # killed, never exited cleanly
        replayed = ResultCache(cache_dir=cache_dir)
        assert replayed.replayed == 1 and replayed.torn_lines == 0
        assert replayed.get(K1) == {"value": 1.5}

    def test_killed_writer_torn_tail_then_fresh_line(self, tmp_path):
        """A writer SIGKILLed halfway through an append leaves a torn
        tail: it is never served, and the next record starts a new line."""
        script = (
            "import os, signal\n"
            "from repro.engine import ResultCache\n"
            f"c = ResultCache(cache_dir={str(tmp_path)!r})\n"
            f"c.put({K1!r}, {{'value': 1.0}})\n"
            "real = os.write\n"
            "def torn(fd, data):\n"
            "    real(fd, bytes(data)[: len(data) // 2])\n"
            "    os.kill(os.getpid(), signal.SIGKILL)\n"
            "os.write = torn\n"
            f"c.put({K2!r}, {{'value': 2.0}})\n"
        )
        proc = subprocess.run([sys.executable, "-c", script])
        assert proc.returncode == -9
        assert not (tmp_path / LOG_NAME).read_text().endswith("\n")
        c = ResultCache(cache_dir=tmp_path)
        assert c.replayed == 1 and not c.warm(K2)
        c.put(K3, {"value": 3.0})
        c.close()
        lines = _lines(tmp_path)
        assert len(lines) == 3 and json.loads(lines[2])["key"] == K3
        # The torn record now ends a line of its own: its key reads, the
        # record does not, so it is quarantined and K2 re-evaluated.
        c2 = ResultCache(cache_dir=tmp_path)
        assert c2.get(K2) is None and c2.quarantined == 1
        assert c2.get(K1) == {"value": 1.0} and c2.get(K3) == {"value": 3.0}


def _log_writer(cache_dir, keys) -> None:
    c = ResultCache(cache_dir=cache_dir)
    for key in keys:
        c.put(key, _result(key), request_doc={"pid": "x" * 2048})
    c.close()


class TestConcurrentWriters:
    def test_duplicate_lines_from_two_journals_tolerated(self, tmp_path):
        """Two engine processes sharing a cache dir dedupe appends only
        against the records they have indexed; replay must absorb the
        resulting duplicate lines."""
        a = ResultCache(cache_dir=tmp_path)
        b = ResultCache(cache_dir=tmp_path)  # opened before a's appends
        a.put(K1, _result(K1))
        b.put(K1, _result(K1))  # duplicate line for K1, legitimately
        a.put(K2, _result(K2))
        b.put(K3, _result(K3))
        a.close()
        b.close()
        assert len(_lines(tmp_path)) == 4  # the duplicate is really on disk
        replayed = ResultCache(cache_dir=tmp_path)
        assert replayed.replayed == 3 and replayed.torn_lines == 0
        assert all(replayed.get(k) == _result(k) for k in (K1, K2, K3))

    def test_parallel_processes_never_interleave_lines(self, tmp_path):
        """Concurrent appends from real processes (flock + single-write
        appends) produce only whole, verified lines."""
        shared = [f"{i:064x}" for i in range(8)]  # every process writes these
        ctx = multiprocessing.get_context("fork")
        procs = []
        for p in range(4):
            own = [f"{p:02d}{i:062x}" for i in range(32)]
            procs.append(ctx.Process(target=_log_writer, args=(tmp_path, shared + own)))
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        for line in _lines(tmp_path):
            doc = json.loads(line)  # no torn or interleaved lines
            assert doc["schema"] == CACHE_SCHEMA
        expected = set(shared)
        for p in range(4):
            expected |= {f"{p:02d}{i:062x}" for i in range(32)}
        replayed = ResultCache(cache_dir=tmp_path)
        assert replayed.torn_lines == 0 and replayed.replayed == len(expected)
        assert all(replayed.get(k) == _result(k) for k in expected)
        assert replayed.quarantined == 0
