"""Two-tier result cache: in-process LRU over one append-only record log.

The in-process tier is a plain ``OrderedDict`` LRU bounded by entry
count.  The disk tier, enabled by ``cache_dir``, is one log per
directory, ``<cache_dir>/results.jsonl``: one record per line,
``{key, schema, checksum, result, request}``, the canonical request kept
next to the result as provenance.  Records are appended and synced the
moment their results settle, so the log's keys are also the crash-safe
completion journal ``repro-mrd sweep --resume`` replays.

Opening streams the log into an index of key -> (offset, length), never
results; the latest record for a key wins, and a miss re-reads the tail
so other processes' appends become visible.  Records that settle
together are appended as one ``O_APPEND`` write under ``flock`` and
synced before :meth:`ResultCache.put_many` returns.  A failed append or
sync logs one warning and leaves the results in memory.

Records are **verified, never trusted**: a read checks key, schema,
shape and the result's SHA-256 checksum.  A record that fails (a torn
write, bit rot, a scribble) is counted in ``quarantined``, its bytes are
kept under ``quarantine/``, and its key leaves the index to be
re-evaluated.  Lines of another schema are ignored; a line without a
readable key (a SIGKILLed writer's unfinished tail) is skipped, and the
next append starts on a fresh line.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.engine import chaos
from repro.engine.keys import CACHE_SCHEMA

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX: appends stay atomic
    fcntl = None  # type: ignore[assignment]

#: File name of a cache directory's record log.
LOG_NAME = "results.jsonl"

#: Subdirectory of the cache dir where the bytes of failed records are kept.
QUARANTINE_DIR = "quarantine"

#: Every record line opens with its key, then its schema (``json.dumps``
#: keeps the record document's insertion order), so the index is built
#: without parsing the records.
_HEAD = b'{"key": "'
_SCHEMA_AT = b'", "schema": '
_CURRENT = _SCHEMA_AT + str(CACHE_SCHEMA).encode() + b","

#: Bytes read per ``pread`` while streaming the log.
_CHUNK = 1 << 16

#: A record's request provenance: the canonical document, a callable
#: building it, or None.
RequestDoc = dict | Callable[[], dict] | None


def result_checksum(result: dict) -> str:
    """Canonical SHA-256 of a result payload (the record's checksum field)."""
    blob = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _datasync(fd: int) -> None:
    """``fdatasync`` where the platform has it: a record's bytes and the
    file size must reach the disk, not its timestamps."""
    getattr(os, "fdatasync", os.fsync)(fd)


def fsync_dir(path: str | os.PathLike) -> bool:
    """Best-effort fsync of a directory, making its entries durable.

    Returns True when the fsync was issued.  Failures are swallowed:
    some filesystems reject opening or syncing directories, and a log
    there degrades to the durability of its synced data, never an error.
    """
    try:
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    except OSError:
        return False
    try:
        os.fsync(fd)
        return True
    except OSError:
        return False
    finally:
        os.close(fd)


def _flock(fd: int, lock: bool) -> None:
    """Take or drop an advisory exclusive lock on the open log."""
    if fcntl is not None:
        fcntl.flock(fd, fcntl.LOCK_EX if lock else fcntl.LOCK_UN)


class ResultCache:
    """Memoization store for evaluated requests."""

    def __init__(self, maxsize: int = 4096, cache_dir: str | os.PathLike | None = None):
        if maxsize < 1:
            raise ValueError("cache maxsize must be >= 1")
        self.maxsize = maxsize
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.log_path = self.cache_dir / LOG_NAME if self.cache_dir else None
        self._lru: OrderedDict[str, dict] = OrderedDict()
        self._index: dict[str, tuple[int, int]] = {}  # key -> (offset, length)
        self._fd: int | None = None  # the log; read-only until the first append
        self._writable = False
        self._scanned = 0  # log bytes indexed so far, always at a line start
        self._warned = False
        # The advisor service evaluates on its executor thread while
        # ``close()`` may run on another: the fd, index and scan offset
        # change together.
        self._log_lock = threading.RLock()
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.quarantined = 0
        self.torn_lines = 0  # lines skipped for want of a readable key
        self._scan_tail()
        #: Distinct keys the log held when the cache was opened.
        self.replayed = len(self._index)

    def __len__(self) -> int:
        return len(self._lru)

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    # -- lookup ------------------------------------------------------------

    def get(self, key: str) -> dict | None:
        """Cached result for ``key`` (memory first, then the log), or None."""
        hit = self._lru.get(key)
        if hit is not None:
            self._lru.move_to_end(key)
            self.memory_hits += 1
            return hit
        entry = self._read_log(key)
        if entry is not None:
            self._store_memory(key, entry)
            self.disk_hits += 1
            return entry
        self.misses += 1
        return None

    def warm(self, key: str) -> bool:
        """Whether ``key`` is already satisfiable without evaluation.

        True when the key sits in the in-memory LRU or has a record in
        the log (re-reading its tail first).  A peek, not a lookup:
        hit/miss statistics are untouched, LRU recency is not bumped,
        and the record is not read or verified (a corrupt record
        surfaces through :meth:`get`'s quarantine path as usual).
        """
        if key in self._lru or key in self._index:
            return True
        with self._log_lock:
            self._scan_tail()
            return key in self._index

    # -- store -------------------------------------------------------------

    def put(self, key: str, result: dict, request_doc: RequestDoc = None) -> None:
        """Store one result; see :meth:`put_many`."""
        self.put_many([(key, result, request_doc)])

    def put_many(self, records: Iterable[tuple[str, dict, RequestDoc]]) -> None:
        """Store ``(key, result, request_doc)`` records in both tiers.

        With a ``cache_dir`` the records of keys the log does not hold
        yet are appended as one write and synced before this returns.
        ``request_doc`` (the canonical request, or a callable building
        it, called only for a record the log appends) is written next to
        the result for provenance; it is not kept in memory.
        """
        records = list(records)
        for key, result, _ in records:
            self._store_memory(key, result)
        if self.cache_dir is None:
            return
        lines = []
        for key, result, request_doc in records:
            if key in self._index:
                continue  # already logged (and read before, if it was bad)
            doc = {
                "key": key,
                "schema": CACHE_SCHEMA,
                "checksum": result_checksum(result),
                "result": result,
            }
            if callable(request_doc):
                request_doc = request_doc()
            if request_doc is not None:
                doc["request"] = request_doc
            line = chaos.maybe_corrupt_payload(key, json.dumps(doc)) + "\n"
            lines.append(line.encode())
        if not lines:
            return
        try:
            with self._log_lock:
                self._append(b"".join(lines))
        except OSError as err:
            if not self._warned:
                import logging  # only a failing disk needs it

                self._warned = True
                logging.getLogger(__name__).warning(
                    "result log %s not written (%s); results stay in memory "
                    "and will be re-evaluated by the next run",
                    self.log_path,
                    err,
                )

    def _store_memory(self, key: str, result: dict) -> None:
        self._lru[key] = result
        self._lru.move_to_end(key)
        while len(self._lru) > self.maxsize:
            self._lru.popitem(last=False)

    # -- the log -----------------------------------------------------------

    def _append(self, data: bytes) -> None:
        """Append whole lines under the file lock and sync them."""
        if not self._writable:
            self._open_for_append()
        fd = self._fd
        assert fd is not None
        _flock(fd, True)
        try:
            size = os.fstat(fd).st_size
            if size and os.pread(fd, 1, size - 1) != b"\n":
                # Writers append under the lock, so an unterminated last
                # line is one a killed writer never finished: end it.
                data = b"\n" + data
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view) :]
            _datasync(fd)
        finally:
            _flock(fd, False)
        if size == self._scanned:  # nothing unseen before it: index it now
            self._index_lines(data, len(data), size)
            self._scanned = size + len(data)

    def _open_for_append(self) -> None:
        assert self.cache_dir is not None and self.log_path is not None
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        created = not self.log_path.exists()
        fd = os.open(self.log_path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
        if created:
            # Synced records are durable only once the log's directory
            # entry is too.
            fsync_dir(self.cache_dir)
        self.close()
        self._fd, self._writable = fd, True

    def _scan_tail(self) -> None:
        """Index the whole lines appended since the last scan.

        A partial last line stays unread: it is either still being
        written or the torn tail of a killed writer, and either way the
        next scan after the next append picks it up.
        """
        if self.cache_dir is None:
            return
        if self._fd is None:
            try:
                self._fd = os.open(self.log_path, os.O_RDONLY)
            except OSError:
                return  # no log yet
        offset, pending = self._scanned, b""
        size = os.fstat(self._fd).st_size
        while offset + len(pending) < size:
            at = offset + len(pending)
            chunk = os.pread(self._fd, min(_CHUNK, size - at), at)
            if not chunk:
                break
            pending += chunk
            end = pending.rfind(b"\n") + 1
            if end:
                self._index_lines(pending, end, offset)
                offset += end
                pending = pending[end:]
        self._scanned = offset

    def _index_lines(self, block: bytes, end: int, base: int) -> None:
        """Index the lines of ``block[:end]`` (``end`` ends a line), read
        at log offset ``base``."""
        pos = 0
        while pos < end:
            nl = block.index(b"\n", pos)
            sep = block.find(_SCHEMA_AT, pos, nl) if block.startswith(_HEAD, pos) else -1
            if sep >= 0:
                if block.startswith(_CURRENT, sep):  # other schemas: never served
                    key = block[pos + len(_HEAD) : sep].decode("latin-1")
                    self._index[key] = (base + pos, nl - pos)
            elif nl > pos:
                self.torn_lines += 1
            pos = nl + 1

    def _read_log(self, key: str) -> dict | None:
        """The verified record for ``key``, or None (quarantining a bad one)."""
        with self._log_lock:
            span = self._index.get(key)
            if span is None or self._fd is None:
                self._scan_tail()  # also reopens a closed log
                span = self._index.get(key)
                if span is None or self._fd is None:
                    return None
            offset, length = span
            try:
                raw = os.pread(self._fd, length, offset)
            except OSError:
                return None
            try:
                doc = json.loads(raw)
                result = doc["result"]
                valid = (
                    doc["key"] == key
                    and doc["schema"] == CACHE_SCHEMA
                    and isinstance(result, dict)
                    and doc["checksum"] == result_checksum(result)
                )
            except (ValueError, KeyError, TypeError):
                valid = False
            if not valid:
                self._quarantine(key, raw, offset)
                return None
        return {str(k): v for k, v in result.items()}

    def _quarantine(self, key: str, raw: bytes, offset: int) -> None:
        """Stop serving a failed record, keeping its bytes."""
        assert self.cache_dir is not None
        del self._index[key]
        self.quarantined += 1
        try:
            qdir = self.cache_dir / QUARANTINE_DIR
            qdir.mkdir(parents=True, exist_ok=True)
            (qdir / f"{key}@{offset}.json").write_bytes(raw)
        except OSError:
            pass  # the record is out of the index either way

    def close(self) -> None:
        """Close the log (a later lookup or store reopens it)."""
        with self._log_lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd, self._writable = None, False

    def __del__(self):  # pragma: no cover - GC ordering dependent
        try:
            self.close()
        except Exception:
            pass

    # -- stats -------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        lookups = self.hits + self.misses
        return {
            "memory_entries": len(self._lru),
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "quarantined": self.quarantined,
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
        }
