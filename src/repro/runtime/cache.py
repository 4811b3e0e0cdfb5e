"""Content-keyed cache of program run results.

Every run in this reproduction is a deterministic function of (program,
configuration, input) -- the cost model is deterministic and every benchmark
seeds its internal RNGs from constants.  That makes run results safely
shareable across pipeline stages and experiments: Level 1's measurement
matrix, the autotuner's population evaluations, the dynamic oracle's
re-runs, and a whole Table-1 row can all draw from one
:class:`RunCache`.

Two storage tiers:

* **in-memory** -- an LRU-bounded dict of :class:`~repro.lang.program.RunResult`
  objects.  A hit returns the *identical* result object that was stored.
* **on-disk (optional)** -- a *store*: one SQLite database file (stdlib
  ``sqlite3``) holding a row per key.  Rows record the measurements (time,
  accuracy, JSON-safe extras) but *not* the program output; entries read
  back are marked output-free, and a caller that needs the output
  (deployment-style runs) treats them as misses and re-executes.

The store is what lets the cache follow the runtime to the paper's
50-60k-input regime: :meth:`RunCache.get` reads a key the LRU misses with
one indexed ``SELECT``, so nothing loads wholesale, and :meth:`RunCache.save`
writes the entries put since the last save in one transaction, so a crash
leaves all of them or none, and concurrent savers to one store never drop
each other's rows.
"""

from __future__ import annotations

import json
import os
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Optional, Set

from repro.lang.program import RunResult
from repro.resilience.faults import maybe_fail

#: Schema version of a store, kept in its ``PRAGMA user_version``; a
#: database carrying another version is never read or written.
_SCHEMA_VERSION = 1

#: Creates a new store.  ``IF NOT EXISTS`` lets two processes that both
#: found the file new create it at the same time.
_SCHEMA = f"""
BEGIN IMMEDIATE;
CREATE TABLE IF NOT EXISTS runs (key BLOB PRIMARY KEY, record TEXT NOT NULL) WITHOUT ROWID;
PRAGMA user_version = {_SCHEMA_VERSION};
COMMIT;
"""


def _connect(path: str) -> Any:
    """Open the store at ``path``, creating it when the file is new or empty.

    Anything else at the path -- a directory (such as a sharded store of an
    older version), a file that is not a database, a database of another
    schema version -- raises ``OSError`` or ``sqlite3.Error`` after nothing
    but its header was read, so it is left byte-identical.
    """
    import sqlite3

    if os.path.isdir(path):
        raise IsADirectoryError(f"{path!r} is a directory, not a store file")
    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    if fresh:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    # IMMEDIATE: a save takes the write lock when it begins, so two savers
    # queue on the busy timeout instead of deadlocking on a lock upgrade.
    db = sqlite3.connect(path, isolation_level="IMMEDIATE", check_same_thread=False)
    try:
        if fresh:
            db.executescript(_SCHEMA)
        else:
            version = db.execute("PRAGMA user_version").fetchone()[0]
            if version != _SCHEMA_VERSION:
                raise sqlite3.DatabaseError(
                    f"schema version {version}, expected {_SCHEMA_VERSION}"
                )
    except BaseException:
        db.close()
        raise
    return db


def _encode_key(key: str) -> bytes:
    """A key's column value: its UTF-8 bytes.

    Keys are normally hex digests behind a program name, but program names
    are arbitrary strings and may carry lone surrogates (from undecodable
    filenames, say); ``surrogatepass`` stores those exactly.
    """
    if not isinstance(key, str):
        raise ValueError(f"cache keys must be strings, got {type(key).__name__}")
    return key.encode("utf-8", "surrogatepass")


def _entry_record(entry: "CacheEntry") -> str:
    """The JSON record persisted for one cache entry (measurements only)."""
    record: Dict[str, Any] = {
        "time": float(entry.result.time),
        "accuracy": float(entry.result.accuracy),
    }
    extra = _json_safe_extra(entry.result.extra)
    if extra:
        record["extra"] = extra
    return json.dumps(record)


def _record_result(text: str) -> RunResult:
    """Invert :func:`_entry_record` (outputs are never persisted)."""
    record = json.loads(text)
    return RunResult(
        output=None,
        time=float(record["time"]),
        accuracy=float(record["accuracy"]),
        extra=dict(record.get("extra", {})),
    )


@dataclass
class CacheEntry:
    """One stored run.

    Attributes:
        result: the stored run result.
        has_output: False for entries read from the store (or stored
            stripped), whose ``result.output`` is None regardless of what
            the program produced.
    """

    result: RunResult
    has_output: bool = True


class RunCache:
    """LRU cache of run results with optional SQLite persistence.

    Args:
        max_entries: in-memory entry cap; least-recently-used entries are
            evicted once the cap is exceeded.  ``None`` means unbounded.
            Capped caches with an attached store stay *complete* from the
            caller's view: a lookup whose entry was evicted after a save
            reads just that key back (see :meth:`get`), so eviction trades
            one indexed read for the bounded footprint, never a
            re-execution of anything already persisted.
        persist_path: the store's database file for :meth:`save` /
            :meth:`load`.
    """

    #: Default in-memory entry cap used by :meth:`repro.runtime.Runtime.create`
    #: (overridable via ``--cache-max-entries`` / ``REPRO_CACHE_MAX_ENTRIES``).
    #: An in-memory entry costs ~450 bytes (key + output-free ``RunResult``;
    #: measured by ``benchmarks/test_bench_runtime.py::
    #: test_run_cache_entry_footprint``), so the cap bounds the cache at
    #: ~45 MB -- far above a whole Table-1 row at default sizes, while a
    #: 50k-input x K1 experiment (~750k distinct runs) stays bounded
    #: instead of growing to ~340 MB.  Measurement runs touch each key
    #: once, so LRU eviction inside such a sweep costs nothing.
    DEFAULT_MAX_ENTRIES = 100_000

    def __init__(
        self,
        max_entries: Optional[int] = None,
        persist_path: Optional[str] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 or None")
        self.max_entries = max_entries
        self.persist_path = persist_path
        self._store: "OrderedDict[str, CacheEntry]" = OrderedDict()
        #: Keys put since the last save.  All are in memory: an entry
        #: evicted before any save never reaches the store.
        self._unsaved: Set[str] = set()
        #: The store's ``sqlite3.Connection``, once :meth:`load` or
        #: :meth:`save` opened it.
        self._db: Any = None
        #: Set when the path held no usable store; it is never retried.
        self._refused = False
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- core operations ------------------------------------------------

    def get(self, key: str, need_output: bool = False) -> Optional[RunResult]:
        """Return the cached result for ``key``, or None on a miss.

        With a store attached (see :meth:`load`), a key the LRU misses is
        looked up in the store by one indexed ``SELECT``.

        Args:
            key: run key (see :mod:`repro.runtime.keys`).
            need_output: when True, an output-free entry (read from the
                store) counts as a miss, so the caller re-executes and
                refreshes it.
        """
        entry = self._store.get(key)
        if entry is None and self._db is not None and not need_output:
            entry = self._read(key)
        if entry is None or (need_output and not entry.has_output):
            self.misses += 1
            return None
        self._store.move_to_end(key)
        self.hits += 1
        return entry.result

    def put(self, key: str, result: RunResult, has_output: bool = True) -> None:
        """Store ``result`` under ``key``, evicting LRU entries if needed."""
        self._insert(key, CacheEntry(result=result, has_output=has_output))
        if self.persist_path is not None:
            self._unsaved.add(key)

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: str) -> bool:
        return key in self._store

    def _insert(self, key: str, entry: CacheEntry) -> None:
        self._store[key] = entry
        self._store.move_to_end(key)
        if self.max_entries is None:
            return
        while len(self._store) > self.max_entries:
            evicted_key, _ = self._store.popitem(last=False)
            self._unsaved.discard(evicted_key)
            self.evictions += 1

    def _read(self, key: str) -> Optional[CacheEntry]:
        """Read ``key``'s row into memory; None when absent or unreadable
        (with a warning: the caller re-executes, which is always sound)."""
        import sqlite3

        encoded = _encode_key(key)
        try:
            row = self._db.execute(
                "SELECT record FROM runs WHERE key = ?", (encoded,)
            ).fetchone()
            if row is None:
                return None
            entry = CacheEntry(result=_record_result(row[0]), has_output=False)
        except (sqlite3.Error, ValueError, KeyError, TypeError) as error:
            warnings.warn(
                f"run cache {self.persist_path!r}: unreadable entry ({error}); "
                "re-executing it",
                stacklevel=3,
            )
            return None
        self._insert(key, entry)
        return entry

    # -- persistence -----------------------------------------------------

    def _open(self) -> Any:
        """The store's connection, opened on first use; None when the path
        holds something that is not a store (warned about once)."""
        import sqlite3

        if self.persist_path is None:
            raise ValueError("no persist path configured")
        if self._db is None and not self._refused:
            try:
                self._db = _connect(self.persist_path)
            except (OSError, sqlite3.Error) as error:
                self._refused = True
                warnings.warn(
                    f"run cache {self.persist_path!r} is not a usable store "
                    f"({error}); running without it and leaving the path "
                    "untouched",
                    stacklevel=3,
                )
        return self._db

    def load(self) -> None:
        """Attach the store, creating it if the file is new; reads no row.

        A path holding anything but a store (see :func:`_connect`) warns
        and is never touched: the cache is an optimization, so it runs cold
        and unsaved instead of crashing the run.
        """
        self._open()

    def save(self) -> int:
        """Write the entries put since the last save; returns how many.

        One transaction writes them, so a crash leaves all of them or none.
        With nothing unsaved it returns 0 at once: no fault site, no
        transaction.  Outputs are not persisted.  A non-string key raises
        ``ValueError``.  A save the store refuses (a database error, or the
        ``cache.save`` fault site) warns and keeps the entries for the next
        save; a path holding no usable store is never written.
        """
        import sqlite3

        if self.persist_path is None:
            raise ValueError("no persist path configured")
        if not self._unsaved:
            return 0
        db = self._open()
        if db is None:
            return 0
        rows = [(_encode_key(key), _entry_record(self._store[key])) for key in self._unsaved]
        try:
            maybe_fail("cache.save", detail=self.persist_path)
            with db:
                db.executemany("INSERT OR REPLACE INTO runs VALUES (?, ?)", rows)
        except (sqlite3.Error, OSError) as error:
            warnings.warn(
                f"run cache save to {self.persist_path!r} failed ({error}); "
                f"{len(rows)} entries stay unsaved for the next save",
                stacklevel=2,
            )
            return 0
        self._unsaved.clear()
        return len(rows)

    def close(self) -> None:
        """Close the store's connection; a later :meth:`load` or
        :meth:`save` reopens it."""
        if self._db is not None:
            self._db.close()
            self._db = None

    def stats(self) -> Dict[str, int]:
        """Hit/miss/eviction counters plus the current size."""
        return {
            "entries": len(self._store),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunCache(entries={len(self._store)}, hits={self.hits}, misses={self.misses})"


def _json_safe_extra(extra: Dict[str, Any]) -> Dict[str, Any]:
    """Keep only the JSON- and UTF-8-serializable part of a result's extras.

    Extras are best-effort annotations, so unserializable values (and values
    whose JSON encoding is not valid UTF-8, e.g. strings holding lone
    surrogates) are deliberately omitted from the persisted record; the
    in-memory entry keeps them.
    """
    safe: Dict[str, Any] = {}
    for key, value in extra.items():
        try:
            # ensure_ascii=False forces raw characters, so strings holding
            # lone surrogates fail here instead of producing escape
            # sequences that strict JSON parsers reject.
            json.dumps({key: value}, ensure_ascii=False).encode("utf-8")
        except (TypeError, ValueError, UnicodeEncodeError):
            continue
        safe[key] = value
    return safe
