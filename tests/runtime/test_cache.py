"""Tests for the content-keyed run cache and its SQLite store."""

import json
import sqlite3
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.lang.program import RunResult
from repro.resilience.faults import FaultPlan, FaultSpec, fault_scope
from repro.runtime import RunCache
from repro.runtime.cache import _SCHEMA_VERSION


def result(time=1.0, accuracy=1.0, output=None, extra=None):
    return RunResult(output=output, time=time, accuracy=accuracy, extra=extra or {})


@pytest.fixture
def store_cache():
    """Build caches on a store; their connections close at teardown."""
    caches = []

    def make(path, max_entries=None):
        cache = RunCache(max_entries=max_entries, persist_path=str(path))
        caches.append(cache)
        return cache

    yield make
    for cache in caches:
        cache.close()


def populated_store(make, path, n=64):
    """Save ``n`` entries to the store at ``path``; returns their keys."""
    cache = make(path)
    keys = [f"prog:{i:04d}" for i in range(n)]
    for i, key in enumerate(keys):
        cache.put(key, result(time=float(i)), has_output=False)
    assert cache.save() == n
    return keys


def stored_rows(path):
    """The store's ``runs`` rows, read with plain sqlite3."""
    db = sqlite3.connect(str(path))
    try:
        return dict(db.execute("SELECT key, record FROM runs").fetchall())
    finally:
        db.close()


class TestInMemory:
    def test_hit_returns_identical_object(self):
        cache = RunCache()
        stored = result(time=42.0, output=[1, 2, 3])
        cache.put("k", stored)
        assert cache.get("k") is stored
        assert cache.get("k") is stored  # stable across repeated hits

    def test_miss_returns_none_and_counts(self):
        cache = RunCache()
        assert cache.get("absent") is None
        assert cache.stats()["misses"] == 1
        assert cache.stats()["hits"] == 0

    def test_need_output_treats_outputless_entry_as_miss(self):
        cache = RunCache()
        cache.put("k", result(output=None), has_output=False)
        assert cache.get("k") is not None
        assert cache.get("k", need_output=True) is None

    def test_need_output_hit_when_output_stored(self):
        cache = RunCache()
        stored = result(output="payload")
        cache.put("k", stored, has_output=True)
        assert cache.get("k", need_output=True) is stored

    def test_put_overwrites(self):
        cache = RunCache()
        cache.put("k", result(time=1.0))
        replacement = result(time=2.0)
        cache.put("k", replacement)
        assert len(cache) == 1
        assert cache.get("k") is replacement


class TestEviction:
    def test_lru_eviction_order(self):
        cache = RunCache(max_entries=2)
        cache.put("a", result(time=1.0))
        cache.put("b", result(time=2.0))
        cache.get("a")  # refresh a; b is now least recent
        cache.put("c", result(time=3.0))
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache
        assert cache.stats()["evictions"] == 1

    def test_unbounded_by_default(self):
        cache = RunCache()
        for i in range(1000):
            cache.put(f"k{i}", result(time=float(i)))
        assert len(cache) == 1000
        assert cache.stats()["evictions"] == 0

    def test_invalid_max_entries_rejected(self):
        with pytest.raises(ValueError):
            RunCache(max_entries=0)

    def test_entry_footprint_stays_below_1500_bytes(self):
        """Traced bytes per in-memory entry (key + output-free result), the
        number ``DEFAULT_MAX_ENTRIES`` is derived from.  A loose ceiling, so
        an entry that balloons (say, by caching outputs) fails loudly."""
        n = 20_000
        cache = RunCache()
        tracemalloc.start()
        try:
            for i in range(n):
                cache.put(
                    f"prog:{i:016x}:{i:016x}:{i:016x}",
                    RunResult(output=None, time=float(i), accuracy=1.0),
                    has_output=False,
                )
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        per_entry = current / n
        assert per_entry < 1500, f"run-cache entries ballooned to {per_entry:.0f} B"


class TestPersistence:
    def test_round_trip(self, tmp_path, store_cache):
        path = tmp_path / "cache.db"
        cache = store_cache(path)
        cache.put("x", result(time=3.5, accuracy=0.75, extra={"note": "hi"}))
        cache.put("y", result(time=1.25, accuracy=1.0, output=np.arange(3)))
        assert cache.save() == 2

        fresh = store_cache(path)
        fresh.load()
        x = fresh.get("x")
        assert x.time == 3.5
        assert x.accuracy == 0.75
        assert x.extra == {"note": "hi"}
        # Outputs are never persisted; reloaded entries are measurement-only.
        assert fresh.get("y").output is None
        assert fresh.get("y", need_output=True) is None

    def test_load_reads_no_row(self, tmp_path, store_cache):
        path = tmp_path / "cache.db"
        keys = populated_store(store_cache, path)
        fresh = store_cache(path)
        fresh.load()
        assert len(fresh) == 0  # attached, nothing read yet
        assert fresh.get(keys[5]).time == 5.0
        assert len(fresh) == 1  # one lookup reads one row
        assert fresh.stats() == {"entries": 1, "hits": 1, "misses": 0, "evictions": 0}

    def test_load_missing_file_is_empty(self, tmp_path, store_cache):
        cache = store_cache(tmp_path / "absent.db")
        cache.load()
        assert len(cache) == 0
        assert cache.get("anything") is None

    def test_load_tolerates_corrupt_file(self, tmp_path, store_cache):
        """A bad cache file degrades to a cold start (with a warning), never a crash."""
        path = tmp_path / "cache.db"
        for garbage in ("not json{{", "[1, 2, 3]", '{"version": 1, "entries": {"k": {}}}'):
            path.write_text(garbage)
            cache = store_cache(path)
            with pytest.warns(UserWarning, match="not a usable store"):
                cache.load()
            assert cache.get("k") is None
            assert path.read_text() == garbage

    def test_load_rejects_unknown_version(self, tmp_path, store_cache):
        path = tmp_path / "cache.db"
        populated_store(store_cache, path, n=2)
        db = sqlite3.connect(str(path))
        db.execute(f"PRAGMA user_version = {_SCHEMA_VERSION + 1}")
        db.close()
        cache = store_cache(path)
        with pytest.warns(UserWarning, match="schema version"):
            cache.load()
        assert cache.get("prog:0000") is None

    def test_json_unsafe_extras_dropped(self, tmp_path, store_cache):
        path = tmp_path / "cache.db"
        cache = store_cache(path)
        cache.put("k", result(extra={"ok": 1, "bad": np.arange(2)}))
        cache.save()
        fresh = store_cache(path)
        fresh.load()
        assert fresh.get("k").extra == {"ok": 1}

    def test_save_without_path_rejected(self):
        with pytest.raises(ValueError):
            RunCache().save()


class TestNonUtf8Keys:
    """Persistence of keys carrying non-UTF8-safe payloads (lone surrogates).

    Program names are arbitrary strings -- an undecodable filename can smuggle
    surrogates into a run key.  Such keys are stored as their
    ``surrogatepass`` UTF-8 bytes and read back bit-exactly.
    """

    SURROGATE_KEY = "prog\udcff:abc\ud800:def"

    def test_round_trip_preserves_surrogate_key(self, tmp_path, store_cache):
        path = tmp_path / "cache.db"
        cache = store_cache(path)
        cache.put(self.SURROGATE_KEY, result(time=3.0), has_output=False)
        cache.put("plain:key", result(time=4.0), has_output=False)
        assert cache.save() == 2
        fresh = store_cache(path)
        fresh.load()
        assert fresh.get(self.SURROGATE_KEY).time == 3.0
        assert fresh.get("plain:key").time == 4.0

    def test_keys_are_stored_as_surrogatepass_utf8(self, tmp_path, store_cache):
        path = tmp_path / "cache.db"
        cache = store_cache(path)
        cache.put(self.SURROGATE_KEY, result(), has_output=False)
        cache.save()
        assert list(stored_rows(path)) == [
            self.SURROGATE_KEY.encode("utf-8", "surrogatepass")
        ]

    def test_non_string_key_raises_explicitly(self, tmp_path, store_cache):
        cache = store_cache(tmp_path / "cache.db")
        cache.put(123, result(), has_output=False)  # type: ignore[arg-type]
        with pytest.raises(ValueError, match="keys must be strings"):
            cache.save()

    def test_surrogate_extras_dropped_not_poisonous(self, tmp_path, store_cache):
        path = tmp_path / "cache.db"
        cache = store_cache(path)
        cache.put("k", result(extra={"ok": 1, "bad": "x\udcff"}), has_output=False)
        cache.save()
        fresh = store_cache(path)
        fresh.load()
        assert fresh.get("k").extra == {"ok": 1}


class TestStore:
    """The database store: incremental saves, shared writers, bad rows."""

    def test_save_writes_only_entries_put_since_the_last_save(self, tmp_path, store_cache):
        path = tmp_path / "cache.db"
        cache = store_cache(path)
        cache.put("a", result(time=1.0), has_output=False)
        assert cache.save() == 1
        assert cache.save() == 0  # nothing new
        cache.put("b", result(time=2.0), has_output=False)
        assert cache.save() == 1
        assert set(stored_rows(path)) == {b"a", b"b"}

    def test_save_with_nothing_unsaved_touches_nothing(self, tmp_path, store_cache):
        """An empty save runs no statement, so it takes no write lock, and
        never reaches the ``cache.save`` fault site."""
        cache = store_cache(tmp_path / "cache.db")
        cache.put("a", result(time=1.0), has_output=False)
        assert cache.save() == 1
        statements = []
        cache._db.set_trace_callback(statements.append)
        assert cache.save() == 0
        assert statements == []  # no BEGIN IMMEDIATE ... COMMIT
        plan = FaultPlan(faults=[FaultSpec(site="cache.save", action="raise", nth=1)])
        with fault_scope(plan) as injector:
            assert cache.save() == 0
        assert injector.snapshot()["calls"] == {}

    def test_store_with_the_retired_manifest_table_still_works(self, tmp_path, store_cache):
        """A store written while the resume manifest existed -- ``runs``, a
        one-row ``manifest`` table and ``user_version`` 1 -- answers its runs
        as hits and takes saves, and its manifest row is left as it was."""
        path = tmp_path / "cache.db"
        db = sqlite3.connect(str(path))
        db.executescript(
            "CREATE TABLE runs (key BLOB PRIMARY KEY, record TEXT NOT NULL) WITHOUT ROWID;"
            "CREATE TABLE manifest (id INTEGER PRIMARY KEY CHECK (id = 0), body TEXT NOT NULL);"
            "PRAGMA user_version = 1;"
        )
        manifest = [(0, '{"version": 1, "config": "d", "interrupted": true}')]
        with db:
            db.execute("INSERT INTO runs VALUES (?, ?)", (b"old", '{"time": 2.5, "accuracy": 1.0}'))
            db.executemany("INSERT INTO manifest VALUES (?, ?)", manifest)
        db.close()
        cache = store_cache(path)
        cache.load()
        assert cache.get("old").time == 2.5
        assert cache.stats()["hits"] == 1
        cache.put("new", result(time=4.0), has_output=False)
        assert cache.save() == 1
        assert set(stored_rows(path)) == {b"old", b"new"}
        db = sqlite3.connect(str(path))
        try:
            assert db.execute("SELECT id, body FROM manifest").fetchall() == manifest
            assert db.execute("PRAGMA user_version").fetchone() == (1,)
        finally:
            db.close()

    def test_save_merges_with_entries_evicted_from_memory(self, tmp_path, store_cache):
        path = tmp_path / "cache.db"
        cache = store_cache(path, max_entries=2)
        cache.put("a", result(time=1.0), has_output=False)
        cache.put("b", result(time=2.0), has_output=False)
        cache.save()
        # Overflow the LRU so "a"/"b" are evicted, then save again: their
        # rows must survive the second save.
        cache.put("c", result(time=3.0), has_output=False)
        cache.put("d", result(time=4.0), has_output=False)
        cache.save()
        fresh = store_cache(path)
        fresh.load()
        for key, value in (("a", 1.0), ("b", 2.0), ("c", 3.0), ("d", 4.0)):
            assert fresh.get(key).time == value

    def test_concurrent_saves_to_same_store_union(self, tmp_path, store_cache):
        """Two caches persisting to one store must not clobber each other."""
        path = tmp_path / "cache.db"
        first = store_cache(path)
        second = store_cache(path)
        for i in range(16):
            first.put(f"first:{i}", result(time=float(i)), has_output=False)
            second.put(f"second:{i}", result(time=float(100 + i)), has_output=False)
        first.save()
        second.save()
        fresh = store_cache(path)
        fresh.load()
        for i in range(16):
            assert fresh.get(f"first:{i}").time == float(i)
            assert fresh.get(f"second:{i}").time == float(100 + i)

    def test_threads_saving_disjoint_keys_keep_every_key(self, tmp_path, store_cache):
        """Savers on one store, saving at the same moment, keep every row.

        Three threads each own a cache (a connection each, like separate
        processes); a barrier starts every round's saves together and a
        tiny GIL switch interval interleaves them, so a read-merge-rewrite
        store loses entries here.
        """
        path = tmp_path / "cache.db"
        rounds, per_round = 40, 16
        names = ("first", "second", "third")
        caches = {name: store_cache(path) for name in names}
        written = {name: 0 for name in names}
        together = threading.Barrier(len(names))
        errors = []

        def saver(name):
            try:
                for i in range(rounds):
                    for j in range(per_round):
                        key = f"{name}:{i}:{j}"
                        caches[name].put(key, result(time=float(i)), has_output=False)
                    together.wait(timeout=30)
                    written[name] += caches[name].save()
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=saver, args=(name,)) for name in names]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert written == {name: rounds * per_round for name in names}  # no save failed
        fresh = store_cache(path)
        fresh.load()
        missing = [
            f"{name}:{i}:{j}"
            for name in names
            for i in range(rounds)
            for j in range(per_round)
            if fresh.get(f"{name}:{i}:{j}") is None
        ]
        assert missing == []

    def test_unreadable_row_warns_and_reads_as_a_miss(self, tmp_path, store_cache):
        path = tmp_path / "cache.db"
        populated_store(store_cache, path, n=2)
        db = sqlite3.connect(str(path))
        with db:
            db.execute("UPDATE runs SET record = 'not json{{' WHERE key = ?", (b"prog:0000",))
        db.close()
        fresh = store_cache(path)
        fresh.load()
        with pytest.warns(UserWarning, match="unreadable entry"):
            assert fresh.get("prog:0000") is None
        assert fresh.get("prog:0001").time == 1.0


class TestFileAtStorePath:
    """A path holding something other than a store is never read or written."""

    def test_file_loads_nothing_and_survives_save(self, tmp_path, store_cache):
        path = tmp_path / "cache.json"
        path.write_text(
            json.dumps({"version": 1, "entries": {"a": {"time": 1.0, "accuracy": 1.0}}})
        )
        before = path.read_bytes()
        cache = store_cache(path)
        with pytest.warns(UserWarning, match="not a usable store"):
            cache.load()
        assert cache.get("a") is None
        cache.put("fresh", result(time=5.0), has_output=False)
        assert cache.save() == 0
        assert path.read_bytes() == before

    @pytest.mark.parametrize("kind", ["shard-directory", "other-version", "foreign-database"])
    def test_bad_store_warns_runs_cold_and_stays_byte_identical(self, tmp_path, store_cache, kind):
        path = tmp_path / "store"
        if kind == "shard-directory":
            (path / "shards").mkdir(parents=True)
            (path / "cache-meta.json").write_text('{"store_version": 1, "shards": {}}')
        else:
            db = sqlite3.connect(str(path))
            db.execute("CREATE TABLE runs (key BLOB PRIMARY KEY, record TEXT)")
            version = _SCHEMA_VERSION + 1 if kind == "other-version" else 0
            db.execute(f"PRAGMA user_version = {version}")
            db.close()

        def snapshot():
            if path.is_dir():
                return sorted(
                    (str(p.relative_to(path)), p.read_bytes() if p.is_file() else None)
                    for p in path.rglob("*")
                )
            return path.read_bytes()

        before = snapshot()
        cache = store_cache(path)
        with pytest.warns(UserWarning, match="not a usable store"):
            cache.load()
        cache.put("k", result(), has_output=False)
        assert cache.get("k") is not None  # the in-memory tier still works
        assert cache.save() == 0
        assert snapshot() == before


class TestSaveFailures:
    """A failed save warns and keeps its entries for the next save."""

    def test_refused_save_keeps_entries_for_the_next_save(self, tmp_path, store_cache):
        path = tmp_path / "cache.db"
        cache = store_cache(path)
        cache.load()
        db = sqlite3.connect(str(path))
        db.execute(
            "CREATE TRIGGER refuse BEFORE INSERT ON runs "
            "BEGIN SELECT RAISE(ABORT, 'refused'); END"
        )
        db.close()
        cache.put("a", result(time=1.0), has_output=False)
        with pytest.warns(UserWarning, match="1 entries stay unsaved"):
            assert cache.save() == 0
        assert stored_rows(path) == {}
        db = sqlite3.connect(str(path))
        db.execute("DROP TRIGGER refuse")
        db.close()
        cache.put("b", result(time=2.0), has_output=False)
        assert cache.save() == 2
        assert set(stored_rows(path)) == {b"a", b"b"}

    def test_fault_at_cache_save_keeps_entries_for_the_next_save(self, tmp_path, store_cache):
        path = tmp_path / "cache.db"
        cache = store_cache(path)
        cache.put("a", result(time=1.0), has_output=False)
        plan = FaultPlan(faults=[FaultSpec(site="cache.save", action="raise", nth=1)])
        with fault_scope(plan) as injector:
            with pytest.warns(UserWarning, match="injected fault"):
                assert cache.save() == 0
            assert cache.save() == 1
        assert injector.fired == {"cache.save": 1}
        fresh = store_cache(path)
        fresh.load()
        assert fresh.get("a").time == 1.0


class TestCappedCacheWithStore:
    """Eviction-vs-persistence semantics: a capped cache backed by a store
    stays complete -- saved entries evicted from memory are read back from
    the store on the next lookup instead of becoming permanent misses."""

    def test_every_persisted_entry_reachable_despite_tiny_cap(self, tmp_path, store_cache):
        path = tmp_path / "cache.db"
        keys = populated_store(store_cache, path, n=64)
        capped = store_cache(path, max_entries=4)
        capped.load()
        # Two full passes: the second can only succeed by reading back
        # what the first pass evicted.
        for _ in range(2):
            for i, key in enumerate(keys):
                found = capped.get(key)
                assert found is not None and found.time == float(i)
                assert len(capped) <= 4  # the cap holds throughout
        assert capped.stats()["evictions"] > 0

    def test_reread_inserts_only_the_requested_key(self, tmp_path, store_cache):
        path = tmp_path / "cache.db"
        keys = populated_store(store_cache, path, n=64)
        capped = store_cache(path, max_entries=4)
        capped.load()
        for key in keys:
            capped.get(key)
        survivors = [key for key in keys if key in capped]
        evicted = next(key for key in keys if key not in capped)
        assert capped.get(evicted) is not None  # read back from the store
        assert evicted in capped
        # Exactly one pre-existing entry was displaced by the read.
        assert sum(1 for key in survivors if key in capped) == len(survivors) - 1

    def test_truly_absent_key_stays_a_miss(self, tmp_path, store_cache):
        path = tmp_path / "cache.db"
        keys = populated_store(store_cache, path, n=8)
        capped = store_cache(path, max_entries=2)
        capped.load()
        for key in keys:
            capped.get(key)
        assert capped.get("prog:nowhere") is None

    def test_saved_then_evicted_entries_survive_on_disk(self, tmp_path, store_cache):
        """Entries that were saved and later LRU-evicted are never dropped
        by a subsequent save."""
        path = tmp_path / "cache.db"
        cache = store_cache(path, max_entries=4)
        early = [f"early:{i}" for i in range(4)]
        late = [f"late:{i}" for i in range(4)]
        for i, key in enumerate(early):
            cache.put(key, result(time=float(i)), has_output=False)
        cache.save()
        for i, key in enumerate(late):  # evicts every early entry
            cache.put(key, result(time=100.0 + i), has_output=False)
        assert all(key not in cache for key in early)
        cache.save()
        fresh = store_cache(path)
        fresh.load()
        for i, key in enumerate(early):
            assert fresh.get(key).time == float(i)
        for i, key in enumerate(late):
            assert fresh.get(key).time == 100.0 + i

    def test_evicted_before_any_save_is_lost_without_error(self, tmp_path, store_cache):
        """An entry evicted before its first save never reached disk; the
        cache simply misses (the caller re-executes), it does not crash."""
        path = tmp_path / "cache.db"
        cache = store_cache(path, max_entries=2)
        for i in range(5):
            cache.put(f"k{i}", result(time=float(i)), has_output=False)
        assert cache.save() == 2
        fresh = store_cache(path, max_entries=2)
        fresh.load()
        assert fresh.get("k4") is not None
        assert fresh.get("k0") is None


class TestCappedConcurrentStores:
    """Capped LRU caches sharing one store."""

    def test_two_capped_caches_union_merge_with_evictions(self, tmp_path, store_cache):
        """Both writers evict most entries after saving them; the store
        must still end up holding the union of everything each one saved."""
        path = tmp_path / "cache.db"
        first = store_cache(path, max_entries=4)
        second = store_cache(path, max_entries=4)
        for i in range(12):
            first.put(f"first:{i}", result(time=float(i)), has_output=False)
            first.save()  # persist before the cap can evict this entry
            second.put(f"second:{i}", result(time=float(100 + i)), has_output=False)
            second.save()
        assert first.stats()["evictions"] > 0
        assert second.stats()["evictions"] > 0
        fresh = store_cache(path)
        fresh.load()
        for i in range(12):
            assert fresh.get(f"first:{i}").time == float(i)
            assert fresh.get(f"second:{i}").time == float(100 + i)

    def test_capped_reader_sees_other_writers_entries_via_rereads(self, tmp_path, store_cache):
        """A capped cache attached to a store another cache keeps extending
        reads back both its own evicted entries and the foreign ones."""
        path = tmp_path / "cache.db"
        keys = populated_store(store_cache, path, n=32)
        reader = store_cache(path, max_entries=2)
        reader.load()
        for key in keys:  # the cap evicts almost all of these again
            assert reader.get(key) is not None
        writer = store_cache(path)
        writer.load()
        writer.put("other:new", result(time=555.0), has_output=False)
        writer.save()
        for key in keys:
            assert reader.get(key) is not None
        assert reader.get("other:new").time == 555.0
