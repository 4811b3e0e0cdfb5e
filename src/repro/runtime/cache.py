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
* **on-disk (optional)** -- a *sharded store*: a directory holding a small
  manifest (``cache-meta.json``) and one JSON file per key-hash prefix under
  ``shards/``.  Shards record the measurements (time, accuracy, JSON-safe
  extras) but *not* the program output; loaded entries are marked
  output-free, and a caller that needs the output (deployment-style runs)
  treats them as misses and re-executes.

The sharded layout is what lets the cache follow the runtime to the paper's
50-60k-input regime: :meth:`RunCache.save` rewrites only the shards touched
since the last save (atomically, temp file + rename, merging with whatever
is already on disk), and :meth:`RunCache.load` defers reading a shard until
the first lookup that lands in it.
"""

from __future__ import annotations

import base64
import glob
import hashlib
import json
import os
import tempfile
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Optional, Set

from repro.lang.program import RunResult
from repro.resilience.faults import truncate_bytes as _fault_truncate_bytes

#: On-disk format version of one entry table (a shard file); bumped when
#: the entry layout changes.
_FORMAT_VERSION = 1

#: Manifest format version of the sharded store.
_STORE_VERSION = 1

#: Hex digits of the key hash that select a shard (2 -> up to 256 shards).
_SHARD_PREFIX_LEN = 2

#: Manifest filename inside a sharded store directory.
_META_NAME = "cache-meta.json"

#: Subdirectory of a sharded store holding the shard files.
_SHARDS_DIR = "shards"

#: Prefix marking a key that was base64-escaped for persistence.  Keys are
#: normally hex digests with a program-name prefix, but program names are
#: arbitrary strings and may contain payloads that are not UTF-8-safe (lone
#: surrogates from undecodable filenames, say).  Emitting those raw would
#: produce a file that is not valid UTF-8/JSON -- readable only by lenient
#: parsers, and silently dropped wholesale by :meth:`RunCache.load` under a
#: strict one -- so such keys are escaped to ASCII on save and restored
#: exactly on load.
_ESCAPED_KEY_PREFIX = "\x00b64:"


def _escape_key(key: str) -> str:
    """ASCII-safe, exactly invertible encoding of an arbitrary cache key.

    UTF-8-safe keys pass through unchanged; anything else (or a key that
    happens to start with the escape prefix itself) is base64-encoded with
    ``surrogatepass`` so even lone surrogates round-trip bit-exactly.
    """
    needs_escape = key.startswith(_ESCAPED_KEY_PREFIX)
    if not needs_escape:
        try:
            key.encode("utf-8")
        except UnicodeEncodeError:
            needs_escape = True
    if not needs_escape:
        return key
    raw = key.encode("utf-8", "surrogatepass")
    return _ESCAPED_KEY_PREFIX + base64.urlsafe_b64encode(raw).decode("ascii")


def _unescape_key(stored: str) -> str:
    """Invert :func:`_escape_key`."""
    if not stored.startswith(_ESCAPED_KEY_PREFIX):
        return stored
    raw = base64.urlsafe_b64decode(stored[len(_ESCAPED_KEY_PREFIX):].encode("ascii"))
    return raw.decode("utf-8", "surrogatepass")


def _shard_of(key: str) -> str:
    """The shard id (hex prefix) a key belongs to.

    Hashing the *escaped* key keeps the computation ASCII-safe for keys
    carrying lone surrogates and makes the shard assignment a pure function
    of what actually lands in the file.
    """
    digest = hashlib.sha1(_escape_key(key).encode("ascii", "backslashreplace"))
    return digest.hexdigest()[:_SHARD_PREFIX_LEN]


def _entry_record(entry: "CacheEntry") -> Dict[str, Any]:
    """The JSON record persisted for one cache entry (measurements only)."""
    record: Dict[str, Any] = {
        "time": entry.result.time,
        "accuracy": entry.result.accuracy,
    }
    extra = _json_safe_extra(entry.result.extra)
    if extra:
        record["extra"] = extra
    return record


def _record_result(record: Dict[str, Any]) -> RunResult:
    """Invert :func:`_entry_record` (outputs are never persisted)."""
    return RunResult(
        output=None,
        time=float(record["time"]),
        accuracy=float(record["accuracy"]),
        extra=dict(record.get("extra", {})),
    )


def _atomic_write_json(target: str, payload: Any, site: str = "cache.shard_write") -> None:
    """Write ``payload`` as UTF-8 JSON via temp file + fsync + rename.

    Durability: the temp file is flushed and fsynced before the rename, and
    the containing directory is fsynced after it, so a power-loss-style kill
    leaves either the old file or the complete new one -- never a renamed
    half-write.  (Checkpoint manifests and cache shards both ride on this.)

    Any failure -- a mid-``json.dump`` serialization error included -- removes
    the temp file before the original exception re-raises, so a failed save
    never litters the shard directory with orphaned ``*.tmp`` files.  Cleanup
    itself is exception-safe: an unlink error (the temp file already swept by
    another process, say) is suppressed rather than allowed to mask what
    actually went wrong.

    ``site`` names the write's fault-injection site (see
    :mod:`repro.resilience.faults`); a ``truncate`` fault lands the first N
    bytes on disk -- the torn write the fsyncs exist to prevent, which the
    corrupt-shard tests inject to prove readers degrade instead of crash.
    """
    directory = os.path.dirname(os.path.abspath(target))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
            handle.flush()
            torn = _fault_truncate_bytes(site, detail=target)
            if torn is not None:
                handle.truncate(torn)
            os.fsync(handle.fileno())
        os.replace(tmp_path, target)
        _fsync_directory(directory)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def _fsync_directory(directory: str) -> None:
    """fsync a directory so a just-renamed entry survives power loss.

    Best-effort: some platforms/filesystems refuse to open or fsync
    directories; losing that last bit of durability there is better than
    failing every save.
    """
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(dir_fd)


def _read_entry_table(path: str) -> Optional[Dict[str, Dict[str, Any]]]:
    """Parse one entry table (a shard file).

    Returns the ``{escaped_key: record}`` mapping, or None when the file is
    missing, corrupt, or of an incompatible version (the caller decides
    whether that deserves a warning).
    """
    if not os.path.isfile(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict) or payload.get("version") != _FORMAT_VERSION:
            return None
        entries = payload.get("entries", {})
        if not isinstance(entries, dict):
            return None
        # Validate eagerly so a half-garbled shard is rejected wholesale
        # instead of crashing a later lazy lookup.
        for record in entries.values():
            float(record["time"])
            float(record["accuracy"])
        return entries
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return None


@dataclass
class CacheEntry:
    """One stored run.

    Attributes:
        result: the stored run result.
        has_output: False for entries loaded from disk (or stored stripped),
            whose ``result.output`` is None regardless of what the program
            produced.
    """

    result: RunResult
    has_output: bool = True


class RunCache:
    """LRU cache of run results with optional sharded JSON persistence.

    Args:
        max_entries: in-memory entry cap; least-recently-used entries are
            evicted once the cap is exceeded.  ``None`` means unbounded.
            Capped caches with an attached store stay *complete* from the
            caller's view: a lookup whose entry was evicted re-reads just
            that key from its shard (see :meth:`get`), so eviction trades a
            small file read for the bounded footprint, never a re-execution
            of anything already persisted.
        persist_path: default store path for :meth:`save` / :meth:`load`.
            The path names a *directory* (the sharded store).
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
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Entries recovered from disk because a capped cache missed on a
        #: key whose shard had already been faulted in (LRU-evicted since).
        self.shard_rereads = 0
        #: Store directory attached by :meth:`load` for lazy shard reads.
        self._attached_store: Optional[str] = None
        #: Shard ids already read (or found missing) from the attached store.
        self._seen_shards: Set[str] = set()
        #: Shard ids holding entries added/updated since the last save.
        self._dirty_shards: Set[str] = set()
        #: Shard ids that have lost at least one entry to LRU eviction since
        #: being faulted in.  A miss on a seen shard outside this set cannot
        #: be eviction's doing, so it skips the disk re-read entirely -- a
        #: cold miss (brand-new run) never pays a shard parse unless the
        #: cache has actually been churning that shard.
        self._evicted_shards: Set[str] = set()

    # -- core operations ------------------------------------------------

    def get(self, key: str, need_output: bool = False) -> Optional[RunResult]:
        """Return the cached result for ``key``, or None on a miss.

        When a sharded store is attached (see :meth:`load`), a miss first
        faults in the shard the key hashes to -- each shard is read at most
        once per process -- so the big on-disk cache never loads wholesale.

        Args:
            key: run key (see :mod:`repro.runtime.keys`).
            need_output: when True, an output-free entry (loaded from disk)
                counts as a miss, so the caller re-executes and refreshes it.
        """
        entry = self._store.get(key)
        if entry is None and self._fault_in_shard(key):
            entry = self._store.get(key)
        if entry is None or (need_output and not entry.has_output):
            self.misses += 1
            return None
        self._store.move_to_end(key)
        self.hits += 1
        return entry.result

    def put(self, key: str, result: RunResult, has_output: bool = True) -> None:
        """Store ``result`` under ``key``, evicting LRU entries if needed."""
        self._store[key] = CacheEntry(result=result, has_output=has_output)
        self._store.move_to_end(key)
        if self.persist_path is not None and isinstance(key, str):
            self._dirty_shards.add(_shard_of(key))
        self._evict_over_cap()

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: str) -> bool:
        return key in self._store

    def clear(self) -> None:
        """Drop all in-memory entries (statistics and disk state are kept)."""
        self._store.clear()

    def _insert_loaded(self, key: str, result: RunResult) -> None:
        """Insert an entry read from disk.

        Unlike :meth:`put` this does not mark the key's shard dirty -- the
        entry is already persisted -- so lazy faults never force a pointless
        shard rewrite (or, worse, mask a genuinely dirty shard's pending
        additions by being conflated with them).
        """
        self._store[key] = CacheEntry(result=result, has_output=False)
        self._store.move_to_end(key)
        self._evict_over_cap()

    def _evict_over_cap(self) -> None:
        """Drop LRU entries past the cap, remembering which shards they hit."""
        if self.max_entries is None:
            return
        while len(self._store) > self.max_entries:
            evicted_key, _ = self._store.popitem(last=False)
            self.evictions += 1
            if self._attached_store is not None and isinstance(evicted_key, str):
                self._evicted_shards.add(_shard_of(evicted_key))

    # -- sharded persistence --------------------------------------------

    def save(self, path: Optional[str] = None) -> int:
        """Persist dirty shards to the sharded store; returns entries written.

        Only the shards touched since the last save (plus, for a store other
        than the attached one, every shard holding in-memory entries) are
        rewritten.  Each shard write is atomic (temp file + rename) and
        *merges* with the shard already on disk -- in-memory entries win on
        key collision -- so concurrent writers to the same store and entries
        evicted from memory since loading are never silently dropped.

        Program outputs are not persisted (they can be arbitrary objects);
        reloaded entries therefore serve measurement lookups only.  Keys
        that are not UTF-8-safe are escaped to ASCII (and restored exactly
        by :meth:`load`) so every file stays valid UTF-8 JSON; a non-string
        key raises ``ValueError`` rather than being dropped.
        """
        target = path or self.persist_path
        if target is None:
            raise ValueError("no persist path configured")
        if os.path.isfile(target):
            # A file at the store path is not ours (load() already warned).
            # Persisting is an optimization, so degrade rather than crash
            # the run -- and never clobber the user's file with a directory.
            warnings.warn(
                f"not persisting run cache: {target!r} is a file, not a "
                "sharded store directory",
                stacklevel=2,
            )
            return 0

        by_shard: Dict[str, Dict[str, Dict[str, Any]]] = {}
        for key, entry in self._store.items():
            if not isinstance(key, str):
                raise ValueError(f"cache keys must be strings, got {type(key).__name__}")
            by_shard.setdefault(_shard_of(key), {})[_escape_key(key)] = _entry_record(entry)

        own_store = self._is_own_store(target)
        if own_store:
            # Entries faulted in from this store are already on disk; only
            # shards with additions since the last save need rewriting.
            shard_ids = set(self._dirty_shards)
        else:
            shard_ids = set(by_shard)

        written = 0
        counts: Dict[str, int] = {}
        for shard_id in sorted(shard_ids):
            shard_path = self._shard_path(target, shard_id)
            merged = _read_entry_table(shard_path) or {}
            merged.update(by_shard.get(shard_id, {}))
            _atomic_write_json(
                shard_path, {"version": _FORMAT_VERSION, "entries": merged}
            )
            counts[shard_id] = len(merged)
            written += len(merged)
        self._write_meta(target, counts)
        if own_store:
            self._dirty_shards.clear()
        return written

    def load(self, path: Optional[str] = None) -> int:
        """Attach a sharded store for lazy reads; returns entries available.

        Shards are *not* read here -- each one is faulted in by the first
        :meth:`get` that lands in it -- so attaching a 50k-entry store costs
        one manifest read.  The returned count comes from the manifest.

        Missing, corrupt, or incompatible files are tolerated: the cache is
        an optimization, so a bad file -- including a plain file where the
        store directory belongs -- degrades to a cold start (with a warning
        naming the offender), never a crash.  Loaded entries are
        output-free.
        """
        target = path or self.persist_path
        if target is None:
            raise ValueError("no persist path configured")
        if os.path.isfile(target):
            warnings.warn(
                f"run cache file {target!r} is corrupt or incompatible (a "
                "store is a directory); starting with an empty cache",
                stacklevel=2,
            )
            return 0
        if not os.path.isdir(target):
            return 0

        self._attached_store = target
        self._seen_shards = set()
        meta = self._read_meta(target)
        if meta is not None:
            return int(sum(meta.get("shards", {}).values()))

        # No readable manifest (corrupt, or a foreign directory): fall back
        # to an eager scan of whatever shard files are present, rebuilding
        # the manifest as a side effect.
        shard_paths = sorted(
            glob.glob(os.path.join(target, _SHARDS_DIR, "*.json"))
        )
        if not shard_paths and not os.path.exists(os.path.join(target, _META_NAME)):
            return 0
        warnings.warn(
            f"run cache store {target!r} has no readable manifest; "
            "rescanning shards",
            stacklevel=2,
        )
        loaded = 0
        counts: Dict[str, int] = {}
        for shard_path in shard_paths:
            shard_id = os.path.splitext(os.path.basename(shard_path))[0]
            entries = _read_entry_table(shard_path)
            if entries is None:
                warnings.warn(
                    f"run cache shard {shard_path!r} is corrupt; ignoring it",
                    stacklevel=2,
                )
                continue
            self._seen_shards.add(shard_id)
            for stored, record in entries.items():
                self._insert_loaded(_unescape_key(stored), _record_result(record))
            counts[shard_id] = len(entries)
            loaded += len(entries)
        self._write_meta(target, counts)
        return loaded

    def _fault_in_shard(self, key: str) -> bool:
        """Read ``key``'s shard from the attached store; True if it loaded.

        A shard is normally read at most once per process.  The exception is
        a *capped* cache: entries faulted in earlier may since have been
        LRU-evicted, so a miss on a seen shard re-reads just the requested
        key from disk (:meth:`_reread_single_key`) -- evicted entries stay
        reachable through the sharded store instead of silently demanding
        re-execution.
        """
        if self._attached_store is None or not isinstance(key, str):
            return False
        shard_id = _shard_of(key)
        if shard_id in self._seen_shards:
            if self.max_entries is None:
                return False
            return self._reread_single_key(key, shard_id)
        self._seen_shards.add(shard_id)
        shard_path = self._shard_path(self._attached_store, shard_id)
        if not os.path.exists(shard_path):
            return False
        entries = _read_entry_table(shard_path)
        if entries is None:
            warnings.warn(
                f"run cache shard {shard_path!r} is corrupt; ignoring it",
                stacklevel=3,
            )
            return False
        requested: Optional[Dict[str, Any]] = None
        for stored, record in entries.items():
            stored_key = _unescape_key(stored)
            if stored_key == key:
                # Defer the key being looked up to the end: inserting it
                # mid-shard could see it LRU-evicted by the rest of the
                # shard's entries on a tightly capped cache, and the shard
                # is never re-read, so the miss would become permanent.
                requested = record
                continue
            # A fresher in-memory entry (e.g. one carrying a live output)
            # must not be clobbered by its stale on-disk measurement.
            if stored_key not in self._store:
                self._insert_loaded(stored_key, _record_result(record))
        if requested is not None and key not in self._store:
            self._insert_loaded(key, _record_result(requested))
        return True

    def _reread_single_key(self, key: str, shard_id: str) -> bool:
        """Recover one evicted entry from an already-seen shard.

        Only runs for shards that have actually lost entries to eviction
        (:attr:`_evicted_shards`), so a brand-new key's miss costs no disk
        work unless the cache is churning its shard.  Only the requested
        key is inserted -- re-importing the whole shard into a tightly
        capped cache would evict most of the working set to answer one
        lookup.  Entries that were ``put()`` after the last save and then
        evicted are genuinely gone (the store never saw them); the caller
        re-executes those, which is always sound.
        """
        if shard_id not in self._evicted_shards:
            return False
        shard_path = self._shard_path(self._attached_store, shard_id)
        entries = _read_entry_table(shard_path)
        if entries is None:
            return False
        record = entries.get(_escape_key(key))
        if record is None:
            return False
        self.shard_rereads += 1
        self._insert_loaded(key, _record_result(record))
        return True

    def _is_own_store(self, target: str) -> bool:
        """Is ``target`` the store this cache's disk bookkeeping describes?

        The dirty-shard set says "these shards differ from the *attached*
        store" -- entries faulted in from it are deliberately not dirty.
        Saving anywhere else must therefore write every in-memory shard,
        or the faulted-in entries would silently be missing from the copy.
        With no store attached, ``persist_path`` is the reference: every
        in-memory entry not from disk was ``put()`` and marked dirty.
        """
        reference = (
            self._attached_store
            if self._attached_store is not None
            else self.persist_path
        )
        if reference is None:
            return False
        return os.path.abspath(target) == os.path.abspath(reference)

    @staticmethod
    def _shard_path(store: str, shard_id: str) -> str:
        return os.path.join(store, _SHARDS_DIR, f"{shard_id}.json")

    @staticmethod
    def _read_meta(store: str) -> Optional[Dict[str, Any]]:
        path = os.path.join(store, _META_NAME)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                meta = json.load(handle)
            if (
                not isinstance(meta, dict)
                or meta.get("store_version") != _STORE_VERSION
                or not isinstance(meta.get("shards"), dict)
            ):
                return None
            return meta
        except (OSError, ValueError):
            return None

    def _write_meta(self, store: str, counts: Dict[str, int]) -> None:
        """Merge shard entry counts into the store manifest (atomically)."""
        meta = self._read_meta(store) or {
            "store_version": _STORE_VERSION,
            "prefix_len": _SHARD_PREFIX_LEN,
            "shards": {},
        }
        meta["shards"].update(counts)
        _atomic_write_json(os.path.join(store, _META_NAME), meta)

    def stats(self) -> Dict[str, int]:
        """Hit/miss/eviction counters plus the current size."""
        info = {
            "entries": len(self._store),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
        if self._attached_store is not None:
            info["shards_loaded"] = len(self._seen_shards)
            if self.shard_rereads:
                info["shard_rereads"] = self.shard_rereads
        return info

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
