"""Tests for the crash-safe experiment checkpoint manifest."""

import json
import sqlite3

import pytest

from repro.lang.program import RunResult
from repro.resilience.checkpoint import (
    MANIFEST_VERSION,
    CheckpointMismatch,
    ExperimentCheckpoint,
    config_digest,
)
from repro.resilience.faults import FaultPlan, FaultSpec, fault_scope
from repro.runtime import RunCache


@pytest.fixture
def store(tmp_path):
    """Build caches on one store file; their connections close at teardown."""
    caches = []
    path = str(tmp_path / "store.db")

    def make():
        cache = RunCache(persist_path=path)
        caches.append(cache)
        return cache

    make.path = path
    yield make
    for cache in caches:
        cache.close()


def read_manifest(store):
    """The saved manifest, read through a fresh cache as a resumer would."""
    return ExperimentCheckpoint(store(), "unused").load()


def put_run(cache, key):
    cache.put(key, RunResult(output=None, time=1.0, accuracy=1.0, extra={}), has_output=False)


class TestConfigDigest:
    def test_stable_under_key_order(self):
        assert config_digest({"a": 1, "b": 2}) == config_digest({"b": 2, "a": 1})

    def test_differs_across_payloads(self):
        assert config_digest({"seed": 0}) != config_digest({"seed": 1})


class TestWriting:
    def test_set_phase_creates_manifest_in_fresh_store(self, store):
        checkpoint = ExperimentCheckpoint(store(), "digest-a")  # no file yet
        checkpoint.set_phase("train")
        manifest = read_manifest(store)
        assert manifest["version"] == MANIFEST_VERSION
        assert manifest["config"] == "digest-a"
        assert manifest["phase"] == "train"
        assert manifest["interrupted"] is True
        assert manifest["completed_chunks"] == []

    def test_chunk_completed_saves_cache_then_records(self, store):
        cache = store()
        checkpoint = ExperimentCheckpoint(cache, "d")
        for chunk in range(3):
            put_run(cache, f"run:{chunk}")
            checkpoint.chunk_completed()
        manifest = read_manifest(store)
        assert manifest["completed_chunks"] == [0, 1, 2]
        assert manifest["interrupted"] is True
        reader = store()
        reader.load()
        assert all(reader.get(f"run:{chunk}") is not None for chunk in range(3))

    def test_manifest_and_runs_commit_together(self, store):
        """A failed chunk save writes neither the chunk's runs nor the
        manifest that records it; the next save writes both."""
        cache = store()
        checkpoint = ExperimentCheckpoint(cache, "d")
        put_run(cache, "run:0")
        checkpoint.chunk_completed()
        put_run(cache, "run:1")
        plan = FaultPlan(faults=[FaultSpec(site="cache.save", action="raise", nth=1)])
        with fault_scope(plan, env=False), pytest.warns(UserWarning, match="unsaved"):
            checkpoint.chunk_completed()
        assert read_manifest(store)["completed_chunks"] == [0]
        reader = store()
        reader.load()
        assert reader.get("run:1") is None
        put_run(cache, "run:2")
        checkpoint.chunk_completed()
        assert read_manifest(store)["completed_chunks"] == [0, 1, 2]
        assert reader.get("run:1") is not None and reader.get("run:2") is not None

    def test_finish_clears_interrupted(self, store):
        checkpoint = ExperimentCheckpoint(store(), "d")
        checkpoint.chunk_completed()
        checkpoint.finish()
        assert read_manifest(store)["interrupted"] is False


class TestResume:
    def test_resume_without_manifest_is_none(self, store):
        checkpoint = ExperimentCheckpoint(store(), "d")
        assert checkpoint.resume() is None
        assert checkpoint.resumed_from is None

    def test_resume_adopts_matching_manifest(self, store):
        first = ExperimentCheckpoint(store(), "same")
        first.set_phase("train")
        first.chunk_completed()
        second = ExperimentCheckpoint(store(), "same")
        manifest = second.resume()
        assert manifest is not None
        assert manifest["completed_chunks"] == [0]
        assert second.resumed_from == manifest

    def test_resume_refuses_other_experiments_manifest(self, store):
        ExperimentCheckpoint(store(), "one").set_phase("train")
        with pytest.raises(CheckpointMismatch):
            ExperimentCheckpoint(store(), "two").resume()

    @staticmethod
    def overwrite_manifest(store, body):
        ExperimentCheckpoint(store(), "d").set_phase("train")
        db = sqlite3.connect(store.path)
        with db:
            db.execute("UPDATE manifest SET body = ?", (body,))
        db.close()

    def test_corrupt_manifest_reads_as_missing(self, store):
        self.overwrite_manifest(store, "not json{{")
        assert ExperimentCheckpoint(store(), "d").load() is None

    def test_unknown_version_reads_as_missing(self, store):
        self.overwrite_manifest(
            store, json.dumps({"version": MANIFEST_VERSION + 1, "config": "d"})
        )
        assert ExperimentCheckpoint(store(), "d").load() is None
