"""Tests for the shared experiment runner."""

import warnings

import numpy as np
import pytest

from repro.experiments.runner import ExperimentConfig, run_experiment

#: A deliberately tiny configuration so experiment tests stay fast.
TINY = ExperimentConfig(
    n_inputs=28,
    n_clusters=4,
    tuner_generations=2,
    tuner_population=5,
    tuning_neighbors=2,
    max_subsets=12,
    seed=0,
)


@pytest.fixture(scope="module")
def sort_result():
    return run_experiment("sort2", TINY)


class TestRunExperiment:
    def test_all_methods_present(self, sort_result):
        assert set(sort_result.methods) == {
            "static_oracle",
            "dynamic_oracle",
            "two_level",
            "one_level",
        }

    def test_per_input_series_aligned_with_test_rows(self, sort_result):
        n_test = len(sort_result.test_rows)
        for outcome in sort_result.methods.values():
            assert outcome.times.shape == (n_test,)
            assert outcome.times_no_extraction.shape == (n_test,)

    def test_static_oracle_speedup_is_one(self, sort_result):
        assert sort_result.mean_speedup("static_oracle") == pytest.approx(1.0)

    def test_dynamic_oracle_dominates_every_method(self, sort_result):
        dynamic = sort_result.methods["dynamic_oracle"].times
        for name in ("static_oracle", "two_level", "one_level"):
            others = sort_result.methods[name].times_no_extraction
            assert np.all(dynamic <= others + 1e-9)

    def test_dynamic_oracle_mean_speedup_at_least_one(self, sort_result):
        assert sort_result.mean_speedup("dynamic_oracle") >= 1.0 - 1e-9

    def test_extraction_cost_only_hurts(self, sort_result):
        for name in ("two_level", "one_level"):
            with_cost = sort_result.mean_speedup(name, with_extraction=True)
            without_cost = sort_result.mean_speedup(name, with_extraction=False)
            assert with_cost <= without_cost + 1e-9

    def test_satisfaction_in_unit_interval(self, sort_result):
        for name in sort_result.methods:
            assert 0.0 <= sort_result.satisfaction(name) <= 1.0

    def test_sort_satisfaction_is_trivially_full(self, sort_result):
        """Sort is the fixed-accuracy benchmark: everything is accurate."""
        assert sort_result.satisfaction("two_level") == 1.0
        assert sort_result.satisfaction("one_level") == 1.0

    def test_unknown_test_name_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("bogus", TINY)

    def test_config_materialization(self):
        config = ExperimentConfig(n_clusters=7, tuner_generations=3, max_subsets=5)
        assert config.level1().n_clusters == 7
        assert config.level1().tuner_generations == 3
        assert config.level2().max_subsets == 5


class TestMemoryKnobDefaults:
    """The streaming/cap knobs and their environment overrides."""

    def test_defaults(self, monkeypatch):
        from repro.runtime import RunCache

        monkeypatch.delenv("REPRO_CACHE_MAX_ENTRIES", raising=False)
        monkeypatch.delenv("REPRO_STREAM_INPUTS", raising=False)
        config = ExperimentConfig()
        assert config.stream_inputs is True
        assert config.cache_max_entries == RunCache.DEFAULT_MAX_ENTRIES
        runtime = config.make_runtime()
        try:
            assert runtime.cache.max_entries == RunCache.DEFAULT_MAX_ENTRIES
        finally:
            runtime.close()

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "512")
        monkeypatch.setenv("REPRO_STREAM_INPUTS", "0")
        config = ExperimentConfig()
        assert config.cache_max_entries == 512
        assert config.stream_inputs is False

    def test_env_cap_zero_means_unbounded(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "0")
        assert ExperimentConfig().cache_max_entries is None

    def test_env_cap_malformed_warns_and_defaults(self, monkeypatch):
        from repro.runtime import RunCache

        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "lots")
        with pytest.warns(UserWarning, match="REPRO_CACHE_MAX_ENTRIES"):
            config = ExperimentConfig()
        assert config.cache_max_entries == RunCache.DEFAULT_MAX_ENTRIES

    @pytest.mark.parametrize("value", ["abc", "-1", "0"])
    def test_env_workers_malformed_warns_and_defaults(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_WORKERS", value)
        with pytest.warns(UserWarning, match="REPRO_WORKERS"):
            config = ExperimentConfig()
        assert config.workers is None

    @pytest.mark.parametrize("value", ["bogus", "thread"])
    def test_env_executor_unknown_warns_and_runs_serially(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_EXECUTOR", value)
        with pytest.warns(UserWarning, match="REPRO_EXECUTOR"):
            config = ExperimentConfig()
        assert config.executor == "serial"
        runtime = config.make_runtime()
        try:
            assert runtime.stats()["executor"] == "serial"
        finally:
            runtime.close()

    @pytest.mark.parametrize(
        "value, expected",
        [("serial", "serial"), ("process", "process"), (" Process ", "process"), ("", "serial")],
        ids=["serial", "process", "case-and-blanks", "empty"],
    )
    def test_env_executor_known_names_pass_silently(self, monkeypatch, value, expected):
        monkeypatch.setenv("REPRO_EXECUTOR", value)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            config = ExperimentConfig()
        assert config.executor == expected
        assert [w for w in caught if "REPRO_EXECUTOR" in str(w.message)] == []

    def test_env_executor_unset_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        assert ExperimentConfig().executor == "serial"

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_env_batch_chunk_malformed_warns_and_defaults(self, monkeypatch, value):
        from repro.runtime.runtime import DEFAULT_BATCH_CHUNK

        monkeypatch.setenv("REPRO_BATCH_CHUNK", value)
        with pytest.warns(UserWarning, match="REPRO_BATCH_CHUNK"):
            config = ExperimentConfig()
        assert config.batch_chunk is None
        runtime = config.make_runtime()
        try:
            assert runtime.batch_chunk == DEFAULT_BATCH_CHUNK
        finally:
            runtime.close()
