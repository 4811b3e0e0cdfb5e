"""Fault injection for the adaptation loop.

A retrain that raises, or that produces a worse model, must leave the old
model serving, count the failure in telemetry, and never publish partial
state -- the registry entry after a failed retrain is the *same immutable
snapshot* that was serving before it.
"""

import numpy as np
import pytest

from repro.adaptation import RetrainConfig, Retrainer
from repro.adaptation import retrainer as retrainer_module
from repro.core.classifiers import (
    CandidateClassifier,
    ClassifierDescription,
    DatasetPredictions,
)
from repro.runtime import RunCache, Runtime
from repro.runtime.executors import SerialExecutor
from repro.serving.registry import ModelRegistry


class WorstLandmarkClassifier(CandidateClassifier):
    """Adversarial candidate: always picks the slowest landmark per row."""

    def __init__(self) -> None:
        super().__init__(
            ClassifierDescription(
                name="worst_landmark", method="adversarial", feature_names=()
            )
        )

    def fit(self, dataset, rows, labels):
        return self

    def predict_rows(self, dataset, rows):
        rows = np.asarray(rows, dtype=int)
        labels = np.argmax(dataset.times[rows], axis=1)
        return DatasetPredictions(
            labels=labels, extraction_costs=np.zeros(rows.size)
        )

    def classify_input(self, program_input, features):
        return 0, 0.0


class _FakeProduction:
    def __init__(self, classifier):
        self.classifier = classifier


class _FakeLevel2Result:
    def __init__(self, classifier):
        self.production = _FakeProduction(classifier)


@pytest.fixture()
def adaptation_setup(sort_training):
    """A registry serving the session-trained sort model, plus a window."""
    runtime = Runtime(executor=SerialExecutor(), cache=RunCache())
    registry = ModelRegistry()
    training = sort_training["training"]
    variant = sort_training["variant"]
    registry.publish("sort2", training.deployed)
    window = variant.benchmark.generate_inputs(12, variant.variant, seed=99)
    retrainer = Retrainer(
        variant.benchmark.program,
        registry,
        "sort2",
        config=RetrainConfig(
            n_clusters=2, tuner_generations=1, tuner_population=4, max_subsets=8
        ),
        runtime=runtime,
    )
    try:
        yield {
            "runtime": runtime,
            "registry": registry,
            "retrainer": retrainer,
            "window": window,
        }
    finally:
        runtime.close()


def counters(runtime: Runtime) -> dict:
    return runtime.stats()["telemetry"]["counters"]


class TestRetrainRaises:
    def test_pipeline_error_keeps_old_model(self, adaptation_setup, monkeypatch):
        registry = adaptation_setup["registry"]
        before = registry.get("sort2")

        def explode(*args, **kwargs):
            raise RuntimeError("tuner crashed mid-flight")

        monkeypatch.setattr(retrainer_module, "run_level1", explode)
        outcome = adaptation_setup["retrainer"].retrain_on_inputs(
            adaptation_setup["window"]
        )
        assert not outcome.swapped
        assert outcome.reason == "failed: tuner crashed mid-flight"
        after = registry.get("sort2")
        assert after is before  # the very same immutable snapshot
        assert after.version == 1
        stats = counters(adaptation_setup["runtime"])
        assert stats["adapt_retrain_failures"] == 1
        assert "adapt_swaps" not in stats

    def test_too_small_window_is_contained(self, adaptation_setup):
        registry = adaptation_setup["registry"]
        before = registry.get("sort2")
        outcome = adaptation_setup["retrainer"].retrain_on_inputs(
            adaptation_setup["window"][:2]
        )
        assert not outcome.swapped
        assert outcome.reason.startswith("failed:")
        assert "at least 4" in outcome.reason
        assert registry.get("sort2") is before
        assert counters(adaptation_setup["runtime"])["adapt_retrain_failures"] == 1


class TestWorseModelRejected:
    def test_worse_candidate_never_swaps(self, adaptation_setup, monkeypatch):
        registry = adaptation_setup["registry"]
        before = registry.get("sort2")

        def worse_level2(dataset, train_rows, test_rows, **kwargs):
            return _FakeLevel2Result(WorstLandmarkClassifier())

        monkeypatch.setattr(retrainer_module, "run_level2", worse_level2)
        outcome = adaptation_setup["retrainer"].retrain_on_inputs(
            adaptation_setup["window"]
        )
        assert not outcome.swapped
        assert outcome.reason == "rejected"
        # The validation guard measured the adversary as strictly worse.
        assert outcome.new_cost > outcome.old_cost
        assert registry.get("sort2") is before
        assert registry.get("sort2").version == 1
        stats = counters(adaptation_setup["runtime"])
        assert stats["adapt_retrains_rejected"] == 1
        assert "adapt_swaps" not in stats
        assert "adapt_retrain_failures" not in stats

    def test_equal_candidate_is_rejected_too(self, adaptation_setup, monkeypatch):
        # The incumbent resubmitted as "new" scores identically -- and a
        # swap needs strict improvement, so nothing is published.
        registry = adaptation_setup["registry"]
        incumbent = registry.get("sort2").deployed.classifier

        def same_level2(dataset, train_rows, test_rows, **kwargs):
            return _FakeLevel2Result(incumbent)

        monkeypatch.setattr(retrainer_module, "run_level2", same_level2)
        outcome = adaptation_setup["retrainer"].retrain_on_inputs(
            adaptation_setup["window"]
        )
        assert not outcome.swapped
        assert outcome.reason == "rejected"
        assert outcome.new_cost == outcome.old_cost
        assert registry.get("sort2").version == 1


class TestSuccessfulSwapBookkeeping:
    def test_swap_counts_and_versions(self, adaptation_setup):
        registry = adaptation_setup["registry"]
        outcome = adaptation_setup["retrainer"].retrain_on_inputs(
            adaptation_setup["window"]
        )
        stats = counters(adaptation_setup["runtime"])
        assert stats["adapt_retrains"] == 1
        if outcome.swapped:
            assert registry.get("sort2").version == 2
            assert stats["adapt_swaps"] == 1
            assert outcome.new_cost < outcome.old_cost
        else:
            # A genuine retrain may legitimately fail to beat the incumbent
            # on an in-distribution window; the invariant is no partial swap.
            assert registry.get("sort2").version == 1
            assert outcome.reason == "rejected"
            assert stats["adapt_retrains_rejected"] == 1


class TestRetrainLevel1:
    def test_one_level1_run_starts_from_the_serving_landmarks(
        self, adaptation_setup, monkeypatch
    ):
        """The serving landmarks lead the window dataset's columns, so the
        serving classifier's labels index the same configurations there."""
        serving = list(adaptation_setup["registry"].get("sort2").deployed.landmarks)
        calls = []
        run_level1 = retrainer_module.run_level1

        def recording_run_level1(*args, **kwargs):
            calls.append(kwargs)
            return run_level1(*args, **kwargs)

        monkeypatch.setattr(retrainer_module, "run_level1", recording_run_level1)
        window = adaptation_setup["window"]
        outcome = adaptation_setup["retrainer"].retrain_on_inputs(window)
        assert len(calls) == 1
        assert list(calls[0]["landmarks"]) == serving
        assert outcome.dataset.landmarks[: len(serving)] == serving
        assert outcome.landmarks_before == len(serving)
        assert outcome.landmarks_after == len(outcome.dataset.landmarks)
        assert outcome.window_size == outcome.dataset.features.shape[0] == len(window)

    def test_retrain_is_timed_as_one_level1_and_one_level2(self, adaptation_setup):
        adaptation_setup["retrainer"].retrain_on_inputs(adaptation_setup["window"])
        phases = adaptation_setup["runtime"].telemetry.phases
        assert phases["adapt.level1"].calls == 1
        assert phases["adapt.level2"].calls == 1
        for stage in ("features", "cluster", "tune", "measure"):
            assert phases[f"level1.{stage}"].calls == 1
        for stage in ("features", "cluster", "tune", "measure"):
            assert f"adapt.{stage}" not in phases
