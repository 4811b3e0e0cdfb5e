"""End-to-end drift-scenario tests: the adaptation loop's acceptance bar.

The scripted ``sort-shift`` scenario must, deterministically: stay quiet
through the steady phase, trip the monitor after the mixture shift,
retrain and hot-swap a validated model, and strictly reduce the shifted
tail's selector regret versus the frozen (no-adaptation) baseline -- with
the whole replay bit-identical across the serial and process executors.
"""

import numpy as np
import pytest

from repro.adaptation import (
    MixtureInputSource,
    MixturePhase,
    SCENARIOS,
    get_scenario,
    replay_scenario,
    sort_drift_scenario,
)
from repro.adaptation.scenarios import SORT_FAMILIES
from repro.core.pipeline import InputAwareLearning
from repro.runtime import RunCache, Runtime
from repro.runtime.executors import ProcessExecutor, SerialExecutor


class TestMixtureInputSource:
    def make_source(self, seed=0, name="mix"):
        phases = [
            MixturePhase(8, {"uniform_random": 1.0}),
            MixturePhase(12, {"heavy_duplicates": 0.7, "reverse_sorted": 0.3}),
        ]
        return MixtureInputSource(phases, SORT_FAMILIES, seed=seed, name=name)

    def test_length_and_phase_bounds(self):
        source = self.make_source()
        assert len(source) == 20
        assert source.phase_bounds() == [(0, 8), (8, 20)]
        assert source.phase_of(0) == 0
        assert source.phase_of(7) == 0
        assert source.phase_of(8) == 1
        assert source.phase_of(19) == 1
        with pytest.raises(IndexError):
            source.phase_of(20)

    def test_materialization_is_pure(self):
        source = self.make_source()
        for index in (0, 7, 8, 19):
            np.testing.assert_array_equal(
                source.materialize(index), self.make_source().materialize(index)
            )

    def test_access_order_does_not_matter(self):
        forward = [self.make_source().materialize(i) for i in range(20)]
        backward = [self.make_source().materialize(i) for i in reversed(range(20))]
        for a, b in zip(forward, reversed(backward)):
            np.testing.assert_array_equal(a, b)

    def test_name_and_seed_namespace_streams(self):
        base = self.make_source().materialize(3)
        other_seed = self.make_source(seed=1).materialize(3)
        other_name = self.make_source(name="other").materialize(3)
        assert not (
            base.shape == other_seed.shape and np.array_equal(base, other_seed)
        )
        assert not (
            base.shape == other_name.shape and np.array_equal(base, other_name)
        )

    def test_single_family_phase_draws_that_family(self):
        source = MixtureInputSource(
            [MixturePhase(6, {"sorted_ascending": 1.0})], SORT_FAMILIES, seed=0
        )
        for i in range(6):
            data = source.materialize(i)
            assert np.all(np.diff(data) >= 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            MixtureInputSource([], SORT_FAMILIES)
        with pytest.raises(KeyError, match="unknown families"):
            MixtureInputSource(
                [MixturePhase(2, {"nonexistent": 1.0})], SORT_FAMILIES
            )
        with pytest.raises(ValueError):
            MixturePhase(2, {})
        with pytest.raises(ValueError):
            MixturePhase(2, {"uniform_random": -1.0})
        with pytest.raises(ValueError):
            MixturePhase(-1, {"uniform_random": 1.0})


class TestScenarioRegistry:
    def test_sort_shift_registered(self):
        assert "sort-shift" in SCENARIOS
        scenario = get_scenario("sort-shift", scale="small", seed=7)
        assert scenario.test == "sort2"
        assert scenario.seed == 7

    def test_unknown_names_raise(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("nope")
        with pytest.raises(KeyError, match="unknown scale"):
            sort_drift_scenario("galactic")

    def test_scales_grow(self):
        small = sort_drift_scenario("small")
        large = sort_drift_scenario("large")
        assert len(large.serving_source()) > len(small.serving_source())
        assert large.n_training > small.n_training


@pytest.fixture(scope="module")
def small_replay():
    """One serial replay of the small sort-shift scenario, shared below."""
    runtime = Runtime(executor=SerialExecutor(), cache=RunCache())
    try:
        return replay_scenario(sort_drift_scenario("small", seed=0), runtime)
    finally:
        runtime.close()


class TestSortShiftReplay:
    def test_steady_phase_stays_quiet(self, small_replay):
        steady_end = small_replay.phase_bounds[0][1]
        for event in small_replay.adapted.drift_events:
            if event["at"] <= steady_end:
                assert not event["drifted"]

    def test_shift_trips_monitor(self, small_replay):
        assert small_replay.adapted.drift_trips >= 1
        shifted_start = small_replay.phase_bounds[-1][0]
        trip_points = [
            e["at"] for e in small_replay.adapted.drift_events if e["drifted"]
        ]
        assert trip_points and all(at > shifted_start for at in trip_points)

    def test_retrain_hot_swaps_validated_model(self, small_replay):
        swaps = [s for s in small_replay.adapted.swaps if s["swapped"]]
        assert len(swaps) >= 1
        for swap in swaps:
            assert swap["new_cost"] < swap["old_cost"]
            assert swap["landmarks_after"] >= swap["landmarks_before"]
        assert small_replay.adapted.final_version == 1 + len(swaps)
        assert small_replay.adapted.retrains_failed == 0

    def test_frozen_pass_never_adapts(self, small_replay):
        assert small_replay.frozen.swaps == []
        assert small_replay.frozen.final_version == 1
        assert small_replay.frozen.drift_checks == 0

    def test_adaptation_strictly_reduces_shifted_regret(self, small_replay):
        assert small_replay.regret_adapted_shifted < small_replay.regret_frozen_shifted
        assert small_replay.shifted_improvement > 0
        # Regret against the hindsight-best fixed landmark cannot go negative
        # for the frozen selector on its own training mixture's landmarks.
        assert small_replay.regret_frozen_shifted > 0

    def test_feedback_log_covers_the_stream(self, small_replay):
        assert small_replay.adapted.feedback.total_appended == small_replay.n_requests

    def test_frozen_pass_keeps_no_feedback(self, small_replay):
        """Nothing reads the frozen pass's log, so it extracts no features."""
        assert small_replay.frozen.feedback.total_appended == 0

    def test_report_json_is_self_consistent(self, small_replay):
        payload = small_replay.to_json()
        assert payload["regret"]["shifted_improvement"] == pytest.approx(
            payload["regret"]["frozen_shifted"] - payload["regret"]["adapted_shifted"]
        )
        assert len(payload["adapted"]["served_costs"]) == payload["n_requests"]
        assert payload["adapted"]["served_cost_total"] == pytest.approx(
            sum(payload["adapted"]["served_costs"])
        )


class TestReplayTraining:
    def test_initial_model_is_trained_once_per_replay(self, small_replay, monkeypatch):
        """Both serving passes start from one trained model; the frozen pass
        does not train it again."""
        fits = []
        fit = InputAwareLearning.fit

        def counting_fit(self, *args, **kwargs):
            fits.append(args[0].name)
            return fit(self, *args, **kwargs)

        monkeypatch.setattr(InputAwareLearning, "fit", counting_fit)
        runtime = Runtime(executor=SerialExecutor(), cache=RunCache())
        try:
            report = replay_scenario(sort_drift_scenario("small", seed=0), runtime)
        finally:
            runtime.close()
        assert fits == ["sort"]
        assert report.digest() == small_replay.digest()

    def test_training_is_timed_apart_from_both_passes(self):
        runtime = Runtime(executor=SerialExecutor(), cache=RunCache())
        try:
            replay_scenario(sort_drift_scenario("small", seed=0), runtime)
        finally:
            runtime.close()
        phases = runtime.telemetry.phases
        for name in ("adapt.replay.train", "adapt.replay.adapted", "adapt.replay.frozen"):
            assert phases[name].calls == 1


class TestReplayDeterminism:
    def test_serial_and_process_replays_are_bit_identical(self, small_replay):
        runtime = Runtime(executor=ProcessExecutor(workers=2), cache=RunCache())
        try:
            pooled = replay_scenario(sort_drift_scenario("small", seed=0), runtime)
            assert "executor_fallback" not in runtime.stats()
        finally:
            runtime.close()
        assert pooled.digest() == small_replay.digest()
        assert pooled.to_json() == small_replay.to_json()

    def test_repeat_serial_replay_is_bit_identical(self, small_replay):
        runtime = Runtime(executor=SerialExecutor(), cache=RunCache())
        try:
            again = replay_scenario(sort_drift_scenario("small", seed=0), runtime)
        finally:
            runtime.close()
        assert again.digest() == small_replay.digest()
