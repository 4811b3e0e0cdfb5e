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
    DriftMonitor,
    MixtureInputSource,
    MixturePhase,
    Retrainer,
    SCENARIOS,
    get_scenario,
    replay_scenario,
    sort_drift_scenario,
)
from repro.adaptation.scenarios import (
    SORT_FAMILIES,
    _serve_stream,
    _train_initial_model,
)
from repro.core.pipeline import InputAwareLearning
from repro.lang.features import FeatureSet
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

    def test_only_the_adapted_pass_extracts_features(self, monkeypatch):
        """The drift window reads one feature vector per adapted request;
        nothing reads the frozen pass's, so it extracts none."""
        calls = []
        extract_vector = FeatureSet.extract_vector

        def counting_extract_vector(self, value):
            calls.append(value)
            return extract_vector(self, value)

        monkeypatch.setattr(FeatureSet, "extract_vector", counting_extract_vector)
        scenario = sort_drift_scenario("small", seed=0)
        runtime = Runtime(executor=SerialExecutor(), cache=RunCache())
        try:
            training = _train_initial_model(scenario, runtime)
            assert calls == []
            _serve_stream(scenario, runtime, training, adapt=True)
            assert len(calls) == len(scenario.serving_source())
            calls.clear()
            _serve_stream(scenario, runtime, training, adapt=False)
        finally:
            runtime.close()
        assert calls == []

    def test_training_is_timed_apart_from_both_passes(self):
        runtime = Runtime(executor=SerialExecutor(), cache=RunCache())
        try:
            replay_scenario(sort_drift_scenario("small", seed=0), runtime)
        finally:
            runtime.close()
        phases = runtime.telemetry.phases
        for name in ("adapt.replay.train", "adapt.replay.adapted", "adapt.replay.frozen"):
            assert phases[name].calls == 1


@pytest.fixture(scope="module")
def recorded_adapted_pass():
    """One adapted pass of the small scenario, recording every matrix the
    monitor checks, every window a retrain runs on and every reference a
    swap hands back to the monitor."""
    checked, retrained, references = [], [], []
    check = DriftMonitor.check
    notify_retrained = DriftMonitor.notify_retrained
    retrain_on_inputs = Retrainer.retrain_on_inputs

    def recording_check(self, live):
        checked.append(np.array(live, copy=True))
        return check(self, live)

    def recording_notify_retrained(self, reference=None):
        references.append(np.array(reference, copy=True))
        return notify_retrained(self, reference)

    def recording_retrain_on_inputs(self, inputs):
        retrained.append(list(inputs))
        return retrain_on_inputs(self, inputs)

    scenario = sort_drift_scenario("small", seed=0)
    runtime = Runtime(executor=SerialExecutor(), cache=RunCache())
    try:
        training = _train_initial_model(scenario, runtime)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(DriftMonitor, "check", recording_check)
            patch.setattr(DriftMonitor, "notify_retrained", recording_notify_retrained)
            patch.setattr(Retrainer, "retrain_on_inputs", recording_retrain_on_inputs)
            served = _serve_stream(scenario, runtime, training, adapt=True)
    finally:
        runtime.close()
    return {
        "scenario": scenario,
        "program": training.deployed.program,
        "served": served,
        "checked": checked,
        "retrained": retrained,
        "references": references,
    }


class TestReplayWindow:
    """The adapted pass keeps one window: the last ``drift.window`` served
    requests.  The monitor checks their feature vectors and a retrain runs
    on their inputs."""

    def test_each_check_sees_the_features_of_the_last_window(
        self, recorded_adapted_pass
    ):
        scenario = recorded_adapted_pass["scenario"]
        program = recorded_adapted_pass["program"]
        stream = scenario.serving_source()
        events = recorded_adapted_pass["served"].drift_events
        checked = recorded_adapted_pass["checked"]
        assert len(checked) == len(events) > 0
        for event, matrix in zip(events, checked):
            at = event["at"]
            start = max(0, at - scenario.drift.window)
            expected = np.asarray(
                [
                    program.features.extract_vector(stream.materialize(i))[0]
                    for i in range(start, at)
                ]
            )
            assert matrix.shape == (at - start, program.features.num_features())
            np.testing.assert_array_equal(matrix, expected)

    def test_each_retrain_runs_on_the_last_window_of_inputs(
        self, recorded_adapted_pass
    ):
        scenario = recorded_adapted_pass["scenario"]
        stream = scenario.serving_source()
        swaps = recorded_adapted_pass["served"].swaps
        retrained = recorded_adapted_pass["retrained"]
        assert len(retrained) == len(swaps) > 0
        for swap, inputs in zip(swaps, retrained):
            at = swap["at"]
            assert at >= scenario.drift.window
            assert len(inputs) == scenario.drift.window
            for offset, served_input in enumerate(inputs):
                np.testing.assert_array_equal(
                    served_input,
                    stream.materialize(at - scenario.drift.window + offset),
                )

    def test_a_swap_makes_the_tripped_window_the_new_reference(
        self, recorded_adapted_pass
    ):
        """After a swap the monitor compares against the very window it
        found drifted, which the new model was trained on."""
        events = recorded_adapted_pass["served"].drift_events
        checked_at = {
            event["at"]: matrix
            for event, matrix in zip(events, recorded_adapted_pass["checked"])
        }
        swapped = [s for s in recorded_adapted_pass["served"].swaps if s["swapped"]]
        references = recorded_adapted_pass["references"]
        assert len(references) == len(swapped) > 0
        for swap, reference in zip(swapped, references):
            np.testing.assert_array_equal(reference, checked_at[swap["at"]])


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

    def test_small_replay_matches_the_recorded_digest(self, small_replay):
        """Any change to the feature pipeline, drift statistics, retrainer
        or serving path that moves one served cost moves this digest."""
        assert small_replay.digest() == (
            "f3a8924980087d5ad932e3b087f46809f891cd47a0b36ee80aca746c6ece0d21"
        )

    def test_repeat_serial_replay_is_bit_identical(self, small_replay):
        runtime = Runtime(executor=SerialExecutor(), cache=RunCache())
        try:
            again = replay_scenario(sort_drift_scenario("small", seed=0), runtime)
        finally:
            runtime.close()
        assert again.digest() == small_replay.digest()


class TestLargeScenario:
    def test_large_replay_adapts_and_pays_off(self):
        """The large scenario is a different script: 48 training inputs, a
        224-request stream and a 64-request drift window."""
        runtime = Runtime(executor=SerialExecutor(), cache=RunCache())
        try:
            report = replay_scenario(sort_drift_scenario("large", seed=0), runtime)
        finally:
            runtime.close()
        assert report.adapted.drift_trips >= 1
        swaps = [s for s in report.adapted.swaps if s["swapped"]]
        assert len(swaps) >= 1
        assert report.adapted.retrains_failed == 0
        assert report.adapted.final_version == 1 + len(swaps)
        assert report.frozen.final_version == 1
        assert report.regret_adapted_shifted < report.regret_frozen_shifted
        assert report.shifted_improvement > 0
