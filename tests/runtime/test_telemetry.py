"""Tests for runtime telemetry counters, phase timers, and latency recorders."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import Telemetry
from repro.runtime.telemetry import LatencyRecorder


class TestLatencyRecorder:
    def test_percentiles_nearest_rank(self):
        recorder = LatencyRecorder()
        for ms in range(1, 101):  # 1ms .. 100ms
            recorder.record(ms / 1000)
        assert recorder.p50 == pytest.approx(0.050)
        assert recorder.p99 == pytest.approx(0.099)
        assert recorder.percentile(1.0) == pytest.approx(0.100)
        assert recorder.mean() == pytest.approx(0.0505)

    def test_single_sample(self):
        recorder = LatencyRecorder()
        recorder.record(0.25)
        assert recorder.p50 == recorder.p99 == 0.25

    def test_empty_is_zero(self):
        recorder = LatencyRecorder()
        assert recorder.p50 == 0.0
        assert recorder.mean() == 0.0

    def test_sample_cap_drops_but_counts(self):
        recorder = LatencyRecorder(max_samples=3)
        for _ in range(5):
            recorder.record(0.1)
        assert recorder.count == 5
        assert len(recorder.samples) == 3
        assert recorder.dropped == 2
        assert recorder.total_seconds == pytest.approx(0.5)
        assert recorder.snapshot()["dropped_samples"] == 2

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            LatencyRecorder(max_samples=0)
        recorder = LatencyRecorder()
        recorder.record(0.1)
        with pytest.raises(ValueError):
            recorder.percentile(1.5)


class TestCounters:
    def test_count_accumulates(self):
        telemetry = Telemetry()
        telemetry.count("runs_executed")
        telemetry.count("runs_executed", 4)
        assert telemetry.runs_executed == 5

    def test_hit_rate(self):
        telemetry = Telemetry()
        assert telemetry.hit_rate() == 0.0
        telemetry.count("runs_requested", 10)
        telemetry.count("cache_hits", 3)
        assert telemetry.hit_rate() == pytest.approx(0.3)


class TestPhases:
    def test_phase_records_calls_and_time(self):
        telemetry = Telemetry()
        with telemetry.phase("tune"):
            pass
        with telemetry.phase("tune"):
            pass
        stats = telemetry.phases["tune"]
        assert stats.calls == 2
        assert stats.seconds >= 0.0

    def test_phase_records_even_on_exception(self):
        telemetry = Telemetry()
        with pytest.raises(RuntimeError):
            with telemetry.phase("boom"):
                raise RuntimeError("x")
        assert telemetry.phases["boom"].calls == 1


class TestSnapshot:
    def test_snapshot_shape(self):
        telemetry = Telemetry()
        telemetry.count("runs_requested", 4)
        telemetry.count("cache_hits", 1)
        with telemetry.phase("p"):
            pass
        snapshot = telemetry.snapshot()
        assert snapshot["counters"]["runs_requested"] == 4
        assert snapshot["phases"]["p"]["calls"] == 1
        assert snapshot["hit_rate"] == pytest.approx(0.25)

    def test_record_latency_and_snapshot(self):
        telemetry = Telemetry()
        telemetry.record_latency("serve.selection", 0.010)
        telemetry.record_latency("serve.selection", 0.030)
        snapshot = telemetry.snapshot()
        view = snapshot["latencies"]["serve.selection"]
        assert view["count"] == 2
        assert view["mean_seconds"] == pytest.approx(0.020)

    def test_snapshot_omits_latencies_when_unused(self):
        assert "latencies" not in Telemetry().snapshot()


class TestPercentileProperties:
    """Hypothesis properties of the nearest-rank percentile.

    The recorder promises: every percentile is an actual sample (no
    interpolation), bounded by the extremes, monotone in the fraction,
    with p0 = min and p100 = max -- and the cap drops samples without
    losing the count or the running total.
    """

    latencies = st.lists(
        st.floats(
            min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
        ),
        min_size=1,
        max_size=200,
    )

    @given(samples=latencies, fraction=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_percentile_is_an_observed_sample_within_bounds(
        self, samples, fraction
    ):
        recorder = LatencyRecorder()
        for sample in samples:
            recorder.record(sample)
        value = recorder.percentile(fraction)
        assert min(samples) <= value <= max(samples)
        assert value in samples

    @given(
        samples=latencies,
        fraction_a=st.floats(min_value=0.0, max_value=1.0),
        fraction_b=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_percentile_is_monotone_in_fraction(
        self, samples, fraction_a, fraction_b
    ):
        recorder = LatencyRecorder()
        for sample in samples:
            recorder.record(sample)
        low, high = sorted((fraction_a, fraction_b))
        assert recorder.percentile(low) <= recorder.percentile(high)

    @given(samples=latencies)
    @settings(max_examples=100, deadline=None)
    def test_extreme_fractions_hit_min_and_max(self, samples):
        recorder = LatencyRecorder()
        for sample in samples:
            recorder.record(sample)
        assert recorder.percentile(0.0) == min(samples)
        assert recorder.percentile(1.0) == max(samples)

    @given(samples=latencies, fraction=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_nearest_rank_definition(self, samples, fraction):
        recorder = LatencyRecorder()
        for sample in samples:
            recorder.record(sample)
        ordered = sorted(samples)
        rank = min(max(1, math.ceil(fraction * len(ordered))), len(ordered))
        assert recorder.percentile(fraction) == ordered[rank - 1]

    @given(samples=latencies, cap=st.integers(min_value=1, max_value=64))
    @settings(max_examples=100, deadline=None)
    def test_cap_accounting_never_loses_events(self, samples, cap):
        recorder = LatencyRecorder(max_samples=cap)
        for sample in samples:
            recorder.record(sample)
        assert recorder.count == len(samples)
        assert len(recorder.samples) == min(cap, len(samples))
        assert recorder.dropped == max(0, len(samples) - cap)
        assert recorder.total_seconds == pytest.approx(sum(samples))
        # Percentiles summarize only the retained prefix.
        assert recorder.percentile(1.0) == max(samples[:cap])
