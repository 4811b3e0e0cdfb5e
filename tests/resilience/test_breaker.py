"""Tests for the serving circuit breaker (injected clock, no sleeping)."""

import pytest

from repro.resilience.breaker import CircuitBreaker


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make(threshold=3, recovery=10.0):
    clock = FakeClock()
    breaker = CircuitBreaker(
        failure_threshold=threshold, recovery_timeout=recovery, clock=clock
    )
    return breaker, clock


def trip(breaker, threshold=3):
    for _ in range(threshold):
        breaker.record_failure()


class TestValidation:
    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)


class TestClosed:
    def test_starts_closed_and_allows(self):
        breaker, _ = make()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_success_resets_failure_streak(self):
        breaker, _ = make(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED  # streak never hit 3

    def test_opens_at_threshold(self):
        breaker, _ = make(threshold=3)
        trip(breaker)
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert breaker.opened_total == 1


class TestRecovery:
    def test_half_open_after_timeout(self):
        breaker, clock = make(recovery=10.0)
        trip(breaker)
        clock.advance(9.9)
        assert not breaker.allow()
        clock.advance(0.2)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()

    def test_half_open_admits_bounded_trials(self):
        breaker, clock = make()
        trip(breaker)
        clock.advance(11.0)
        assert breaker.allow()  # the one trial
        clock.advance(100.0)
        assert not breaker.allow()  # no second trial while it runs
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_success()
        assert breaker.allow()

    def test_trial_success_closes(self):
        breaker, clock = make()
        trip(breaker)
        clock.advance(11.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_trial_failure_reopens_and_restarts_clock(self):
        breaker, clock = make(recovery=10.0)
        trip(breaker)
        clock.advance(11.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opened_total == 2
        clock.advance(9.0)
        assert not breaker.allow()  # the recovery clock restarted
        clock.advance(2.0)
        assert breaker.allow()


class TestSnapshot:
    def test_snapshot_fields(self):
        breaker, _ = make(threshold=2)
        breaker.record_failure()
        snapshot = breaker.snapshot()
        assert snapshot == {
            "state": "closed",
            "consecutive_failures": 1,
            "opened_total": 0,
        }
