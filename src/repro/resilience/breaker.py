"""Circuit breaker guarding serving-side executions.

Standard three-state breaker.  *Closed* passes executions through and
counts consecutive failures; at ``failure_threshold`` it *opens* and
:meth:`CircuitBreaker.allow` answers False -- the server stops attempting
executions and serves degraded responses instead.  After
``recovery_timeout`` seconds the breaker goes *half-open*: it admits one
trial execution at a time; a success closes it, a failure re-opens it (and
restarts the recovery clock).

Thread-safe (the serving layer happens to call it from its event-loop
thread only).  The clock is injectable so tests drive state transitions
without sleeping.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict


class CircuitBreaker:
    """Consecutive-failure circuit breaker with timed half-open recovery."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        failure_threshold: int = 5,
        recovery_timeout: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.recovery_timeout = recovery_timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._trial_inflight = False
        self.opened_total = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._effective_state()

    def _effective_state(self) -> str:
        # Lock held.  Open flips to half-open lazily, on observation.
        if (
            self._state == self.OPEN
            and self._clock() - self._opened_at >= self.recovery_timeout
        ):
            self._state = self.HALF_OPEN
            self._trial_inflight = False
        return self._state

    def allow(self) -> bool:
        """May the caller attempt an execution right now?

        In half-open state this *admits* the caller as the one trial; later
        callers are refused until that trial reports an outcome.
        """
        with self._lock:
            state = self._effective_state()
            if state == self.CLOSED:
                return True
            if state == self.OPEN or self._trial_inflight:
                return False
            self._trial_inflight = True
            return True

    def record_success(self) -> None:
        with self._lock:
            state = self._effective_state()
            self._consecutive_failures = 0
            if state == self.HALF_OPEN:
                self._state = self.CLOSED

    def record_failure(self) -> None:
        with self._lock:
            state = self._effective_state()
            self._consecutive_failures += 1
            if state == self.HALF_OPEN or (
                state == self.CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._state = self.OPEN
                self._opened_at = self._clock()
                self.opened_total += 1

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "state": self._effective_state(),
                "consecutive_failures": self._consecutive_failures,
                "opened_total": self.opened_total,
            }
