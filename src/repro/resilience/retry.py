"""The system's one retry/backoff implementation.

:class:`RetryPolicy` replaces the hand-rolled ``for retry in (False, True)``
loops that used to live in the process executor and the serving client.  A
policy is a small immutable value: max attempts, exponential backoff with
*deterministic* jitter (seeded from the policy seed and the attempt number,
never the wall clock), an optional overall deadline, and the exception
classes worth retrying.

Call sites use :meth:`RetryPolicy.run`::

    policy.run(connect, retryable=(OSError,), counters=telemetry.counters)

``counters`` is any plain mapping (e.g. ``Telemetry.counters``); the policy
increments ``retry_attempts`` / ``retry_retries`` / ``retry_recoveries`` /
``retry_giveups`` in it, so every layer reports retries with one vocabulary.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple, Type


class RetryError(Exception):
    """Raised when a policy's deadline expires with a non-retryable state.

    The normal give-up path re-raises the *last underlying error* so callers
    keep their existing except clauses; RetryError only surfaces for
    misconfiguration (e.g. ``fn`` never raised but a deadline of zero).
    """


def _count(counters: Optional[Dict[str, int]], name: str) -> None:
    if counters is not None:
        counters[name] = counters.get(name, 0) + 1


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with deterministic exponential backoff.

    Args:
        max_attempts: total tries, including the first (>= 1).
        base_delay: backoff before the first retry, in seconds.
        multiplier: backoff growth factor per retry.
        max_delay: per-sleep cap in seconds.
        deadline: overall budget in seconds measured from the first attempt;
            a retry whose sleep would land past the deadline gives up early.
        jitter: +/- fraction applied to each sleep, drawn from a
            ``random.Random`` seeded by ``(seed, attempt)`` -- deterministic
            across runs, decorrelated across attempts.
        seed: jitter seed.
        retryable: default exception classes worth retrying (a call-site
            ``retryable=`` argument overrides).
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    deadline: Optional[float] = None
    jitter: float = 0.1
    seed: int = 0
    retryable: Tuple[Type[BaseException], ...] = (OSError,)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be a fraction in [0, 1]")

    def backoff_delay(self, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (1-based), jitter applied."""
        raw = min(self.max_delay, self.base_delay * (self.multiplier ** (attempt - 1)))
        if self.jitter == 0.0 or raw == 0.0:
            return raw
        rng = random.Random(f"{self.seed}:{attempt}")
        return raw * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))

    def run(
        self,
        fn: Callable[[], Any],
        *,
        retryable: Optional[Tuple[Type[BaseException], ...]] = None,
        before_retry: Optional[Callable[[BaseException, int], None]] = None,
        counters: Optional[Dict[str, int]] = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> Any:
        """Call ``fn`` under this policy and return its result.

        Non-retryable exceptions propagate immediately.  A retryable one is
        re-raised as-is once attempts or the deadline run out, so callers'
        existing ``except`` clauses keep working.  ``before_retry(error,
        attempt)`` runs before each retry -- the hook where the process
        executor rebuilds its broken pool; an exception there aborts the
        retry loop.
        """
        classes = self.retryable if retryable is None else retryable
        start = clock()
        attempt = 0
        while True:
            attempt += 1
            _count(counters, "retry_attempts")
            try:
                result = fn()
            except classes as error:
                if attempt >= self.max_attempts:
                    _count(counters, "retry_giveups")
                    raise
                delay = self.backoff_delay(attempt)
                if self.deadline is not None and clock() - start + delay > self.deadline:
                    _count(counters, "retry_giveups")
                    raise
                _count(counters, "retry_retries")
                if before_retry is not None:
                    before_retry(error, attempt)
                if delay > 0:
                    sleep(delay)
                continue
            if attempt > 1:
                _count(counters, "retry_recoveries")
            return result

    def wait_for(
        self,
        fn: Callable[[], Any],
        *,
        counters: Optional[Dict[str, int]] = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> Any:
        """Poll ``fn`` until it returns a truthy value, under this policy.

        The test-suite replacement for ad-hoc ``while not ready: sleep()``
        loops: the same backoff/deadline math that governs production
        retries governs test waits.  Raises :class:`RetryError` when the
        policy gives up first.
        """
        start = clock()
        for attempt in range(1, self.max_attempts + 1):
            _count(counters, "retry_attempts")
            result = fn()
            if result:
                return result
            if attempt >= self.max_attempts:
                break
            delay = self.backoff_delay(attempt)
            if self.deadline is not None and clock() - start + delay > self.deadline:
                break
            sleep(delay)
        _count(counters, "retry_giveups")
        raise RetryError(f"condition not met after {self.max_attempts} attempts")
