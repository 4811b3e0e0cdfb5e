"""Deterministic resilience toolkit: fault injection, retries, breakers.

The modules here give the system one vocabulary for "things going wrong":

* :mod:`~repro.resilience.faults` -- a seeded, declarative fault-injection
  harness.  Production code declares *sites* (``cache.save``,
  ``serve.execute``, ...); a chaos run activates a :class:`FaultPlan` that
  fires raise/delay/kill actions at chosen calls, bit-for-bit
  reproducibly.
* :mod:`~repro.resilience.retry` -- :class:`RetryPolicy`, the single
  retry/backoff implementation shared by the process executor's pool
  rebuilds and the serving client.
* :mod:`~repro.resilience.breaker` -- :class:`CircuitBreaker` guarding
  serving-side executions.
* :mod:`~repro.resilience.chaos` -- the harness behind ``repro chaos``:
  runs an experiment or a loadgen trace under a fault plan and reports
  which system-level invariants held.

A killed experiment needs nothing from this package to resume: a runtime
with a store saves its runs at every chunk boundary, so running the same
command again on the same ``--cache-path`` recalls them.
"""

from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import (
    FaultError,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    fault_scope,
    maybe_fail,
)
from repro.resilience.retry import RetryError, RetryPolicy

__all__ = [
    "CircuitBreaker",
    "FaultError",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "fault_scope",
    "maybe_fail",
    "RetryError",
    "RetryPolicy",
]
