"""Deterministic resilience toolkit: fault injection, breakers, chaos.

The modules here give the system one vocabulary for "things going wrong":

* :mod:`~repro.resilience.faults` -- a seeded, declarative fault-injection
  harness.  Production code declares *sites* (``cache.save``,
  ``serve.execute``, ...); a chaos run activates a :class:`FaultPlan` that
  fires raise/delay/kill actions at chosen calls, bit-for-bit
  reproducibly.
* :mod:`~repro.resilience.breaker` -- :class:`CircuitBreaker` guarding
  serving-side executions.
* :mod:`~repro.resilience.chaos` -- the harness behind ``repro chaos``:
  runs an experiment or a loadgen trace under a fault plan and reports
  which system-level invariants held.

A killed experiment needs nothing from this package to resume: a runtime
with a store saves its runs at every chunk boundary, so running the same
command again on the same ``--cache-path`` recalls them.  Nor do the
system's two retries, each written where it happens: the process executor
resubmits a batch once on a rebuilt pool, and the serving client retries
a refused connect with backoff.
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

__all__ = [
    "CircuitBreaker",
    "FaultError",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "fault_scope",
    "maybe_fail",
]
