"""Lightweight runtime telemetry: run counters and per-phase wall time.

The measurement runtime records how much work it actually did (runs
requested vs. executed vs. served from cache) and how long each named phase
of the pipeline took.  Telemetry is purely observational -- nothing in the
system changes behaviour based on it -- so it can be shared freely between
phases and experiments.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List


@dataclass
class PhaseStats:
    """Accumulated wall time of one named phase.

    Attributes:
        calls: how many times the phase ran.
        seconds: total wall-clock seconds across all calls.
    """

    calls: int = 0
    seconds: float = 0.0


class LatencyRecorder:
    """Per-event latency samples with percentile summaries.

    Phase timers (:class:`PhaseStats`) only accumulate totals, which is the
    right shape for pipeline stages but useless for a request-serving path
    where the *distribution* is the product (p50/p99 selection latency).
    A recorder keeps the individual samples -- bounded by ``max_samples``;
    past the cap new samples are dropped and counted, so a runaway server
    cannot grow memory without bound -- and summarizes them on demand.

    Percentiles use the nearest-rank method on a sorted copy, so ``p50`` of
    one sample is that sample and ``p99`` of 100 samples is the 99th.
    """

    def __init__(self, max_samples: int = 1_000_000) -> None:
        if max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        self.max_samples = int(max_samples)
        self.samples: List[float] = []
        #: Samples not retained because the cap was reached.
        self.dropped = 0
        #: Total events recorded (retained + dropped).
        self.count = 0
        self.total_seconds = 0.0

    def record(self, seconds: float) -> None:
        """Record one event's latency in seconds."""
        self.count += 1
        self.total_seconds += seconds
        if len(self.samples) >= self.max_samples:
            self.dropped += 1
            return
        self.samples.append(float(seconds))

    def percentile(self, fraction: float) -> float:
        """Nearest-rank percentile of the retained samples (0.0 when empty)."""
        if not self.samples:
            return 0.0
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        ordered = sorted(self.samples)
        rank = max(1, int(-(-fraction * len(ordered) // 1)))  # ceil, >= 1
        return ordered[min(rank, len(ordered)) - 1]

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)

    def mean(self) -> float:
        """Mean latency over all recorded events (0.0 when empty)."""
        return self.total_seconds / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, Any]:
        """A plain-dict summary suitable for reports and JSON."""
        return {
            "count": self.count,
            "mean_seconds": self.mean(),
            "p50_seconds": self.p50,
            "p99_seconds": self.p99,
            "dropped_samples": self.dropped,
        }

    def __repr__(self) -> str:
        return (
            f"LatencyRecorder(count={self.count}, "
            f"p50={self.p50:.6f}s, p99={self.p99:.6f}s)"
        )


@dataclass
class Telemetry:
    """Counters, phase timers, and latency recorders for one runtime.

    Attributes:
        counters: free-form named event counts (e.g. ``runs_executed``,
            ``cache_hits``).
        phases: wall-time accumulators keyed by phase name.
        latencies: per-event latency distributions keyed by name (used by
            the serving layer for request latency percentiles).
    """

    counters: Dict[str, int] = field(default_factory=dict)
    phases: Dict[str, PhaseStats] = field(default_factory=dict)
    latencies: Dict[str, LatencyRecorder] = field(default_factory=dict)

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the named counter."""
        self.counters[name] = self.counters.get(name, 0) + n

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time the enclosed block under ``name`` (accumulating)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            stats = self.phases.setdefault(name, PhaseStats())
            stats.calls += 1
            stats.seconds += time.perf_counter() - start

    def record_latency(self, name: str, seconds: float) -> None:
        """Record one event's latency under the named distribution."""
        recorder = self.latencies.get(name)
        if recorder is None:
            recorder = self.latencies.setdefault(name, LatencyRecorder())
        recorder.record(seconds)

    def add_seconds(self, name: str, seconds: float, calls: int = 1) -> None:
        """Fold already-measured wall time into the named phase.

        For work that cannot be wrapped in one :meth:`phase` block -- e.g.
        streamed input generation, whose cost is scattered across every
        chunk of a measurement batch and is timed at each materialization
        site instead.
        """
        stats = self.phases.setdefault(name, PhaseStats())
        stats.calls += calls
        stats.seconds += seconds

    @property
    def runs_requested(self) -> int:
        """Total program runs asked of the runtime (hits + executions)."""
        return self.counters.get("runs_requested", 0)

    @property
    def runs_executed(self) -> int:
        """Program runs that actually executed (cache misses)."""
        return self.counters.get("runs_executed", 0)

    @property
    def cache_hits(self) -> int:
        """Runs served from the cache."""
        return self.counters.get("cache_hits", 0)

    @property
    def tasks_requested(self) -> int:
        """Generalized tasks asked of the runtime."""
        return self.counters.get("tasks_requested", 0)

    @property
    def tasks_executed(self) -> int:
        """Generalized tasks that executed (every requested one)."""
        return self.counters.get("tasks_executed", 0)

    def hit_rate(self) -> float:
        """Fraction of requested runs served from cache (0.0 when idle)."""
        requested = self.runs_requested
        if requested <= 0:
            return 0.0
        return self.cache_hits / requested

    def snapshot(self) -> Dict[str, Any]:
        """A plain-dict view suitable for reports and JSON."""
        view: Dict[str, Any] = {
            "counters": dict(self.counters),
            "phases": {
                name: {"calls": stats.calls, "seconds": stats.seconds}
                for name, stats in self.phases.items()
            },
            "hit_rate": self.hit_rate(),
        }
        if self.latencies:
            view["latencies"] = {
                name: recorder.snapshot() for name, recorder in self.latencies.items()
            }
        return view
