"""Deterministic fault injection behind named sites.

Production code is instrumented with *fault sites* -- cheap, named check
points (:func:`maybe_fail`) that are no-ops unless a chaos run has
activated a :class:`FaultPlan`.
A plan is declarative: each :class:`FaultSpec` names a site, a trigger
(the site's nth call, or a seeded per-call probability), and an action.
Everything that decides whether a fault fires is a pure function of the
plan -- per-site call counters and a per-site ``random.Random`` seeded
from ``(plan.seed, site)`` -- so replaying the same plan against the same
workload injects the same faults, bit for bit.

Known sites (grep for the literals to find the instrumented code):

========================  ====================================================
``cache.save``            a run-cache save, before its transaction writes
``serve.execute``         the serving event loop about to answer a request
``runtime.chunk``         a runtime chunk boundary, after the chunk's runs
                          are saved (the kill point of a crash test)
========================  ====================================================

Actions: ``raise`` (raise :class:`FaultError`, an ``OSError``), ``delay``
(sleep ``delay_seconds``), ``kill`` (SIGKILL the current process -- a
crash, not an exception).

Every site runs in the process that activated the plan -- the runtime's
parent process or the server's event-loop thread, never a pool worker --
so :func:`fault_scope` installs the injector process-globally, where pool
threads see it too.
"""

from __future__ import annotations

import json
import os
import random
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterator, List, Optional

_ACTIONS = ("raise", "delay", "kill")

#: The JSON type of each field a fault record may carry.
_RECORD_TYPES: Dict[str, Any] = dict(
    site=str, action=str, nth=int, probability=(int, float), count=int,
    delay_seconds=(int, float), match=str,
)


class FaultError(OSError):
    """Raised by a fault site executing a ``raise`` action.

    Subclasses ``OSError`` so I/O handlers (the run-cache store, say) treat
    an injected fault exactly like the real I/O error it stands in for.
    """

    def __init__(self, site: str) -> None:
        super().__init__(f"injected fault at {site!r} (action=raise)")
        self.site = site


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault: where, when, and what.

    Args:
        site: fault-site name (see module docstring).
        action: one of ``raise``/``delay``/``kill``.
        nth: fire on the site's nth call (1-based).  Mutually exclusive
            with ``probability``.
        probability: fire each call with this seeded probability.
        count: maximum number of fires (``None`` = unlimited for
            probability triggers; ``nth`` triggers always fire once).
        delay_seconds: sleep length for ``delay`` actions.
        match: only consider calls whose detail string (e.g. the store
            path of a cache save) contains this substring.
    """

    site: str
    action: str = "raise"
    nth: Optional[int] = None
    probability: Optional[float] = None
    count: Optional[int] = None
    delay_seconds: float = 0.05
    match: Optional[str] = None

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")
        if (self.nth is None) == (self.probability is None):
            raise ValueError("exactly one of nth/probability must be set")
        if self.nth is not None and self.nth < 1:
            raise ValueError("nth is 1-based and must be >= 1")
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")

    def to_record(self) -> Dict[str, Any]:
        """The fields that are set (``delay_seconds`` only for a delay)."""
        record = {name: value for name, value in asdict(self).items() if value is not None}
        if self.action != "delay":
            del record["delay_seconds"]
        return record

    @classmethod
    def from_record(cls, record: Any) -> "FaultSpec":
        """Invert :meth:`to_record`; a missing, unknown or mistyped field
        raises ``ValueError`` naming it."""
        if not isinstance(record, dict) or "site" not in record:
            raise ValueError(f"fault {record!r} has no 'site' field")
        for name, value in record.items():
            kind = _RECORD_TYPES.get(name)
            if kind is None:
                raise ValueError(f"unknown fault field {name!r}")
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"fault field {name!r} has a bad value {value!r}")
        return cls(**record)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of :class:`FaultSpec` driving one chaos run."""

    faults: List[FaultSpec] = field(default_factory=list)
    seed: int = 0

    def to_json(self) -> str:
        return json.dumps(
            {"seed": self.seed, "faults": [spec.to_record() for spec in self.faults]},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, payload: str) -> "FaultPlan":
        """Invert :meth:`to_json`; malformed JSON or a missing, unknown or
        mistyped field raises ``ValueError`` naming it."""
        data = json.loads(payload)
        if not isinstance(data, dict) or set(data) - {"faults", "seed"}:
            raise ValueError("a plan must be a JSON object with only 'faults' and 'seed'")
        faults, seed = data.get("faults", []), data.get("seed", 0)
        if not isinstance(faults, list):
            raise ValueError(f"plan field 'faults' must be a list, got {faults!r}")
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ValueError(f"plan field 'seed' must be an integer, got {seed!r}")
        return cls(faults=[FaultSpec.from_record(record) for record in faults], seed=seed)

    def digest(self) -> str:
        """Stable content digest of the plan (for invariant reports)."""
        import hashlib

        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()[:16]


class FaultInjector:
    """Evaluates a :class:`FaultPlan` against live fault-site calls.

    Thread-safe: per-site call counters and RNGs are guarded by a lock, so
    sites may be hit concurrently from pool threads.  Counters are
    per-injector, which is what makes ``nth`` triggers deterministic for
    single-threaded sites.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._calls: Dict[str, int] = {}
        self._fires: Dict[int, int] = {}
        self._rngs: Dict[str, random.Random] = {}
        self.fired: Dict[str, int] = {}

    def _rng(self, site: str) -> random.Random:
        rng = self._rngs.get(site)
        if rng is None:
            rng = random.Random(f"{self.plan.seed}:{site}")
            self._rngs[site] = rng
        return rng

    def check(self, site: str, detail: Optional[str] = None) -> Optional[FaultSpec]:
        """Record one call at ``site``; return the spec that fires, if any."""
        with self._lock:
            calls = self._calls.get(site, 0) + 1
            self._calls[site] = calls
            for index, spec in enumerate(self.plan.faults):
                if spec.site != site:
                    continue
                if spec.match is not None and (detail is None or spec.match not in detail):
                    continue
                fires = self._fires.get(index, 0)
                if spec.nth is not None:
                    # Fires at call nth, then (given a count > 1) every nth
                    # calls after that, up to the count cap.
                    limit = spec.count if spec.count is not None else 1
                    if fires >= limit or calls % spec.nth != 0:
                        continue
                elif spec.probability is not None:
                    if spec.count is not None and fires >= spec.count:
                        continue
                    if self._rng(site).random() >= spec.probability:
                        continue
                self._fires[index] = fires + 1
                self.fired[site] = self.fired.get(site, 0) + 1
                return spec
        return None

    def snapshot(self) -> Dict[str, Any]:
        """Diagnostics: per-site call and fire counts (not deterministic
        across schedules for multi-threaded sites; report them separately
        from compared invariants)."""
        with self._lock:
            return {"calls": dict(self._calls), "fired": dict(self.fired)}


#: The injector of the active :func:`fault_scope`, or None.
_process_injector: Optional[FaultInjector] = None


@contextmanager
def fault_scope(plan: FaultPlan) -> Iterator[FaultInjector]:
    """Activate ``plan`` for the dynamic extent of a with-block.

    Installs the injector process-globally (so pool threads see it) and
    restores the prior one on exit.
    """
    global _process_injector
    previous = _process_injector
    injector = _process_injector = FaultInjector(plan)
    try:
        yield injector
    finally:
        _process_injector = previous


def maybe_fail(site: str, detail: Optional[str] = None) -> None:
    """Record one call at ``site`` and apply the action that fires, if any:
    raise :class:`FaultError`, sleep, or SIGKILL this process."""
    injector = _process_injector
    if injector is None:
        return
    spec = injector.check(site, detail)
    if spec is None:
        return
    if spec.action == "raise":
        raise FaultError(site)
    if spec.action == "delay":
        time.sleep(spec.delay_seconds)
    elif spec.action == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
