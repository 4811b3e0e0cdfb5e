"""Execution strategies for batched program runs.

An executor takes a program and a batch of ``(configuration, input)`` tasks
and returns one :class:`~repro.lang.program.RunResult` per task, in task
order.  Because every run in this reproduction is a pure function of its
task (deterministic cost model, per-run seeded RNGs, per-run cost counters
held in context variables), the two strategies are interchangeable:

* :class:`SerialExecutor` -- the default; runs tasks in a plain loop and is
  the bit-identical reference behaviour.
* :class:`ProcessExecutor` -- a process pool for genuine parallelism.  The
  program is shipped to workers once per pool (not per task), tasks travel
  in leases of several, and a measurement lease answers with one pickled
  ``(2, n)`` float64 block instead of a result object per run.  If the
  program or a task cannot be pickled, the batch transparently falls back
  to serial execution and the executor records that it did so.
"""

from __future__ import annotations

import concurrent.futures
import math
import os
import pickle
import threading
import time
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.lang.config import Configuration
from repro.lang.program import PetaBricksProgram, RunResult

#: A single unit of work: run the program with this configuration on this input.
Task = Tuple[Configuration, Any]

#: A generic unit of work: ``(callable, positional args, keyword args)``.
CallTask = Tuple[Any, Tuple[Any, ...], dict]


@dataclass(frozen=True)
class SharedRef:
    """Placeholder for a large argument shipped to workers once per pool.

    A call batch whose tasks all carry the same big object (the Level-2
    dataset, say) would otherwise re-pickle that object once per chunk.
    Instead the caller passes the object in the batch's ``shared`` mapping
    and puts a ``SharedRef(token)`` in each task's arguments; executors
    substitute the real object at invocation time.  The process executor
    installs the mapping in every worker through the pool initializer --
    exactly how ``run_batch`` already ships the program -- so the object
    crosses the process boundary once per pool, not once per chunk.

    Refs are resolved in top-level positional and keyword arguments only;
    a ref nested inside another container is passed through untouched.
    """

    token: str


def _substitute_shared(call: CallTask, shared: Dict[str, Any]) -> CallTask:
    """Replace top-level :class:`SharedRef` arguments with their objects."""
    fn, args, kwargs = call
    if not any(isinstance(a, SharedRef) for a in args) and not any(
        isinstance(v, SharedRef) for v in kwargs.values()
    ):
        return call
    args = tuple(shared[a.token] if isinstance(a, SharedRef) else a for a in args)
    kwargs = {
        k: shared[v.token] if isinstance(v, SharedRef) else v
        for k, v in kwargs.items()
    }
    return (fn, args, kwargs)


def _invoke_call(call: CallTask) -> Any:
    """Execute one generic call task (module-level so process pools can ship it).

    In a pool worker, :class:`SharedRef` arguments resolve against the
    mapping the pool initializer installed; in the parent process the
    executors substitute refs before invoking, so the worker-side lookup
    only ever sees refs when the registry holds them.
    """
    fn, args, kwargs = _substitute_shared(call, _WORKER_SHARED)
    return fn(*args, **kwargs)


def _call_chunksize(n_calls: int, workers: int) -> int:
    """Lease size (items per message) for a batch sent to pool workers.

    Large batches target four chunks per worker (load balancing); small
    batches (at most ``workers * 4`` calls) target one chunk per worker
    instead of degenerating to chunksize 1, which would re-pickle any
    shared chunk content once per call.

    The small-batch size is ``n_calls // workers`` (floored, min 1), never
    ``ceil``: rounding the chunk *size* up rounds the chunk *count* down,
    and a batch like 5 calls on 4 workers would ship as 3 chunks of 2 --
    stranding a worker idle while another queues two chunks.  Flooring
    guarantees at least ``min(n_calls, workers)`` chunks, so every worker
    gets one chunk before any worker gets a second.
    """
    if n_calls <= 0:
        return 1
    target_chunks = workers * 4
    if n_calls > target_chunks:
        return max(1, math.ceil(n_calls / target_chunks))
    return max(1, n_calls // max(1, workers))


def _default_workers() -> int:
    return max(1, os.cpu_count() or 1)


class BaseExecutor:
    """Interface shared by all execution strategies."""

    #: Short strategy name used in flags and telemetry.
    name: str = "base"

    def run_batch(
        self, program: PetaBricksProgram, tasks: Sequence[Task]
    ) -> List[RunResult]:
        """Execute every task and return results in task order."""
        raise NotImplementedError

    def run_calls(
        self,
        calls: Sequence[CallTask],
        shared: Optional[Dict[str, Any]] = None,
    ) -> List[Any]:
        """Execute a batch of generic ``(fn, args, kwargs)`` calls, in order.

        The generalized-task counterpart of :meth:`run_batch`: the calls
        must be pure functions of their arguments, and results come back in
        submission order whatever the execution strategy.

        ``shared`` maps :class:`SharedRef` tokens to the (large) objects the
        calls reference; see :class:`SharedRef` for the contract.
        """
        raise NotImplementedError

    def stats(self) -> Dict[str, Any]:
        """Executor state for ``Runtime.stats()``; empty when there is none."""
        return {}

    def close(self) -> None:
        """Release any pooled resources (idempotent)."""

    def __enter__(self) -> "BaseExecutor":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialExecutor(BaseExecutor):
    """Run tasks one after another in the calling thread."""

    name = "serial"

    def run_batch(
        self, program: PetaBricksProgram, tasks: Sequence[Task]
    ) -> List[RunResult]:
        return [program.run(config, program_input) for config, program_input in tasks]

    def run_calls(
        self,
        calls: Sequence[CallTask],
        shared: Optional[Dict[str, Any]] = None,
    ) -> List[Any]:
        if shared:
            calls = [_substitute_shared(call, shared) for call in calls]
        return [_invoke_call(call) for call in calls]


# -- process-pool plumbing ----------------------------------------------
#
# The worker receives the program and the shared-argument registry once via
# the pool initializer and keeps them in module globals; leases then only
# carry (configuration, input) tasks or (fn, args-with-refs, kwargs) calls.

_WORKER_PROGRAM: Optional[PetaBricksProgram] = None

#: Shared-argument registry installed by the pool initializer; parent-side
#: executors substitute refs before invoking, so this stays empty there.
_WORKER_SHARED: Dict[str, Any] = {}


def _exit_when_orphaned(parent_pid: int) -> None:
    """End this pool worker once the process that started it is gone.

    A parent killed by a signal never shuts its pool down, and its workers
    would idle on forever, reparented, holding whatever the parent shared
    with them (its stdout pipe, say).  Reparenting changes ``getppid()``.
    """
    while os.getppid() == parent_pid:
        time.sleep(0.5)
    os._exit(1)


def _process_worker_init(
    program: Optional[PetaBricksProgram], shared: Optional[Dict[str, Any]] = None
) -> None:
    global _WORKER_PROGRAM, _WORKER_SHARED
    _WORKER_PROGRAM = program
    _WORKER_SHARED = shared or {}
    threading.Thread(
        target=_exit_when_orphaned, args=(os.getppid(),), daemon=True
    ).start()


def _measure_tasks(program: PetaBricksProgram, tasks: Sequence[Task]) -> np.ndarray:
    """Run ``tasks``, returning a ``(2, n)`` float64 block of times and accuracies."""
    block = np.empty((2, len(tasks)), dtype=np.float64)
    for index, (config, program_input) in enumerate(tasks):
        result = program.run(config, program_input)
        block[0, index] = result.time
        block[1, index] = result.accuracy
    return block


def _process_worker_measure(tasks: Sequence[Task]) -> np.ndarray:
    """One measurement lease in a pool worker, run by the installed program."""
    assert _WORKER_PROGRAM is not None, "worker pool used before initialization"
    return _measure_tasks(_WORKER_PROGRAM, tasks)


def _process_worker_calls(calls: Sequence[CallTask]) -> List[Any]:
    """One lease of generic call tasks in a pool worker."""
    return [_invoke_call(call) for call in calls]


class ProcessExecutor(BaseExecutor):
    """Run tasks on a process pool, falling back to serial when pickling fails.

    Every batch travels in leases of :func:`_call_chunksize` items, one
    pickled message per lease each way.  Program runs answer as
    measurements (:meth:`run_measure`): a ``(2, n)`` float64 block per
    lease instead of a result object, and program output, per run.

    Args:
        workers: pool size; defaults to the CPU count.

    Attributes:
        fallback_reason: why the latest batch that ended on serial did so:
            the program or its tasks could not be pickled, or the pool broke
            again on the resubmission.  None while every batch has run on
            the pool, including batches that recovered from one break.
        retry_counters: ``retry_attempts`` (pool submissions),
            ``retry_retries`` (resubmissions after a break),
            ``retry_recoveries`` (resubmissions that succeeded) and
            ``retry_giveups`` (batches that broke twice and ran serially).

    Both surface through :meth:`stats` as ``executor_fallback`` and
    ``retries`` once set.
    """

    name = "process"

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = workers or _default_workers()
        self.fallback_reason: Optional[str] = None
        self.retry_counters: Counter[str] = Counter()
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None
        self._pool_program: Optional[PetaBricksProgram] = None
        #: Shared-argument registry the live pool's workers were initialized
        #: with.  Holding the real objects (not just ids) keeps them alive,
        #: so identity comparisons against new batches stay meaningful.
        self._pool_shared: Dict[str, Any] = {}

    def _pool_holding(
        self,
        program: Optional[PetaBricksProgram],
        shared: Optional[Dict[str, Any]],
    ) -> concurrent.futures.ProcessPoolExecutor:
        """A live pool whose workers hold ``program`` and ``shared``.

        None for either accepts what the live pool holds: generic calls
        ignore the program, and measurements ignore the registry.  A
        mismatch rebuilds the pool and keeps the other half, except that a
        program switch means a new experiment, whose pool starts with an
        empty registry.
        """
        if (
            self._pool is not None
            and (program is None or program is self._pool_program)
            and (not shared or self._shared_matches(shared))
        ):
            return self._pool
        program = self._pool_program if program is None else program
        shared = {} if shared is None else shared
        self._shutdown_pool()
        self._pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_process_worker_init,
            initargs=(program, shared),
        )
        self._pool_program = program
        self._pool_shared = shared
        return self._pool

    def _shared_matches(self, shared: Dict[str, Any]) -> bool:
        current = self._pool_shared
        return all(
            token in current and current[token] is value
            for token, value in shared.items()
        )

    def _lease_map(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        serial: Callable[[Any], Any],
        program: Optional[PetaBricksProgram] = None,
        shared: Optional[Dict[str, Any]] = None,
    ) -> List[Any]:
        """Apply ``fn`` to leases of ``items`` on the pool; one answer per lease.

        The pool's one fallback ladder.  A pickle probe of the first item
        (and of a program the pool does not hold yet) sends an unshippable
        batch -- a closure, say -- to ``serial`` before anything is
        submitted; batches are homogeneous in practice, so the probe
        decides.  A broken pool is torn down and the batch resubmitted
        once on a rebuilt pool, whose initializer re-registers the program
        and shared arguments (runs and calls are pure, so re-execution is
        sound); a second break also ends on ``serial``.
        """
        size = _call_chunksize(len(items), self.workers)
        leases = [items[start : start + size] for start in range(0, len(items), size)]
        counters = self.retry_counters
        try:
            pickle.dumps(items[0])
            if program is not None and program is not self._pool_program:
                pickle.dumps(program)
        except Exception as error:
            reason = f"batch not picklable: {type(error).__name__}"
        else:
            for attempt in (1, 2):
                counters["retry_attempts"] += 1
                submitted = False
                try:
                    answers = self._pool_holding(program, shared).map(fn, leases)
                    submitted = True
                    answers = list(answers)
                except (pickle.PicklingError, TypeError, AttributeError) as error:
                    # Submission is eager (workers spawn there and, under a
                    # spawn start method, pickle their initializer), so an
                    # error before it completes is transport.  Once results
                    # flow, only a genuine PicklingError is: a task's own
                    # TypeError must propagate, not trigger a serial re-run.
                    if submitted and not isinstance(error, pickle.PicklingError):
                        raise
                    reason = f"batch not picklable: {type(error).__name__}"
                    break
                except BrokenProcessPool as error:
                    # Tear the dead pool down so the resubmission rebuilds
                    # it: one dead worker costs a respawn, not every later
                    # batch.
                    self._shutdown_pool()
                    reason = f"process pool broke: {error}"
                    if attempt == 2:
                        counters["retry_giveups"] += 1
                        break
                    counters["retry_retries"] += 1
                    continue
                if attempt == 2:
                    counters["retry_recoveries"] += 1
                return answers
        self.fallback_reason = reason
        return [serial(lease) for lease in leases]

    def run_calls(
        self,
        calls: Sequence[CallTask],
        shared: Optional[Dict[str, Any]] = None,
    ) -> List[Any]:
        if not calls:
            return []
        shared = shared or {}
        # Leasing matters beyond message overhead: a lease is pickled as one
        # object, so large arguments shared by its calls cross the process
        # boundary once per lease instead of once per call, via the pickle
        # memo.  (Registry-shared arguments do even better: they ride the
        # pool initializer and cross once per pool.)
        leases = self._lease_map(
            _process_worker_calls,
            calls,
            serial=lambda lease: SerialExecutor().run_calls(lease, shared=shared),
            shared=shared,
        )
        return [value for lease in leases for value in lease]

    def run_batch(
        self, program: PetaBricksProgram, tasks: Sequence[Task]
    ) -> List[RunResult]:
        """Results without program outputs, as the measurement cache keeps them."""
        times, accuracies = self.run_measure(program, tasks)
        return [
            RunResult(output=None, time=seconds, accuracy=accuracy)
            for seconds, accuracy in zip(times.tolist(), accuracies.tolist())
        ]

    def run_measure(
        self, program: PetaBricksProgram, tasks: Sequence[Task]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Execute program runs, returning their ``(times, accuracies)`` arrays.

        The pool's only program-run transport: a measurement needs just the
        two floats of each run, so each lease answers with one pickled
        ``(2, n)`` float64 block.
        """
        if not tasks:
            return np.empty(0), np.empty(0)
        blocks = self._lease_map(
            _process_worker_measure,
            tasks,
            serial=lambda lease: _measure_tasks(program, lease),
            program=program,
        )
        block = np.concatenate(blocks, axis=1)
        return block[0], block[1]

    def stats(self) -> Dict[str, Any]:
        info: Dict[str, Any] = {}
        if self.fallback_reason:
            info["executor_fallback"] = self.fallback_reason
        if self.retry_counters:
            info["retries"] = dict(self.retry_counters)
        return info

    def _shutdown_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._pool_program = None
            self._pool_shared = {}

    def close(self) -> None:
        self._shutdown_pool()

    def __repr__(self) -> str:
        return f"ProcessExecutor(workers={self.workers})"


#: Registered executor strategies, keyed by flag value.
EXECUTORS = {
    "serial": SerialExecutor,
    "process": ProcessExecutor,
}


def get_executor(spec: str = "serial", workers: Optional[int] = None) -> BaseExecutor:
    """Build an executor from a flag value.

    Accepts ``"serial"`` or ``"process"``; ``workers`` sizes the pool
    (ignored by ``serial``).
    """
    name = spec.strip().lower() or "serial"
    if name not in EXECUTORS:
        raise ValueError(
            f"unknown executor {spec!r}; available: {sorted(EXECUTORS)}"
        )
    if name == "serial":
        return SerialExecutor()
    return EXECUTORS[name](workers=workers)
