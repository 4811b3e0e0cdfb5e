"""The measurement runtime: executor + run cache + telemetry.

:class:`Runtime` is the single entry point the rest of the system uses to
execute program runs.  It batches runs through a pluggable executor
(:mod:`repro.runtime.executors`), deduplicates identical
(program, configuration, input) runs through a content-keyed cache
(:mod:`repro.runtime.cache`), and records counters and phase timings
(:mod:`repro.runtime.telemetry`).

The default runtime (:func:`default_runtime`) is a cache-less serial
runtime, so call sites that do not opt in behave exactly like direct
``program.run`` loops -- bit-identical to the pre-runtime code.  Experiment
drivers construct caching/parallel runtimes explicitly (see
``ExperimentConfig.make_runtime``).
"""

from __future__ import annotations

import contextlib
import itertools
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.lang.config import Configuration
from repro.lang.program import PetaBricksProgram, RunResult
from repro.resilience.faults import maybe_fail
from repro.runtime.cache import RunCache
from repro.runtime.executors import BaseExecutor, CallTask, SerialExecutor, Task, get_executor
from repro.runtime.keys import config_key, input_key, join_run_key, program_key, run_key
from repro.runtime.telemetry import Telemetry

#: Chunk size when none is given.  It keeps every dispatch of the default
#: experiment scale whole (the largest, 240 inputs x 12 landmarks, is 2,880
#: runs), so only larger populations are split.
DEFAULT_BATCH_CHUNK = 4096


def _strip_output(result: RunResult) -> RunResult:
    """A copy of ``result`` without the program output (for measurement caching)."""
    if result.output is None:
        return result
    return RunResult(
        output=None, time=result.time, accuracy=result.accuracy, extra=result.extra
    )


class Runtime:
    """Shared execution runtime for all program measurements.

    Args:
        executor: execution strategy; defaults to :class:`SerialExecutor`.
        cache: run cache; ``None`` disables caching entirely (every request
            executes), which is the bit-identical legacy behaviour.
        batch_chunk: streaming chunk size; ``None`` means
            :data:`DEFAULT_BATCH_CHUNK`.  :meth:`run_pairs` /
            :meth:`measure` process batches in chunks of at most this many
            runs, bounding peak memory by O(chunk) instead of O(batch)
            while producing bit-identical results (chunks preserve
            enumeration order, and chunk-local cache fills stand in for
            whole-batch deduplication).
    """

    def __init__(
        self,
        executor: Optional[BaseExecutor] = None,
        cache: Optional[RunCache] = None,
        batch_chunk: Optional[int] = None,
    ) -> None:
        if batch_chunk is None:
            batch_chunk = DEFAULT_BATCH_CHUNK
        if batch_chunk < 1:
            raise ValueError("batch_chunk must be >= 1 or None")
        self.executor = executor if executor is not None else SerialExecutor()
        self.cache = cache
        self.telemetry = Telemetry()
        self.batch_chunk: int = batch_chunk

    @classmethod
    def create(
        cls,
        executor: str = "serial",
        workers: Optional[int] = None,
        use_cache: bool = True,
        max_entries: Optional[int] = RunCache.DEFAULT_MAX_ENTRIES,
        cache_path: Optional[str] = None,
        batch_chunk: Optional[int] = None,
    ) -> "Runtime":
        """Build a runtime from flag-style settings.

        When ``cache_path`` is given, the store at that database file is
        attached immediately (a missing file becomes a new store; a path
        holding anything else warns and runs cold); every chunk boundary
        saves the runs it added, and :meth:`save_cache` saves the rest.
        ``use_cache=False`` disables caching outright -- including any
        persisted store -- so every measurement demonstrably re-executes.
        ``batch_chunk`` sizes the streaming chunks (see the class
        docstring).  ``max_entries`` caps
        the in-memory run cache (``None`` = unbounded); the default keeps a
        50k-input experiment's cache at tens of MB -- see
        :attr:`RunCache.DEFAULT_MAX_ENTRIES` -- and with a store attached,
        saved entries remain reachable from disk after eviction.
        """
        cache: Optional[RunCache] = None
        if use_cache:
            cache = RunCache(max_entries=max_entries, persist_path=cache_path)
            if cache_path:
                cache.load()
        return cls(
            executor=get_executor(executor, workers=workers),
            cache=cache,
            batch_chunk=batch_chunk,
        )

    # -- execution ------------------------------------------------------

    def run(
        self,
        program: PetaBricksProgram,
        config: Configuration,
        program_input: Any,
        need_output: bool = False,
    ) -> RunResult:
        """Execute (or recall) a single run.

        Measurement callers leave ``need_output`` False and may receive a
        cached, output-free result; deployment-style callers pass True and
        are guaranteed a result carrying the program's real output.
        """
        result, _cache_hit = self.run_info(
            program, config, program_input, need_output=need_output
        )
        return result

    def run_info(
        self,
        program: PetaBricksProgram,
        config: Configuration,
        program_input: Any,
        need_output: bool = False,
    ) -> Tuple[RunResult, bool]:
        """Like :meth:`run`, but also report whether the result was recalled.

        Returns ``(result, cache_hit)``.  ``cache_hit`` is True only when
        the result came straight from the run cache without executing the
        program -- deployment callers (:class:`repro.core.pipeline.
        DeployedProgram`) use it to keep recall latency distinguishable from
        real execution in their statistics.  The result is bit-identical
        either way; only the provenance differs.

        It is :meth:`recall` then, on a miss, the run and :meth:`record`; a
        caller that runs the program elsewhere (the serving layer executes
        misses on a thread pool) calls the two halves itself.
        """
        key = run_key(program, config, program_input) if self.cache is not None else None
        cached = self.recall(key, need_output=need_output)
        if cached is not None:
            return cached, True
        result = program.run(config, program_input)
        return self.record(key, result, need_output=need_output), False

    def recall(self, key: Optional[str], need_output: bool = False) -> Optional[RunResult]:
        """The first half of :meth:`run_info`: count a requested run, recall it.

        Returns the cached result under ``key`` (a :func:`~repro.runtime.keys.
        run_key`), or None when the run must execute -- always None on a
        cache-less runtime, which ignores ``key``.  With ``need_output`` an
        output-free entry is a miss.  A caller that executes the run after a
        miss hands the result to :meth:`record`.
        """
        self.telemetry.count("runs_requested")
        if self.cache is None:
            return None
        cached = self.cache.get(key, need_output=need_output)
        if cached is not None:
            self.telemetry.count("cache_hits")
        return cached

    def record(
        self, key: Optional[str], result: RunResult, need_output: bool = False
    ) -> RunResult:
        """The second half of :meth:`run_info`: count an executed run, store it.

        Returns what the caller should see: ``result`` itself when
        ``need_output`` is set or nothing is cached, else the output-free
        copy that measurement callers get on a recall too.
        """
        self.telemetry.count("runs_executed")
        if self.cache is None:
            return result
        if not need_output:
            result = _strip_output(result)
        self.cache.put(key, result, has_output=need_output)
        return result

    def run_pairs(
        self, program: PetaBricksProgram, pairs: Iterable[Task]
    ) -> List[RunResult]:
        """Execute a batch of (configuration, input) tasks, in order.

        Cache hits are recalled, identical tasks within a dispatch execute
        once, and the remaining misses go through the executor.  The batch
        is dispatched in content-ordered chunks of :attr:`batch_chunk`
        tasks (see :meth:`iter_pairs`); results do not depend on the size.
        """
        return list(self.iter_pairs(program, pairs))

    def iter_pairs(
        self, program: PetaBricksProgram, pairs: Iterable[Task]
    ) -> Iterator[RunResult]:
        """Stream results for a batch of (configuration, input) tasks, in order."""
        for results in self._iter_dispatches(program, pairs):
            yield from results

    def _iter_dispatches(
        self, program: PetaBricksProgram, pairs: Iterable[Task]
    ) -> Iterator[List[RunResult]]:
        """Yield each dispatch unit's results, in order.

        The streaming core of :meth:`run_pairs` and :meth:`measure`:
        ``pairs`` is consumed lazily in chunks of at most :attr:`batch_chunk`
        tasks -- each chunk is cache-checked, dispatched, and folded into the
        cache before the next chunk is even built -- so a 50k x K1
        measurement matrix never exists as one in-memory task list.
        Enumeration order, and therefore every yielded result, is
        independent of the chunk size: duplicates that one larger dispatch
        would deduplicate in-batch are instead answered by the cache entries
        the earlier chunk just filled.
        """
        iterator = iter(pairs)
        while True:
            piece = list(itertools.islice(iterator, self.batch_chunk))
            if not piece:
                return
            self.telemetry.count("chunks_dispatched")
            yield self._dispatch_pairs(program, piece)
            self._chunk_completed()

    def _chunk_completed(self) -> None:
        """Chunk-boundary hook: save the chunk's runs, honor injected crashes.

        With a store attached, the runs put since the last save are written
        here, *before* the ``runtime.chunk`` fault site fires, so a run
        killed at a chunk boundary keeps every completed chunk's runs and
        resumes by running the same command again on the same store.
        """
        if self.cache is not None and self.cache.persist_path is not None:
            self.cache.save()
        maybe_fail("runtime.chunk")

    def _dispatch_pairs(
        self, program: PetaBricksProgram, pairs: Sequence[Task]
    ) -> List[RunResult]:
        """Cache-check and execute one dispatch unit (a chunk)."""
        self.telemetry.count("runs_requested", len(pairs))
        if self.cache is None:
            results = self.executor.run_batch(program, pairs)
            self.telemetry.count("runs_executed", len(pairs))
            return results

        keys = self._batch_keys(program, pairs)
        resolved: Dict[str, RunResult] = {}
        miss_keys: List[str] = []
        miss_tasks: List[Task] = []
        for key, task in zip(keys, pairs):
            if key in resolved:
                self.telemetry.count("cache_hits")
                continue
            cached = self.cache.get(key)
            if cached is not None:
                self.telemetry.count("cache_hits")
                resolved[key] = cached
                continue
            resolved[key] = None  # type: ignore[assignment]  # placeholder, filled below
            miss_keys.append(key)
            miss_tasks.append(task)

        if miss_tasks:
            executed = self.executor.run_batch(program, miss_tasks)
            self.telemetry.count("runs_executed", len(miss_tasks))
            for key, result in zip(miss_keys, executed):
                stripped = _strip_output(result)
                self.cache.put(key, stripped, has_output=False)
                resolved[key] = stripped
        return [resolved[key] for key in keys]

    @staticmethod
    def _batch_keys(program: PetaBricksProgram, pairs: Sequence[Task]) -> List[str]:
        """Run keys for a batch, hashing each distinct object only once.

        An N x K measurement matrix holds only K distinct configurations and
        N distinct inputs, so the program fingerprint is computed once and
        config/input digests are memoized by object identity instead of
        re-hashing full array content N*K times.
        """
        program_digest = program_key(program)
        config_digests: Dict[int, str] = {}
        input_digests: Dict[int, str] = {}
        keys: List[str] = []
        for config, program_input in pairs:
            ck = config_digests.get(id(config))
            if ck is None:
                ck = config_digests.setdefault(id(config), config_key(config))
            ik = input_digests.get(id(program_input))
            if ik is None:
                ik = input_digests.setdefault(id(program_input), input_key(program_input))
            keys.append(join_run_key(program_digest, ck, ik))
        return keys

    # -- generalized tasks ----------------------------------------------

    def run_tasks(
        self,
        calls: Sequence[CallTask],
        phase: Optional[str] = None,
        shared: Optional[Dict[str, Any]] = None,
    ) -> List[Any]:
        """Execute a batch of ``(fn, args, kwargs)`` calls, in order.

        The generalized counterpart of :meth:`run_pairs`: the whole batch
        goes to the executor's ``run_calls`` once, and every call executes.
        Results always come back in submission order, so callers see the
        exact sequence the equivalent serial loop would have produced --
        this is what keeps parallel searches (e.g. Level 2's classifier
        zoo) deterministic: candidates are compared in enumeration order,
        a key independent of completion order.

        Args:
            calls: the tasks.  Each must be a pure function of its
                arguments; under the process executor an unpicklable batch
                runs serially.
            phase: optional telemetry phase name timing this batch.
            shared: mapping of :class:`repro.runtime.SharedRef` tokens to
                the large objects the task arguments reference; shipped to
                process-pool workers once per pool instead of being
                re-pickled with every lease.
        """
        scope = self.telemetry.phase(phase) if phase else contextlib.nullcontext()
        with scope:
            self.telemetry.count("tasks_requested", len(calls))
            results = self.executor.run_calls(calls, shared=shared)
            self.telemetry.count("tasks_executed", len(calls))
            return results

    def measure(
        self,
        program: PetaBricksProgram,
        configs: Sequence[Configuration],
        inputs: Sequence[Any],
    ) -> Dict[str, np.ndarray]:
        """Run every configuration on every input; the paper's N x K matrix.

        Returns ``{"times": (n, k), "accuracies": (n, k)}`` with input rows
        and configuration columns, matching
        :func:`repro.core.level1.measure_performance`.

        The pair enumeration is lazy, *input-major* (all K configurations
        of input ``i`` before input ``i + 1``), and goes through the same
        chunked dispatch as :meth:`run_pairs` -- cache recall per cell,
        in-batch deduplication, misses to the executor -- whatever the
        executor.  Each dispatch folds into the output arrays with one
        slice assignment.  Input-major order matters for lazily generated
        inputs (:mod:`repro.core.inputs`): each input is materialized
        exactly once and shared by its K adjacent tasks, so a full matrix
        costs N materializations -- not N x K -- and only ~chunk/K inputs
        are ever in flight.
        The matrix itself (two ``(n, k)`` float arrays) is the only
        O(N x K) allocation.  Runs are pure functions of their content, so
        enumeration order never affects any value in the matrices.
        """
        n, k = len(inputs), len(configs)
        pairs = (
            (config, program_input) for program_input in inputs for config in configs
        )
        times = np.zeros((n, k))
        accuracies = np.zeros((n, k))
        flat_times = times.reshape(n * k)
        flat_accuracies = accuracies.reshape(n * k)
        start = 0
        for results in self._iter_dispatches(program, pairs):
            stop = start + len(results)
            flat_times[start:stop] = [result.time for result in results]
            flat_accuracies[start:stop] = [result.accuracy for result in results]
            start = stop
        return {"times": times, "accuracies": accuracies}

    # -- management -----------------------------------------------------

    def save_cache(self) -> int:
        """Persist the cache (no-op returning 0 when caching is disabled)."""
        if self.cache is None:
            return 0
        return self.cache.save()

    def stats(self) -> Dict[str, Any]:
        """Executor, cache, and telemetry state as a plain dict."""
        info: Dict[str, Any] = {
            "executor": self.executor.name,
            "telemetry": self.telemetry.snapshot(),
            **self.executor.stats(),
        }
        if self.cache is not None:
            info["cache"] = self.cache.stats()
        return info

    def close(self) -> None:
        """Release executor resources (worker pools) and the cache's store."""
        self.executor.close()
        if self.cache is not None:
            self.cache.close()

    def __enter__(self) -> "Runtime":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        cache = "on" if self.cache is not None else "off"
        return f"Runtime(executor={self.executor.name!r}, cache={cache})"


#: Process-wide fallback runtime used when call sites do not pass one.
_DEFAULT: Optional[Runtime] = None


def default_runtime() -> Runtime:
    """The shared serial, cache-less runtime (legacy-equivalent behaviour)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = Runtime(executor=SerialExecutor(), cache=None)
    return _DEFAULT
