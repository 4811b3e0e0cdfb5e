"""The selector as a live service: an asyncio TCP server over DeployedProgram.

The paper's end product is a cheap production-time classifier that picks
the best algorithmic configuration per input.  :class:`SelectorServer`
makes that artifact *serve*: clients send newline-JSON ``run`` requests
(see :mod:`repro.serving.protocol`), the server classifies the input with
the test's registered model, runs the selected landmark configuration
through the shared measurement :class:`~repro.runtime.Runtime`, and
answers with the outcome plus per-request telemetry.

Three properties carry the load story:

* **Request coalescing** -- while an execution is in flight, identical
  inputs (same test, same content-keyed input digest) share it: the request
  that missed the cache creates the job, duplicates await the same future
  and are answered from it (``coalesced: true``).  Once a job finishes, its
  result lives in the runtime's shared :class:`~repro.runtime.RunCache`, so
  later repeats are recalls (``cache_hit: true``).  Between the two
  mechanisms, a trace with any level of duplication executes each unique
  input at most once.
* **Bounded admission** -- at most ``max_pending`` *distinct* executions
  may be in flight; a request that would start one beyond the cap is
  rejected immediately with a 503-style error instead of queueing without
  bound.  Coalesced duplicates piggyback on admitted work (they add no
  execution) and are therefore always accepted.
* **Atomic hot-swap** -- models live in a :class:`~repro.serving.registry.
  ModelRegistry`; a ``swap`` message (or :meth:`SelectorServer.publish`)
  replaces a test's model atomically and bumps its version.  Requests in
  flight finish on the model snapshot they resolved at admission.

Only cache misses leave the event loop.  The loop thread resolves every
non-coalesced request itself -- the ``serve.execute`` fault site, the
selection, the run key (built from the coalescing digest) and the run-cache
recall -- and answers a hit inline.  A repeat of an input the current model
entry has already classified reuses that selection instead of extracting
features again.  A miss runs the pure ``program.run`` on a dedicated thread
pool (default: one worker, which serializes program runs exactly like the
serial executor), and the loop thread then stores the result and does the
telemetry and breaker bookkeeping.  The loop thread is therefore
the only user of the runtime's unlocked ``RunCache`` and
:class:`~repro.runtime.telemetry.Telemetry`, through which all counters and
latency distributions go, so ``stats`` responses and ``Runtime.stats()``
tell one coherent story.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.core.pipeline import DeployedProgram, DeploymentOutcome
from repro.lang.config import Configuration
from repro.lang.program import PetaBricksProgram, RunResult
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import maybe_fail
from repro.runtime import (
    RunCache,
    Runtime,
    SerialExecutor,
    config_key,
    input_key,
    join_run_key,
    program_key,
)
from repro.serving import protocol
from repro.serving.protocol import (
    SERVING_PROTOCOL_VERSION,
    decode_message,
    encode_message,
    error_response,
)
from repro.serving.registry import ModelEntry, ModelRegistry


@dataclass
class ServingConfig:
    """Knobs of one :class:`SelectorServer`.

    Attributes:
        host: bind address; loopback by default (payloads are pickles, so
            only expose the port to peers you would hand a Python
            interpreter).
        port: bind port; 0 picks an ephemeral port (read it back from
            :attr:`SelectorServer.address`).
        max_pending: admission cap on distinct in-flight executions; the
            request that would start execution ``max_pending + 1`` is
            rejected with a 503-style error.
        execution_workers: thread-pool width for the program runs of cache
            misses; selections and recalls run on the event-loop thread and
            never wait for the pool.  The default of 1 serializes executions
            (bit-identical to a sequential ``DeployedProgram.run`` loop by
            construction); raising it overlaps them, results staying
            identical because runs are pure.
        breaker_threshold: consecutive execution failures that open the
            serving circuit breaker.
        breaker_recovery_seconds: how long the breaker stays open before
            admitting half-open trial executions.

    ``index`` input specs that name no seed use population seed 0.  The
    server answers degraded instead of failing when no model is registered
    for a known benchmark's test (its default configuration runs with
    ``landmark: -1``) and while the breaker is open (a no-execution
    degraded frame); see ``docs/resilience.md``.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_pending: int = 64
    execution_workers: int = 1
    breaker_threshold: int = 5
    breaker_recovery_seconds: float = 30.0


@dataclass(frozen=True)
class _Selection:
    """What one input runs: the program, the chosen configuration, its run key."""

    program: PetaBricksProgram
    configuration: Configuration
    #: Landmark index; -1 marks a degraded default-configuration answer.
    landmark_index: int
    feature_cost: float
    run_key: str

    def outcome(self, result: RunResult, cache_hit: bool) -> DeploymentOutcome:
        return DeploymentOutcome(
            result=result,
            configuration=self.configuration,
            landmark_index=self.landmark_index,
            feature_extraction_cost=self.feature_cost,
            cache_hit=cache_hit,
        )


class _SelectionMemo:
    """The selections one model entry has made, keyed by input digest.

    Selection is a pure function of the entry's classifier and the input,
    so a repeat reuses it.  A hot-swap publishes a new entry, which gets a
    new, empty memo.  A selection is only worth keeping while its run can
    be recalled, so the memo is bounded (LRU) by the run cache's
    ``max_entries``, and a runtime without a run cache keeps none.
    """

    def __init__(self, entry: ModelEntry, cache: Optional[RunCache]) -> None:
        self.entry = entry
        self._program_key = program_key(entry.deployed.program)
        self._selections: Optional["OrderedDict[str, _Selection]"] = (
            OrderedDict() if cache is not None else None
        )
        self._max_entries = cache.max_entries if cache is not None else None

    def select(self, digest: str, program_input: Any) -> _Selection:
        """The entry's selection for the input whose ``input_key`` is ``digest``."""
        if self._selections is not None:
            known = self._selections.get(digest)
            if known is not None:
                self._selections.move_to_end(digest)
                return known
        deployed = self.entry.deployed
        configuration, index, cost = deployed.select_configuration(program_input)
        selection = _Selection(
            program=deployed.program,
            configuration=configuration,
            landmark_index=index,
            feature_cost=cost,
            run_key=join_run_key(self._program_key, config_key(configuration), digest),
        )
        if self._selections is not None:
            self._selections[digest] = selection
            if self._max_entries is not None and len(self._selections) > self._max_entries:
                self._selections.popitem(last=False)
        return selection


def _timed_run(
    program: PetaBricksProgram, configuration: Configuration, program_input: Any
) -> Tuple[RunResult, float]:
    """Pool-thread body of a cache miss: one pure program run, timed."""
    start = time.perf_counter()
    result = program.run(configuration, program_input)
    return result, time.perf_counter() - start


class SelectorServer:
    """Asyncio deployment server wrapping a :class:`ModelRegistry`.

    Args:
        registry: model registry to serve; a fresh empty one by default.
        runtime: measurement runtime shared by every served model (the
            coalescing/recall story needs one shared
            :class:`~repro.runtime.RunCache`); every answer is recalled
            from and recorded into it.  Defaults to a serial, caching
            runtime.
        config: serving knobs; defaults to :class:`ServingConfig`.
    """

    def __init__(
        self,
        registry: Optional[ModelRegistry] = None,
        runtime: Optional[Runtime] = None,
        config: Optional[ServingConfig] = None,
    ) -> None:
        self.registry = registry if registry is not None else ModelRegistry()
        if runtime is None:
            runtime = Runtime(
                executor=SerialExecutor(),
                cache=RunCache(max_entries=RunCache.DEFAULT_MAX_ENTRIES),
            )
        self.runtime = runtime
        self.config = config if config is not None else ServingConfig()
        if self.config.max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.telemetry = runtime.telemetry
        #: Execution circuit breaker: consecutive failed answers (fault site,
        #: selection or run) trip it open, and the server answers degraded
        #: until recovery.
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_threshold,
            recovery_timeout=self.config.breaker_recovery_seconds,
        )
        #: (test, input digest) -> in-flight execution task; the coalescing map.
        self._inflight: Dict[Tuple[str, str], "asyncio.Task"] = {}
        #: test -> selection memo of the model entry that last answered it.
        self._selections: Dict[str, _SelectionMemo] = {}
        #: Runs cache misses; built by :meth:`start`, released by :meth:`stop`.
        self._pool: Optional[ThreadPoolExecutor] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self.address: Optional[Tuple[str, int]] = None

    # -- model management ------------------------------------------------

    def publish(self, test: str, deployed: DeployedProgram) -> ModelEntry:
        """Install (or hot-swap) the model serving ``test``.

        The deployed program is rebound to the *server's* runtime so every
        model shares one run cache -- that sharing is what lets repeats of
        an input recall across swaps and across tests sharing a program.
        Safe to call from any thread while the server runs; requests in
        flight finish on the entry they resolved.
        """
        rebound = DeployedProgram(
            program=deployed.program,
            landmarks=deployed.landmarks,
            classifier=deployed.classifier,
            runtime=self.runtime,
        )
        entry = self.registry.publish(test, rebound)
        self.telemetry.count("serve_models_published")
        return entry

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting connections; returns ``(host, port)``."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            # A restarted serving process must rebind its fixed port
            # immediately even while old connections linger in TIME_WAIT.
            reuse_address=True,
        )
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, self.config.execution_workers),
            thread_name_prefix="repro-serve",
        )
        self.address = self._server.sockets[0].getsockname()[:2]
        return self.address

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until cancelled or stopped."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def stop(self) -> None:
        """Stop accepting connections and release the execution pool."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._inflight.values()):
            task.cancel()
        self._inflight.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # -- connection handling ----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        pending = set()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    message = decode_message(line)
                except ValueError as error:
                    await self._send(
                        writer, write_lock,
                        error_response(protocol.BAD_REQUEST, f"malformed frame: {error}"),
                    )
                    continue
                kind = message.get("type")
                if kind == "run":
                    # One task per request: a slow execution must not stall
                    # the connection's later (possibly coalescable) frames.
                    task = asyncio.ensure_future(
                        self._handle_run(message, writer, write_lock)
                    )
                    pending.add(task)
                    task.add_done_callback(pending.discard)
                elif kind == "swap":
                    await self._handle_swap(message, writer, write_lock)
                elif kind == "stats":
                    await self._send(writer, write_lock, {"type": "stats", **self.stats()})
                elif kind == "ping":
                    await self._send(
                        writer, write_lock,
                        {"type": "pong", "protocol": SERVING_PROTOCOL_VERSION},
                    )
                else:
                    await self._send(
                        writer, write_lock,
                        error_response(
                            protocol.BAD_REQUEST,
                            f"unknown message type {kind!r}",
                            message.get("id"),
                        ),
                    )
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass

    @staticmethod
    async def _send(
        writer: asyncio.StreamWriter, lock: asyncio.Lock, message: Dict[str, Any]
    ) -> None:
        try:
            async with lock:
                writer.write(encode_message(message))
                await writer.drain()
        except (ConnectionError, OSError):
            # The client went away; its answer has nowhere to go.  The
            # execution (if any) completes regardless and stays cached.
            pass

    # -- request handling --------------------------------------------------

    async def _handle_run(
        self,
        message: Dict[str, Any],
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        request_id = message.get("id")
        received = time.perf_counter()
        self.telemetry.count("serve_requests")

        test = message.get("test")
        if not isinstance(test, str):
            await self._reject(
                writer, write_lock, protocol.BAD_REQUEST,
                "run request carries no 'test' name", request_id,
            )
            return
        entry: Optional[ModelEntry]
        fallback_program = None
        try:
            entry = self.registry.get(test)
        except KeyError as error:
            # No model published for this test.  When the test names a
            # known benchmark, serve its default configuration (landmark
            # -1) instead of failing the request.
            entry = None
            fallback_program = self._fallback_program(test)
            if fallback_program is None:
                await self._reject(
                    writer, write_lock, protocol.UNKNOWN_TEST, str(error), request_id
                )
                return
        try:
            program_input = protocol.decode_input(message.get("input"), test)
        except ValueError as error:
            await self._reject(
                writer, write_lock, protocol.BAD_REQUEST, str(error), request_id
            )
            return

        key = (test, input_key(program_input))
        job = self._inflight.get(key)
        coalesced = job is not None
        if job is None:
            if len(self._inflight) >= self.config.max_pending:
                self.telemetry.count("serve_rejected")
                await self._reject(
                    writer, write_lock, protocol.OVERLOADED,
                    f"admission control: {len(self._inflight)} executions in "
                    f"flight (cap {self.config.max_pending}); retry later",
                    request_id,
                )
                return
            if not self.breaker.allow():
                # Executions are tripping; shed load without executing.
                self.telemetry.count("serve_breaker_open")
                self.telemetry.count("serve_degraded")
                await self._send(
                    writer, write_lock,
                    self._degraded_response(test, request_id, "breaker_open"),
                )
                return
        else:
            self.telemetry.count("serve_coalesced")

        try:
            if coalesced:
                answer = await job
            else:
                answer = await self._answer(key, entry, fallback_program, program_input)
            outcome, selection_seconds, execution_seconds = answer
        except Exception as error:  # noqa: BLE001 - surface to the client
            self.telemetry.count("serve_errors")
            await self._reject(
                writer, write_lock, protocol.EXECUTION_FAILED,
                f"{type(error).__name__}: {error}", request_id,
            )
            return

        response: Dict[str, Any] = {
            "type": "result",
            "id": request_id,
            "test": test,
            "landmark": outcome.landmark_index,
            "time": outcome.result.time,
            "accuracy": outcome.result.accuracy,
            "feature_cost": outcome.feature_extraction_cost,
            "total_time": outcome.total_time,
            "cache_hit": outcome.cache_hit,
            "coalesced": coalesced,
            "model_version": entry.version if entry is not None else None,
            "selection_seconds": selection_seconds,
            "execution_seconds": execution_seconds,
            # Degraded contract: a negative landmark marks an answer served
            # without the classifier (no-model fallback).
            "degraded": outcome.landmark_index < 0,
        }
        if message.get("want_output"):
            response["output"] = protocol.encode_payload(outcome.result.output)
        self.telemetry.record_latency(
            "serve.request", time.perf_counter() - received
        )
        await self._send(writer, write_lock, response)

    @staticmethod
    def _fallback_program(test: str) -> Optional[Any]:
        """The benchmark program behind ``test``, or None when unknown."""
        from repro.benchmarks_suite import get_benchmark  # lazy: heavy import

        try:
            return get_benchmark(test).benchmark.program
        except KeyError:
            return None

    def _degraded_response(
        self, test: str, request_id: Any, reason: str
    ) -> Dict[str, Any]:
        """A no-execution degraded result frame (breaker-open answer)."""
        return {
            "type": "result",
            "id": request_id,
            "test": test,
            "landmark": -1,
            "time": 0.0,
            "accuracy": 0.0,
            "feature_cost": 0.0,
            "total_time": 0.0,
            "cache_hit": False,
            "coalesced": False,
            "model_version": None,
            "selection_seconds": 0.0,
            "execution_seconds": 0.0,
            "degraded": True,
            "degraded_reason": reason,
        }

    async def _answer(
        self,
        key: Tuple[str, str],
        entry: Optional[ModelEntry],
        fallback_program: Optional[PetaBricksProgram],
        program_input: Any,
    ) -> Tuple[DeploymentOutcome, float, float]:
        """Answer one admitted request that coalesced onto nothing.

        Everything up to the recall runs on the event-loop thread: a hit is
        answered without leaving it, and only a miss awaits the pool, as the
        in-flight job its duplicates coalesce onto.  Model-backed answers and
        degraded ones (``entry`` None: the fallback program's default
        configuration, ``landmark: -1``) share the path, so both are
        recalled, coalesced and breaker-guarded alike.  Returns ``(outcome,
        selection_seconds, execution_seconds)``; a hit's execution time is
        its recall's.
        """
        program = entry.deployed.program if entry is not None else fallback_program
        try:
            # Fault site: chaos plans fail answers here to trip the breaker.
            maybe_fail("serve.execute", detail=program.name)
            started = time.perf_counter()
            selection = self._select(entry, program, key[1], program_input)
            selected = time.perf_counter()
            result = self.runtime.recall(selection.run_key, need_output=True)
            if result is not None:
                answer = (
                    selection.outcome(result, cache_hit=True),
                    selected - started,
                    time.perf_counter() - selected,
                )
            else:
                job = asyncio.ensure_future(
                    self._execute(key, selection, selected - started, program_input)
                )
                self._inflight[key] = job
                answer = await job
        except Exception:
            self.breaker.record_failure()
            raise
        self.breaker.record_success()
        outcome, selection_seconds, execution_seconds = answer
        self.telemetry.count("serve_executions")
        if outcome.cache_hit:
            self.telemetry.count("serve_cache_hits")
        self.telemetry.record_latency("serve.execution", execution_seconds)
        if entry is None:
            self.telemetry.count("serve_degraded")
        else:
            self.telemetry.record_latency("serve.selection", selection_seconds)
        return answer

    def _select(
        self,
        entry: Optional[ModelEntry],
        program: PetaBricksProgram,
        digest: str,
        program_input: Any,
    ) -> _Selection:
        """The request's selection: the entry's (memoized), or the default."""
        if entry is None:
            configuration = program.default_configuration()
            return _Selection(
                program=program,
                configuration=configuration,
                landmark_index=-1,
                feature_cost=0.0,
                run_key=join_run_key(
                    program_key(program), config_key(configuration), digest
                ),
            )
        memo = self._selections.get(entry.test)
        if memo is None or memo.entry is not entry:
            memo = self._selections[entry.test] = _SelectionMemo(entry, self.runtime.cache)
        return memo.select(digest, program_input)

    async def _execute(
        self,
        key: Tuple[str, str],
        selection: _Selection,
        selection_seconds: float,
        program_input: Any,
    ) -> Tuple[DeploymentOutcome, float, float]:
        """A cache miss: the pool runs the program, the loop thread stores it.

        Owns the in-flight slot duplicates coalesce onto.
        """
        loop = asyncio.get_running_loop()
        try:
            result, execution_seconds = await loop.run_in_executor(
                self._pool,
                _timed_run,
                selection.program,
                selection.configuration,
                program_input,
            )
            result = self.runtime.record(selection.run_key, result, need_output=True)
        finally:
            # Clearing inside the coroutine (not a done-callback), after the
            # result is stored, guarantees the slot is free before any
            # awaiter resumes, so a follow-up identical request becomes a
            # cache recall, never a stale join.
            self._inflight.pop(key, None)
        return (
            selection.outcome(result, cache_hit=False),
            selection_seconds,
            execution_seconds,
        )

    async def _handle_swap(
        self,
        message: Dict[str, Any],
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        test = message.get("test")
        payload = message.get("payload")
        if not isinstance(test, str) or not isinstance(payload, str):
            await self._reject(
                writer, write_lock, protocol.BAD_REQUEST,
                "swap request needs a 'test' name and a 'payload'",
                message.get("id"),
            )
            return
        try:
            deployed = protocol.decode_payload(payload)
            entry = self.publish(test, deployed)
        except Exception as error:  # noqa: BLE001 - surface to the client
            await self._reject(
                writer, write_lock, protocol.BAD_REQUEST,
                f"swap failed: {type(error).__name__}: {error}", message.get("id"),
            )
            return
        self.telemetry.count("serve_swaps")
        await self._send(
            writer, write_lock,
            {"type": "swapped", "id": message.get("id"), "test": test,
             "version": entry.version},
        )

    async def _reject(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        code: int,
        error: str,
        request_id: Any = None,
    ) -> None:
        await self._send(writer, write_lock, error_response(code, error, request_id))

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Registry, admission, and telemetry state as a plain dict."""
        return {
            "protocol": SERVING_PROTOCOL_VERSION,
            "address": list(self.address) if self.address else None,
            "models": self.registry.versions(),
            "inflight": len(self._inflight),
            "max_pending": self.config.max_pending,
            "breaker": self.breaker.snapshot(),
            "runtime": self.runtime.stats(),
        }


class ServerThread:
    """Run a :class:`SelectorServer` on a background event-loop thread.

    The synchronous harness the tests, the load generator, and the CLI
    share: enter the context manager, talk to ``server.address`` over TCP
    from any thread, and the loop shuts the server down cleanly on exit.
    """

    def __init__(self, server: SelectorServer) -> None:
        self.server = server
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def address(self) -> Tuple[str, int]:
        assert self.server.address is not None, "server not started"
        return self.server.address

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="repro-serving",
            daemon=True,
        )
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("serving thread failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") from self._startup_error
        return self

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            await self.server.start()
        except BaseException as error:  # noqa: BLE001 - report to starter
            self._startup_error = error
            self._started.set()
            return
        self._started.set()
        await self._stop_event.wait()
        await self.server.stop()

    def stop(self) -> None:
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *_exc: Any) -> None:
        self.stop()
