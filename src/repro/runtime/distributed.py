"""Distributed executor: content-keyed chunk leases over a localhost socket.

The coordinator (:class:`Coordinator`) binds an ephemeral TCP port on
127.0.0.1, partitions each batch into *chunk leases*, and hands them to
worker processes -- either local ones it spawns through ``multiprocessing``
or external ones attached with ``python -m repro.worker --connect
HOST:PORT``.  The executor facade (:class:`DistributedExecutor`) plugs the
coordinator into the :class:`~repro.runtime.executors.BaseExecutor`
interface, so it is interchangeable with the serial/thread/process
strategies and carries the same determinism contract: results are folded by
*chunk index* (the position of the chunk in the batch's content order),
never by arrival order, so a batch answers bit-identically however leases
land on workers.

Wire protocol (see ``docs/architecture.md`` for the lifecycle diagram):
newline-delimited JSON messages; Python payloads ride in a ``payload``
field as base64-encoded pickles.  Workers pull: after ``hello`` (and after
finishing each lease) a worker is idle, and the coordinator assigns it the
next pending chunk.  A batch's shared content -- the program or the shared-
argument registry -- is shipped once per worker per batch in a ``context``
message; leases then carry only their chunk.

Fault tolerance: every lease carries a deadline.  A worker death (socket
EOF, or a spawned process observed dead) or a deadline expiry requeues the
chunk for reassignment, bounded by :attr:`Coordinator.max_lease_retries`
attempts per chunk; spawned workers are replaced up to a bounded respawn
budget.  Because runs are pure functions of their content, re-executing a
lost chunk -- or accepting a straggler's late result for a chunk that was
already reassigned -- can never change a value, only who computed it.
Telemetry counters (``leases_issued``, ``leases_reassigned``,
``worker_deaths``, ...) surface through ``Runtime.stats()['distributed']``.

Two lease kinds cover the runtime's dispatch shapes:

* ``"pairs"``   -- context = program; chunk = ``[(config, input), ...]``;
  result = the pickled, output-free :class:`~repro.lang.program.RunResult`
  list.  The runtime has already recalled cached runs and removed
  duplicates, so workers keep no cache of their own.
* ``"calls"``   -- context = shared-argument registry; chunk = a list of
  ``(fn, args, kwargs)`` call tasks; result = their return values.
"""

from __future__ import annotations

import base64
import json
import multiprocessing
import pickle
import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.lang.program import PetaBricksProgram, RunResult
from repro.resilience.faults import FaultError, fault_site
from repro.runtime.executors import (
    BaseExecutor,
    CallTask,
    SerialExecutor,
    Task,
    _call_chunksize,
    _default_workers,
)

#: Wire-protocol version; both sides refuse to talk across a mismatch.
PROTOCOL_VERSION = 1

#: How long the coordinator waits in one ``selector.select`` call; bounds
#: the latency of deadline/death checks without busy-waiting.
_POLL_SECONDS = 0.05

#: Timeout of one blocking operation on an accepted worker socket.  It
#: bounds how long a send to a wedged worker can stall the coordinator
#: loop; it is *not* the lease deadline (``lease_timeout`` governs how long
#: a worker may hold a chunk).
SOCKET_TIMEOUT = 30.0

#: How long to wait for a dead or terminated spawned worker to be reaped.
JOIN_TIMEOUT = 2.0


def encode_payload(obj: Any) -> str:
    """Pickle + base64 an arbitrary Python object for a JSON message."""
    raw = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return base64.b64encode(raw).decode("ascii")


def decode_payload(text: str) -> Any:
    """Invert :func:`encode_payload`."""
    return pickle.loads(base64.b64decode(text.encode("ascii")))


def send_message(sock: socket.socket, message: Dict[str, Any]) -> None:
    """Send one newline-delimited JSON message (blocking)."""
    sock.sendall(json.dumps(message).encode("utf-8") + b"\n")


def recv_messages(buffer: bytearray, data: bytes) -> List[Dict[str, Any]]:
    """Fold received bytes into ``buffer``; return the completed messages."""
    buffer.extend(data)
    messages: List[Dict[str, Any]] = []
    while True:
        newline = buffer.find(b"\n")
        if newline < 0:
            return messages
        line = bytes(buffer[:newline])
        del buffer[: newline + 1]
        if line.strip():
            messages.append(json.loads(line.decode("utf-8")))


class LeaseError(RuntimeError):
    """A lease failed permanently (task raised, or retries exhausted)."""


@dataclass
class _Chunk:
    """One pending unit of a batch: the chunk payload plus its retry state."""

    index: int
    payload: Any
    attempts: int = 0


@dataclass
class _WorkerState:
    """Coordinator-side view of one connected worker."""

    conn: socket.socket
    buffer: bytearray = field(default_factory=bytearray)
    #: pid reported in the worker's hello (diagnostics only).
    pid: Optional[int] = None
    #: Spawned process handle; None for externally attached workers.
    process: Optional[multiprocessing.process.BaseProcess] = None
    #: Batch id whose context this worker has already received.
    context_batch: Optional[int] = None
    #: The chunk currently leased to this worker (None when idle).
    chunk: Optional[_Chunk] = None
    #: Wall-clock deadline of the current lease.
    deadline: float = 0.0
    #: True once the hello arrived; leases are only assigned after it.
    ready: bool = False


class Coordinator:
    """Localhost lease server: partitions batches, survives worker deaths.

    Args:
        workers: target number of locally spawned worker processes; 0 means
            "externally attached workers only".
        lease_timeout: seconds a worker gets per lease before its chunk is
            reassigned (a hung worker's work is redone elsewhere; its late
            result, if it ever arrives, is accepted only while the chunk is
            still unresolved).
        max_lease_retries: how many times one chunk may be *re*assigned
            before the batch fails -- the bound that keeps a chunk that
            reliably kills workers from cycling forever.
        port: TCP port to listen on; 0 (default) picks an ephemeral port.
            A fixed port is what lets external workers reconnect to a
            *restarted* coordinator without rediscovering the address --
            ``SO_REUSEADDR`` on the listener makes the rebind immediate
            even while connections from the previous incarnation linger in
            TIME_WAIT (see ``tests/runtime/test_distributed.py::
            TestPortRebind``).
    """

    def __init__(
        self,
        workers: int = 0,
        lease_timeout: float = 60.0,
        max_lease_retries: int = 3,
        port: int = 0,
    ) -> None:
        self.workers = max(0, int(workers))
        self.lease_timeout = float(lease_timeout)
        self.max_lease_retries = int(max_lease_retries)
        self.counters: Dict[str, int] = {
            "leases_issued": 0,
            "leases_reassigned": 0,
            "worker_deaths": 0,
            "workers_spawned": 0,
            "workers_attached": 0,
            "batches_dispatched": 0,
        }
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            # Without SO_REUSEADDR a coordinator restarting on a fixed port
            # would fail to bind while its previous incarnation's accepted
            # connections sit in TIME_WAIT -- the restart path must be clean.
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listener.bind(("127.0.0.1", int(port)))
            self._listener.listen(64)
        except OSError:
            self._listener.close()
            raise
        self._listener.setblocking(False)
        self.address: Tuple[str, int] = self._listener.getsockname()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._workers: Dict[socket.socket, _WorkerState] = {}
        self._batch_seq = 0
        #: Respawn budget: a batch of chunks that each kill their worker is
        #: already bounded by per-chunk retries, but a worker that dies
        #: outside any lease (bad import, OOM loop) must not respawn forever.
        self._respawn_budget = 4 * max(1, self.workers) + 8
        #: Spawned-but-not-yet-connected process handles (paired on hello).
        self._pending_processes: List[multiprocessing.process.BaseProcess] = []
        self._closed = False

    # -- worker management ----------------------------------------------

    def _spawn_worker(self) -> None:
        if self._respawn_budget <= 0:
            return
        self._respawn_budget -= 1
        # Import here: repro.worker imports this module for the framing
        # helpers, so a module-level import would be circular.
        from repro.worker import worker_main

        context = multiprocessing.get_context("spawn")
        process = context.Process(
            target=worker_main,
            args=(self.address[0], self.address[1]),
            daemon=True,
            name="repro-dist-worker",
        )
        process.start()
        self.counters["workers_spawned"] += 1
        # The connection arrives through the listener like any external
        # worker; _accept pairs it with this process handle by pid.
        self._pending_processes.append(process)

    def ensure_workers(self) -> None:
        """Spawn local workers up to the target count (dead ones replaced)."""
        self._pending_processes = [
            p for p in self._pending_processes if p.is_alive()
        ]
        live = sum(
            1
            for state in self._workers.values()
            if state.process is not None and state.process.is_alive()
        ) + len(self._pending_processes)
        for _ in range(self.workers - live):
            self._spawn_worker()

    def _accept(self) -> None:
        try:
            conn, _addr = self._listener.accept()
        except (BlockingIOError, OSError):
            return
        conn.setblocking(True)
        conn.settimeout(SOCKET_TIMEOUT)
        self._selector.register(conn, selectors.EVENT_READ)
        self._workers[conn] = _WorkerState(conn=conn)

    def _drop_worker(self, state: _WorkerState, *, died: bool) -> Optional[_Chunk]:
        """Forget a worker; return its outstanding chunk for requeueing."""
        if died:
            self.counters["worker_deaths"] += 1
        try:
            self._selector.unregister(state.conn)
        except (KeyError, ValueError):
            pass
        try:
            state.conn.close()
        except OSError:
            pass
        self._workers.pop(state.conn, None)
        if state.process is not None and not state.process.is_alive():
            state.process.join(timeout=JOIN_TIMEOUT)
        return state.chunk

    def connected_workers(self) -> int:
        """Workers that have completed their hello (diagnostics/tests)."""
        return sum(1 for state in self._workers.values() if state.ready)

    # -- batch dispatch --------------------------------------------------

    def run_leases(self, kind: str, context: Any, payloads: Sequence[Any]) -> List[Any]:
        """Execute one batch of chunk leases; results aligned to ``payloads``.

        Blocks until every chunk is resolved (executing chunks on whichever
        workers are alive, reassigning lost ones) or a chunk fails
        permanently, in which case :class:`LeaseError` is raised.
        """
        if self._closed:
            raise RuntimeError("coordinator is closed")
        if not payloads:
            return []
        self._batch_seq += 1
        self.counters["batches_dispatched"] += 1
        batch_id = self._batch_seq
        context_blob = encode_payload(context)
        pending: Deque[_Chunk] = deque(
            _Chunk(index=i, payload=payload) for i, payload in enumerate(payloads)
        )
        results: List[Any] = [None] * len(payloads)
        unresolved = set(range(len(payloads)))

        # A previous batch may have been aborted with leases in flight;
        # those workers drain their queue sequentially, so new leases just
        # line up behind the stale work (whose results are dropped by id).
        for state in self._workers.values():
            state.chunk = None

        self.ensure_workers()
        no_worker_since: Optional[float] = None
        while unresolved:
            self._service_sockets(batch_id, results, unresolved, pending)
            self._reap_dead(pending)
            self._expire_leases(pending)
            # Keep the local pool at strength: a worker killed mid-batch is
            # replaced (within the respawn budget) instead of the batch
            # limping along on the survivors.
            self.ensure_workers()
            self._assign(batch_id, kind, context_blob, pending)
            if self._workers or self._pending_processes:
                no_worker_since = None
            else:
                # Worker-less but not hopeless: an external worker may still
                # attach (the workers=0 mode exists for exactly that), so
                # give it one lease-timeout's grace before failing.
                now = time.monotonic()
                if no_worker_since is None:
                    no_worker_since = now
                elif now - no_worker_since > self.lease_timeout:
                    raise LeaseError(
                        "no workers available (respawn budget exhausted, "
                        "none attached within the lease timeout; "
                        f"{len(unresolved)} chunk(s) unresolved)"
                    )
        return results

    def _service_sockets(
        self,
        batch_id: int,
        results: List[Any],
        unresolved: set,
        pending: Deque[_Chunk],
    ) -> None:
        for key, _events in self._selector.select(timeout=_POLL_SECONDS):
            if key.fileobj is self._listener:
                self._accept()
                continue
            state = self._workers.get(key.fileobj)  # type: ignore[arg-type]
            if state is None:
                continue
            try:
                data = state.conn.recv(1 << 16)
            except (socket.timeout, BlockingIOError):
                continue
            except OSError:
                data = b""
            if not data:
                chunk = self._drop_worker(state, died=True)
                if chunk is not None:
                    self._requeue(chunk, pending)
                continue
            for message in recv_messages(state.buffer, data):
                self._handle_message(state, message, batch_id, results, unresolved)

    def _handle_message(
        self,
        state: _WorkerState,
        message: Dict[str, Any],
        batch_id: int,
        results: List[Any],
        unresolved: set,
    ) -> None:
        kind = message.get("type")
        if kind == "hello":
            if message.get("protocol") != PROTOCOL_VERSION:
                self._drop_worker(state, died=False)
                return
            state.pid = message.get("pid")
            state.ready = True
            # Pair the connection with the spawned process handle (if any),
            # so process-level death detection covers this socket.
            for process in list(self._pending_processes):
                if process.pid == state.pid:
                    state.process = process
                    self._pending_processes.remove(process)
                    break
            if state.process is None and state.pid is not None:
                self.counters["workers_attached"] += 1
            return
        if kind == "result":
            lease_batch, index, _attempt = _parse_lease_id(message["lease_id"])
            state.chunk = None
            if lease_batch == batch_id and index in unresolved:
                results[index] = decode_payload(message["payload"])
                unresolved.discard(index)
            # A stale result (older batch, or an index a reassignment
            # already answered) is simply dropped: purity guarantees the
            # accepted copy carried identical values.
            return
        if kind == "error":
            # The task itself raised in the worker: that is the caller's
            # exception, not a transport fault -- fail the batch with it.
            state.chunk = None
            detail = message.get("error", "worker task failed")
            raise LeaseError(
                f"lease {message.get('lease_id')} failed on worker "
                f"pid={state.pid}: {detail}"
            )

    def _reap_dead(self, pending: Deque[_Chunk]) -> None:
        """Requeue chunks held by spawned workers whose process has died."""
        for state in list(self._workers.values()):
            if state.process is not None and not state.process.is_alive():
                chunk = self._drop_worker(state, died=True)
                if chunk is not None:
                    self._requeue(chunk, pending)

    def _expire_leases(self, pending: Deque[_Chunk]) -> None:
        now = time.monotonic()
        for state in self._workers.values():
            if state.chunk is not None and now > state.deadline:
                chunk = state.chunk
                # The worker keeps the connection; if it ever finishes, the
                # straggler result is accepted only while still unresolved.
                state.chunk = None
                self._requeue(chunk, pending)

    def _requeue(self, chunk: _Chunk, pending: Deque[_Chunk]) -> None:
        chunk.attempts += 1
        if chunk.attempts > self.max_lease_retries:
            raise LeaseError(
                f"chunk {chunk.index} lost {chunk.attempts} time(s); "
                "max lease retries exhausted"
            )
        self.counters["leases_reassigned"] += 1
        pending.appendleft(chunk)

    def _assign(
        self, batch_id: int, kind: str, context_blob: str, pending: Deque[_Chunk]
    ) -> None:
        for state in list(self._workers.values()):
            if not pending:
                return
            if not state.ready or state.chunk is not None:
                continue
            chunk = pending.popleft()
            lease_id = f"{batch_id}:{chunk.index}:{chunk.attempts}"
            try:
                # Fault site: a send that fails (raise) or a connection torn
                # down just before the send (drop) -- both land in the
                # except OSError requeue path below, exactly like a real
                # peer reset would.
                spec = fault_site("dist.send", detail=lease_id)
                if spec is not None and spec.action == "drop":
                    _shutdown_socket(state.conn)
                    raise FaultError("dist.send", "drop")
                if state.context_batch != batch_id:
                    send_message(
                        state.conn,
                        {"type": "context", "batch": batch_id, "kind": kind,
                         "payload": context_blob},
                    )
                    state.context_batch = batch_id
                send_message(
                    state.conn,
                    {"type": "lease", "lease_id": lease_id,
                     "payload": encode_payload(chunk.payload)},
                )
            except OSError:
                dropped = self._drop_worker(state, died=True)
                if dropped is not None:
                    self._requeue(dropped, pending)
                self._requeue(chunk, pending)
                continue
            state.chunk = chunk
            state.deadline = time.monotonic() + self.lease_timeout
            self.counters["leases_issued"] += 1
            # Fault site: the connection dies *mid-lease*, after the worker
            # was granted the chunk -- exercises EOF detection and the
            # requeue-on-death path rather than the send error path.
            spec = fault_site("dist.lease", detail=lease_id)
            if spec is not None and spec.action == "drop":
                _shutdown_socket(state.conn)

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Shut workers down and release all sockets (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for state in list(self._workers.values()):
            try:
                send_message(state.conn, {"type": "shutdown"})
            except OSError:
                pass
            self._drop_worker(state, died=False)
        for process in self._pending_processes:
            process.terminate()
            process.join(timeout=JOIN_TIMEOUT)
        try:
            self._selector.unregister(self._listener)
        except (KeyError, ValueError):
            pass
        self._listener.close()
        self._selector.close()

    def __enter__(self) -> "Coordinator":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()


def _shutdown_socket(conn: socket.socket) -> None:
    """Tear a connection down abruptly (the injected-drop primitive)."""
    try:
        conn.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass


def _parse_lease_id(lease_id: str) -> Tuple[int, int, int]:
    batch, index, attempt = lease_id.split(":")
    return int(batch), int(index), int(attempt)


def _partition(items: Sequence[Any], size: int) -> List[List[Any]]:
    return [list(items[i : i + size]) for i in range(0, len(items), size)]


class DistributedExecutor(BaseExecutor):
    """Executor facade over a :class:`Coordinator` and its leased workers.

    Args:
        workers: locally spawned worker count (default: CPU count).  Set 0
            to rely solely on externally attached workers.
        lease_timeout: per-lease deadline in seconds.
        max_lease_retries: reassignment bound per chunk.
        port: fixed coordinator port (0 = ephemeral); lets a restarted
            executor rebind the same address for externally attached
            workers, and lets a host budget its ports when a serving
            process and a distributed executor run side by side.

    Attributes:
        fallback_reason: set when a batch had to run serially because its
            content could not be pickled across the socket; None otherwise.

    :meth:`stats` reports it as ``executor_fallback``, and the lease
    counters as ``distributed`` once the coordinator has started.

    Note: ``run_batch`` results come back *output-free* (workers strip the
    program output before shipping, exactly as the measurement cache does);
    callers needing outputs use ``Runtime.run(need_output=True)``, which
    never routes through an executor batch.
    """

    name = "distributed"

    def __init__(
        self,
        workers: Optional[int] = None,
        lease_timeout: float = 60.0,
        max_lease_retries: int = 3,
        port: int = 0,
    ) -> None:
        self.workers = _default_workers() if workers is None else max(0, int(workers))
        self.lease_timeout = lease_timeout
        self.max_lease_retries = max_lease_retries
        self.port = int(port)
        self.fallback_reason: Optional[str] = None
        self._coordinator: Optional[Coordinator] = None

    @property
    def coordinator(self) -> Coordinator:
        """The lazily started coordinator (binds the socket on first use)."""
        if self._coordinator is None:
            self._coordinator = Coordinator(
                workers=self.workers,
                lease_timeout=self.lease_timeout,
                max_lease_retries=self.max_lease_retries,
                port=self.port,
            )
        return self._coordinator

    @property
    def address(self) -> Tuple[str, int]:
        """Coordinator ``(host, port)`` for external ``repro.worker`` attach."""
        return self.coordinator.address

    @property
    def lease_stats(self) -> Dict[str, int]:
        """Lease/worker telemetry counters (zeros before the first batch)."""
        if self._coordinator is None:
            return {}
        return dict(self._coordinator.counters)

    def stats(self) -> Dict[str, Any]:
        info: Dict[str, Any] = {}
        if self.fallback_reason:
            info["executor_fallback"] = self.fallback_reason
        if self._coordinator is not None:
            info["distributed"] = self.lease_stats
        return info

    def _picklable(self, *objects: Any) -> bool:
        try:
            for obj in objects:
                pickle.dumps(obj)
            return True
        except Exception as error:
            self.fallback_reason = f"not picklable: {type(error).__name__}"
            return False

    def run_batch(
        self, program: PetaBricksProgram, tasks: Sequence[Task]
    ) -> List[RunResult]:
        if not tasks:
            return []
        if not self._picklable(program, tasks[0]):
            return SerialExecutor().run_batch(program, tasks)
        size = _call_chunksize(len(tasks), max(1, self.workers))
        chunks = self.coordinator.run_leases("pairs", program, _partition(tasks, size))
        return [result for chunk in chunks for result in chunk]

    def run_calls(
        self,
        calls: Sequence[CallTask],
        shared: Optional[Dict[str, Any]] = None,
    ) -> List[Any]:
        if not calls:
            return []
        shared = shared or {}
        if not self._picklable(calls[0], shared):
            return SerialExecutor().run_calls(calls, shared=shared)
        size = _call_chunksize(len(calls), max(1, self.workers))
        chunks = self.coordinator.run_leases("calls", shared, _partition(calls, size))
        return [result for chunk in chunks for result in chunk]

    def close(self) -> None:
        if self._coordinator is not None:
            self._coordinator.close()
            self._coordinator = None

    def __repr__(self) -> str:
        return f"DistributedExecutor(workers={self.workers})"
