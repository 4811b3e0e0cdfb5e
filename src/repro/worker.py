"""Distributed-executor worker: connect, lease chunks, stream results back.

One worker process serves one coordinator (see
:mod:`repro.runtime.distributed` for the protocol).  The coordinator spawns
workers through ``multiprocessing`` by default, but any machine-local
process can attach to a running coordinator::

    python -m repro.worker --connect 127.0.0.1:PORT

The worker keeps a bounded local :class:`~repro.runtime.cache.RunCache`:
program runs repeated across its leases (the same (config, input) showing
up in the tuner's populations, say, or re-measured rows) are answered from
memory instead of re-executed, and on the ``rows`` path the per-entry
``run_key`` travels back with each measurement so the coordinator can fold
the entries into *its* cache -- and from there into the sharded on-disk
store -- without ever shipping the inputs in either direction.
"""

from __future__ import annotations

import argparse
import os
import socket
import traceback
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.lang.program import RunResult
from repro.resilience.faults import FaultError, install_from_env, maybe_fail
from repro.resilience.retry import RetryPolicy
from repro.runtime.cache import RunCache
from repro.runtime.distributed import (
    PROTOCOL_VERSION,
    decode_payload,
    encode_payload,
    recv_messages,
    send_message,
)
from repro.runtime.executors import _invoke_call, _substitute_shared
from repro.runtime.keys import config_key, input_key, join_run_key, run_key_prefix

#: In-memory entry cap of the worker-local run cache; measurements only, so
#: this bounds the worker at a few MB while still absorbing tuner-style
#: repeats within a session.
WORKER_CACHE_ENTRIES = 50_000

#: Connect retry: a worker racing a restarting coordinator (fixed-port
#: rebind) or a briefly saturated listen backlog retries with backoff
#: instead of dying on the first ConnectionRefusedError.
CONNECT_POLICY = RetryPolicy(max_attempts=5, base_delay=0.1, max_delay=1.0)


def _strip_output(result: RunResult) -> RunResult:
    """A copy of ``result`` without the program output (cheap to cache/ship)."""
    if result.output is None:
        return result
    return RunResult(
        output=None, time=result.time, accuracy=result.accuracy, extra=result.extra
    )


def execute_lease(
    kind: str, context: Any, payload: Any, cache: RunCache
) -> Tuple[Any, int]:
    """Execute one chunk lease; returns ``(result, local_cache_hits)``.

    The three kinds mirror :mod:`repro.runtime.distributed`:

    * ``pairs`` -- run each (config, input) task of the chunk through the
      context program; results keep their outputs (callers strip them).
    * ``calls`` -- invoke each generic call task, resolving
      :class:`~repro.runtime.SharedRef` arguments against the context
      registry.  Never cached: call results are memoized coordinator-side
      by the task cache, under keys this layer does not know.
    * ``rows`` -- materialize rows ``payload = (start, stop)`` from the
      context input source and measure every context configuration on each,
      returning ``{"entries": [(run_key, time, accuracy, extra), ...],
      "cache_hits": n}`` in row-major order.
    """
    # Fault site: an injected raise here unwinds as a worker death (the
    # chunk requeues on another worker); an injected kill is a hard crash.
    maybe_fail("worker.execute", detail=kind)
    if kind == "pairs":
        program = context
        results: List[RunResult] = []
        hits = 0
        prefix = run_key_prefix(program)
        for config, program_input in payload:
            key = join_run_key(prefix, config_key(config), input_key(program_input))
            cached = cache.get(key)
            if cached is not None:
                hits += 1
                results.append(cached)
                continue
            result = _strip_output(program.run(config, program_input))
            cache.put(key, result, has_output=False)
            results.append(result)
        return results, hits

    if kind == "calls":
        shared: Dict[str, Any] = context or {}
        outputs = [
            _invoke_call(_substitute_shared(call, shared)) for call in payload
        ]
        return outputs, 0

    if kind == "rows":
        program, configs, source = context
        start, stop = payload
        prefix = run_key_prefix(program)
        config_keys = [config_key(config) for config in configs]
        entries: List[Tuple[str, float, float, Dict[str, Any]]] = []
        hits = 0
        for index in range(start, stop):
            program_input = source.materialize(index)
            ik = input_key(program_input)
            for config, ck in zip(configs, config_keys):
                key = join_run_key(prefix, ck, ik)
                cached = cache.get(key)
                if cached is None:
                    cached = _strip_output(program.run(config, program_input))
                    cache.put(key, cached, has_output=False)
                else:
                    hits += 1
                entries.append((key, cached.time, cached.accuracy, cached.extra))
        return {"entries": entries, "cache_hits": hits}, hits

    raise ValueError(f"unknown lease kind {kind!r}")


def worker_main(host: str, port: int) -> None:
    """Connect to a coordinator and serve leases until shutdown or EOF.

    The entry point both for spawned workers (``multiprocessing`` target)
    and the ``python -m repro.worker`` CLI.
    """
    install_from_env()
    conn = CONNECT_POLICY.run(
        lambda: socket.create_connection((host, int(port))),
        retryable=(ConnectionRefusedError, TimeoutError),
    )
    try:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    cache = RunCache(max_entries=WORKER_CACHE_ENTRIES)
    #: batch id -> (kind, decoded context); only the latest few batches are
    #: kept, since leases only ever reference the current batch.
    contexts: Dict[int, Tuple[str, Any]] = {}
    buffer = bytearray()
    try:
        send_message(
            conn, {"type": "hello", "protocol": PROTOCOL_VERSION, "pid": os.getpid()}
        )
        while True:
            data = conn.recv(1 << 16)
            if not data:
                return
            for message in recv_messages(buffer, data):
                kind = message.get("type")
                if kind == "shutdown":
                    return
                if kind == "context":
                    batch = int(message["batch"])
                    contexts[batch] = (message["kind"], decode_payload(message["payload"]))
                    for stale in [b for b in contexts if b < batch - 2]:
                        del contexts[stale]
                    continue
                if kind == "lease":
                    lease_id = message["lease_id"]
                    batch = int(lease_id.split(":", 1)[0])
                    try:
                        lease_kind, context = contexts[batch]
                        payload = decode_payload(message["payload"])
                        result, _hits = execute_lease(
                            lease_kind, context, payload, cache
                        )
                        send_message(
                            conn,
                            {"type": "result", "lease_id": lease_id,
                             "payload": encode_payload(result)},
                        )
                    except FaultError:
                        # An injected worker fault models a *crash*, not a
                        # task error: unwind to the transport handler so the
                        # coordinator requeues the chunk on another worker.
                        raise
                    except Exception:
                        send_message(
                            conn,
                            {"type": "error", "lease_id": lease_id,
                             "error": traceback.format_exc(limit=20)},
                        )
    except (OSError, EOFError):  # coordinator went away; nothing to report to
        return
    finally:
        try:
            conn.close()
        except OSError:
            pass


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: ``python -m repro.worker --connect HOST:PORT``."""
    parser = argparse.ArgumentParser(
        prog="repro.worker",
        description="attach a worker process to a running repro coordinator",
    )
    parser.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator address printed by the distributed executor",
    )
    args = parser.parse_args(argv)
    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        parser.error(f"--connect expects HOST:PORT, got {args.connect!r}")
    worker_main(host, int(port))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
