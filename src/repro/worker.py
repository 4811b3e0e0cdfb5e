"""Distributed-executor worker: connect, lease chunks, stream results back.

One worker process serves one coordinator (see
:mod:`repro.runtime.distributed` for the protocol).  The coordinator spawns
workers through ``multiprocessing`` by default, but any machine-local
process can attach to a running coordinator::

    python -m repro.worker --connect 127.0.0.1:PORT

The worker keeps no run cache: the coordinator's runtime recalls cached
runs and removes duplicates before it dispatches, and it stores what the
worker sends back.
"""

from __future__ import annotations

import argparse
import os
import socket
import traceback
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.resilience.faults import FaultError, install_from_env, maybe_fail
from repro.resilience.retry import RetryPolicy
from repro.runtime.distributed import (
    PROTOCOL_VERSION,
    decode_payload,
    encode_payload,
    recv_messages,
    send_message,
)
from repro.runtime.executors import _invoke_call, _substitute_shared
from repro.runtime.runtime import _strip_output

#: Connect retry: a worker racing a restarting coordinator (fixed-port
#: rebind) or a briefly saturated listen backlog retries with backoff
#: instead of dying on the first ConnectionRefusedError.
CONNECT_POLICY = RetryPolicy(max_attempts=5, base_delay=0.1, max_delay=1.0)


def execute_lease(kind: str, context: Any, payload: Any) -> Any:
    """Execute one chunk lease and return its result.

    The two kinds mirror :mod:`repro.runtime.distributed`:

    * ``pairs`` -- run each (config, input) task of the chunk through the
      context program; results travel without their outputs.
    * ``calls`` -- invoke each generic call task, resolving
      :class:`~repro.runtime.SharedRef` arguments against the context
      registry.
    """
    # Fault site: an injected raise here unwinds as a worker death (the
    # chunk requeues on another worker); an injected kill is a hard crash.
    maybe_fail("worker.execute", detail=kind)
    if kind == "pairs":
        return [
            _strip_output(context.run(config, program_input))
            for config, program_input in payload
        ]
    if kind == "calls":
        shared: Dict[str, Any] = context or {}
        return [_invoke_call(_substitute_shared(call, shared)) for call in payload]
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
                        result = execute_lease(lease_kind, context, payload)
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
