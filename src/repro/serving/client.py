"""Synchronous client for the selector server.

A thin blocking wrapper over one TCP connection: build frames with
:mod:`repro.serving.protocol`, write them, read newline-delimited
responses.  The tests, the load generator, and the CLI all talk to the
server through this class, so the wire format has exactly one
client-side implementation.

The client is deliberately single-connection and not thread-safe; the
load generator opens one client per simulated connection, which is also
the honest way to exercise the server's per-connection fan-out.
"""

from __future__ import annotations

import socket
import time
from typing import Any, Dict, Optional, Tuple

from repro.serving import protocol


class ServingClient:
    """One blocking connection to a :class:`~repro.serving.server.SelectorServer`.

    Usable as a context manager::

        with ServingClient(host, port) as client:
            response = client.run("sort2", protocol.index_input(3))

    A client racing server startup (or a restarting server rebinding its
    fixed port) makes up to five connect attempts, sleeping 0.1, 0.2, 0.4
    and 0.8 s between them, before a refused or timed-out connect raises.
    Once connected, transport errors surface to the caller (the load
    generator reconnects, tests fail loudly).
    """

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self.address: Tuple[str, int] = (host, int(port))
        for delay in (0.1, 0.2, 0.4, 0.8, None):
            try:
                self._sock = socket.create_connection(self.address, timeout=timeout)
                break
            except (ConnectionRefusedError, TimeoutError):
                if delay is None:
                    raise
                time.sleep(delay)
        self._reader = self._sock.makefile("rb")
        self._next_id = 0

    # -- plumbing ---------------------------------------------------------

    def send(self, message: Dict[str, Any]) -> None:
        """Write one request frame (without waiting for the response)."""
        self._sock.sendall(protocol.encode_message(message))

    def recv(self) -> Dict[str, Any]:
        """Read the next response frame.

        Raises:
            ConnectionError: if the server closed the connection.
        """
        line = self._reader.readline()
        if not line:
            raise ConnectionError(f"server at {self.address} closed the connection")
        return protocol.decode_message(line)

    def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """One synchronous round trip: send a frame, read one response."""
        self.send(message)
        return self.recv()

    def _allocate_id(self) -> int:
        self._next_id += 1
        return self._next_id

    # -- the protocol, method-shaped --------------------------------------

    def run(
        self,
        test: str,
        input_spec: Dict[str, Any],
        want_output: bool = False,
        request_id: Optional[Any] = None,
    ) -> Dict[str, Any]:
        """Run one input through the model serving ``test``.

        Returns the raw ``result`` (or ``error``) response dict; use
        :func:`repro.serving.protocol.decode_output` for the output payload.
        """
        if request_id is None:
            request_id = self._allocate_id()
        return self.request(
            protocol.run_request(request_id, test, input_spec, want_output=want_output)
        )

    def swap(self, test: str, deployed: Any) -> Dict[str, Any]:
        """Hot-swap the model serving ``test``; returns the ``swapped`` frame."""
        return self.request(protocol.swap_request(test, deployed))

    def stats(self) -> Dict[str, Any]:
        """The server's registry/telemetry snapshot."""
        return self.request({"type": "stats"})

    def ping(self) -> Dict[str, Any]:
        """Liveness probe; returns the ``pong`` frame."""
        return self.request({"type": "ping"})

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()
