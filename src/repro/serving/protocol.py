"""Wire protocol of the selector server: newline-delimited JSON frames.

One JSON object per line over TCP (UTF-8, compact separators, a
terminating newline), so the wire stays ``nc``-friendly.  Python objects
ride in string fields as base64-encoded pickles (:func:`encode_payload` /
:func:`decode_payload`).

Client -> server message types:

* ``run``   -- classify one input and run the selected landmark program::

      {"type": "run", "id": 7, "test": "sort2",
       "input": {"encoding": "index", "index": 12, "seed": 999},
       "want_output": false}

  The ``input`` spec comes in two encodings.  ``"index"`` names input
  ``index`` of the test's per-index seeded population (variant defaults to
  the registered one) -- a few bytes on the wire however large the input
  is.  ``"pickle"`` carries the input itself in ``payload`` as a base64
  pickle.  :func:`decode_input` turns either back into the input.
* ``swap``  -- atomically hot-swap the model serving ``test``; ``payload``
  is a base64-pickled :class:`~repro.core.pipeline.DeployedProgram`.
* ``stats`` -- request the server's telemetry/registry snapshot.
* ``ping``  -- liveness probe.

Server -> client responses: ``result`` (fields below), ``swapped``,
``stats``, ``pong``, and ``error`` with an HTTP-flavoured ``code``
(400 malformed, 404 unknown test, 500 execution failure, 503 rejected by
admission control).  A ``result`` echoes the request ``id`` and carries
``landmark`` (chosen index), ``time`` / ``accuracy`` (the run's cost-model
measurements), ``feature_cost``, ``total_time``, ``cache_hit`` (recalled
from the shared run cache, not executed), ``coalesced`` (piggybacked on an
identical in-flight request), ``model_version`` (registry version that
answered), and ``selection_seconds`` / ``execution_seconds`` (wall-clock
telemetry split).  ``output`` (base64 pickle) appears only when the
request set ``want_output``.
"""

from __future__ import annotations

import base64
import json
import pickle
from typing import Any, Dict, Optional

#: Serving protocol version, checked via ``ping``/``pong``.
SERVING_PROTOCOL_VERSION = 1

#: ``error`` response codes (HTTP-flavoured, so dashboards read naturally).
BAD_REQUEST = 400
UNKNOWN_TEST = 404
EXECUTION_FAILED = 500
OVERLOADED = 503


def encode_payload(obj: Any) -> str:
    """Pickle + base64 an arbitrary Python object for a JSON message."""
    raw = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return base64.b64encode(raw).decode("ascii")


def decode_payload(text: str) -> Any:
    """Invert :func:`encode_payload`."""
    return pickle.loads(base64.b64decode(text.encode("ascii")))


def encode_message(message: Dict[str, Any]) -> bytes:
    """One wire frame: compact JSON plus the terminating newline."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_message(line: bytes) -> Dict[str, Any]:
    """Invert :func:`encode_message` for one received line.

    Raises:
        ValueError: if the line is not a JSON object.
    """
    message = json.loads(line.decode("utf-8"))
    if not isinstance(message, dict):
        raise ValueError("protocol messages must be JSON objects")
    return message


def index_input(index: int, seed: int = 0, variant: Optional[str] = None) -> Dict[str, Any]:
    """An ``input`` spec naming input ``index`` of a per-index population."""
    spec: Dict[str, Any] = {"encoding": "index", "index": int(index), "seed": int(seed)}
    if variant is not None:
        spec["variant"] = variant
    return spec


def pickle_input(program_input: Any) -> Dict[str, Any]:
    """An ``input`` spec carrying the input object itself."""
    return {"encoding": "pickle", "payload": encode_payload(program_input)}


def decode_input(spec: Any, test: Optional[str]) -> Any:
    """Materialize the input an ``input`` spec describes.

    An ``index`` spec rematerializes input ``index`` of ``test``'s
    per-index seeded population (``seed`` defaults to 0); a ``pickle``
    spec decodes its ``payload``.

    Raises:
        ValueError: on a malformed spec, naming the field at fault.
    """
    if not isinstance(spec, dict):
        raise ValueError("no input spec: expected a JSON object")
    encoding = spec.get("encoding")
    if encoding == "pickle":
        payload = spec.get("payload")
        if not isinstance(payload, str):
            raise ValueError("pickle input spec needs a 'payload'")
        try:
            return decode_payload(payload)
        except Exception as error:
            raise ValueError(f"undecodable input 'payload': {error!r}") from None
    if encoding == "index":
        try:
            index = int(spec["index"])
        except (KeyError, TypeError, ValueError):
            raise ValueError("index input spec needs an integer 'index'") from None
        if index < 0:
            raise ValueError("input 'index' must be non-negative")
        try:
            seed = int(spec.get("seed", 0))
        except (TypeError, ValueError):
            raise ValueError("index input spec needs an integer 'seed'") from None
        if not isinstance(test, str):
            raise ValueError("index input spec needs a 'test' name")
        from repro.benchmarks_suite import get_benchmark  # lazy: heavy import

        try:
            variant = get_benchmark(test)
        except KeyError:
            raise ValueError(f"index input spec names an unknown 'test' {test!r}") from None
        try:
            source = variant.benchmark.input_source(
                index + 1, spec.get("variant") or variant.variant, seed=seed
            )
        except (KeyError, TypeError) as error:
            raise ValueError(f"index input spec 'variant': {error}") from None
        return source.materialize(index)
    raise ValueError(f"unknown input encoding {encoding!r}")


def run_request(
    request_id: Any,
    test: str,
    input_spec: Dict[str, Any],
    want_output: bool = False,
) -> Dict[str, Any]:
    """Build a ``run`` request frame."""
    message: Dict[str, Any] = {
        "type": "run",
        "id": request_id,
        "test": test,
        "input": input_spec,
    }
    if want_output:
        message["want_output"] = True
    return message


def swap_request(test: str, deployed: Any) -> Dict[str, Any]:
    """Build a ``swap`` request frame carrying a pickled deployed program."""
    return {"type": "swap", "test": test, "payload": encode_payload(deployed)}


def error_response(code: int, error: str, request_id: Any = None) -> Dict[str, Any]:
    """Build an ``error`` response frame."""
    message: Dict[str, Any] = {"type": "error", "code": int(code), "error": error}
    if request_id is not None:
        message["id"] = request_id
    return message


def decode_output(response: Dict[str, Any]) -> Any:
    """The program output carried by a ``result`` response (or None)."""
    payload = response.get("output")
    return decode_payload(payload) if payload is not None else None
