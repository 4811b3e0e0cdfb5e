"""Load generator for the selector server: synthetic traffic, real numbers.

The serving claim worth measuring is twofold: selection stays cheap under
concurrency (p50/p99 selection latency, requests per second), and
duplication in the traffic never multiplies execution work (a trace with
50%+ duplicate inputs must execute each unique input at most once, the
duplicates answered by coalescing or run-cache recall).  This module
builds such traces and measures both claims against a live server.

Traces are index-shaped: each request names input ``index`` of the test's
per-index seeded population (:func:`repro.serving.protocol.index_input`),
so the trace itself is a list of small integers and the inputs are
materialized server-side, deterministically, exactly as training did.

:func:`run_load` is the reusable core: ``tests/serving/test_loadgen.py``
checks its metrics, and the ``scripts/loadgen.py`` CLI prints them and
writes them to ``--output``.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Dict, List, Optional

from repro.core.pipeline import DeployedProgram
from repro.runtime.telemetry import LatencyRecorder
from repro.serving import protocol
from repro.serving.client import ServingClient
from repro.serving.server import SelectorServer, ServerThread, ServingConfig


def build_trace(
    requests: int,
    unique_inputs: int,
    seed: int = 0,
) -> List[int]:
    """A deterministic request trace with a controlled duplication level.

    The first ``unique_inputs`` requests cover every distinct index once
    (so "unique inputs" means what it says); the rest draw uniformly from
    the same index pool.  With ``requests >= 2 * unique_inputs`` at least
    half the trace is duplicates -- the regime the coalescing acceptance
    check wants.  The trace is then deterministically shuffled, so
    duplicates interleave across clients instead of trailing the uniques.

    Args:
        requests: total trace length.
        unique_inputs: number of distinct input indices (0-based).
        seed: shuffle/draw seed.

    The trace's duplicate fraction is ``1 - unique_inputs / requests``;
    the metrics report it.
    """
    if requests < unique_inputs:
        raise ValueError("requests must be >= unique_inputs")
    if unique_inputs < 1:
        raise ValueError("unique_inputs must be >= 1")
    rng = random.Random(seed)
    trace = list(range(unique_inputs))
    trace += [rng.randrange(unique_inputs) for _ in range(requests - unique_inputs)]
    rng.shuffle(trace)
    return trace


def replay(
    host: str,
    port: int,
    test: str,
    trace: List[int],
    clients: int = 4,
    input_seed: int = 0,
) -> Dict[str, Any]:
    """Replay a trace against a running server from ``clients`` connections.

    The trace is dealt round-robin across client threads; each thread runs
    its share sequentially on its own connection.  Returns client-side
    observations: wall-clock per-request latency plus the server-reported
    per-request fields, and any error frames received.

    A dropped connection mid-trace does not kill the thread: the failed
    request is recorded as a ``client_error`` frame and the thread
    reconnects (under the client's connect retry policy) for the rest of
    its share.  Only when reconnection itself fails are the remaining
    requests written off as ``client_error`` frames too.
    """
    if clients < 1:
        raise ValueError("clients must be >= 1")
    shares: List[List[int]] = [trace[i::clients] for i in range(clients)]
    responses: List[List[Dict[str, Any]]] = [[] for _ in range(clients)]
    wall = LatencyRecorder()
    wall_lock = threading.Lock()

    def worker(slot: int) -> None:
        client: Optional[ServingClient] = ServingClient(host, port)
        try:
            for position, index in enumerate(shares[slot]):
                if client is None:
                    try:
                        client = ServingClient(host, port)
                    except OSError as error:
                        responses[slot].extend(
                            {"type": "client_error",
                             "error": f"reconnect failed: {type(error).__name__}: {error}"}
                            for _ in shares[slot][position:]
                        )
                        return
                started = time.perf_counter()
                try:
                    response = client.run(
                        test, protocol.index_input(index, seed=input_seed)
                    )
                except (ConnectionError, OSError) as error:
                    response = {
                        "type": "client_error",
                        "error": f"{type(error).__name__}: {error}",
                    }
                    try:
                        client.close()
                    except OSError:
                        pass
                    client = None
                elapsed = time.perf_counter() - started
                with wall_lock:
                    wall.record(elapsed)
                responses[slot].append(response)
        finally:
            if client is not None:
                client.close()

    threads = [
        threading.Thread(target=worker, args=(slot,), name=f"loadgen-{slot}")
        for slot in range(clients)
        if shares[slot]
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    duration = time.perf_counter() - started

    flat = [response for share in responses for response in share]
    errors = [r for r in flat if r.get("type") != "result"]
    return {
        "responses": flat,
        "errors": errors,
        "duration_seconds": duration,
        "client_wall": wall,
    }


def run_load(
    test: str,
    deployed: DeployedProgram,
    requests: int = 64,
    unique_inputs: int = 8,
    clients: int = 4,
    trace_seed: int = 0,
    input_seed: int = 0,
    config: Optional[ServingConfig] = None,
    allow_errors: bool = False,
) -> Dict[str, Any]:
    """Serve ``deployed`` under ``test``, replay a duplicate-heavy trace,
    and report latency/throughput/coalescing metrics.

    The returned metrics dict holds request counts,
    duration and throughput, selection/request latency percentiles in
    milliseconds, and the execution-dedup accounting -- ``executions`` (runs
    that actually ran), ``coalesced`` (answered by piggybacking on an
    in-flight twin), ``cache_hits`` (answered by run-cache recall), and
    ``each_unique_executed_at_most_once`` (the acceptance predicate:
    ``executions <= unique_inputs``).

    With ``allow_errors`` (chaos runs), error and ``client_error`` frames
    are counted in the metrics instead of raising, and the degraded-mode
    accounting (``degraded``, ``breaker_open``, breaker state) reports how
    the server shed the injected failures.
    """
    trace = build_trace(requests, unique_inputs, seed=trace_seed)
    server = SelectorServer(config=config)
    server.publish(test, deployed)
    with ServerThread(server):
        host, port = server.address
        replayed = replay(
            host, port, test, trace, clients=clients, input_seed=input_seed
        )
    if replayed["errors"] and not allow_errors:
        first = replayed["errors"][0]
        raise RuntimeError(
            f"{len(replayed['errors'])} request(s) failed; first: {first}"
        )

    telemetry = server.telemetry
    counters = telemetry.counters
    selection = telemetry.latencies.get("serve.selection", LatencyRecorder())
    execution = telemetry.latencies.get("serve.execution", LatencyRecorder())
    wall: LatencyRecorder = replayed["client_wall"]
    duration = replayed["duration_seconds"]
    executions = counters.get("runs_executed", 0)

    return {
        "test": test,
        "requests": requests,
        "unique_inputs": unique_inputs,
        "clients": clients,
        "duplicate_fraction": 1.0 - unique_inputs / requests,
        "duration_seconds": duration,
        "throughput_rps": requests / duration if duration > 0 else 0.0,
        "selection_p50_ms": selection.p50 * 1e3,
        "selection_p99_ms": selection.p99 * 1e3,
        "execution_p50_ms": execution.p50 * 1e3,
        "execution_p99_ms": execution.p99 * 1e3,
        "request_p50_ms": wall.p50 * 1e3,
        "request_p99_ms": wall.p99 * 1e3,
        "responses": len(replayed["responses"]),
        "executions": executions,
        "coalesced": counters.get("serve_coalesced", 0),
        "cache_hits": counters.get("serve_cache_hits", 0),
        "rejected": counters.get("serve_rejected", 0),
        "labels_clamped": counters.get("selector_labels_clamped", 0),
        "each_unique_executed_at_most_once": executions <= unique_inputs,
        "errors": len(replayed["errors"]),
        "client_errors": sum(
            1 for r in replayed["responses"] if r.get("type") == "client_error"
        ),
        "degraded": sum(1 for r in replayed["responses"] if r.get("degraded")),
        "breaker_open": counters.get("serve_breaker_open", 0),
        "breaker": server.breaker.snapshot(),
    }
