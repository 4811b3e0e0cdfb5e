"""The benchmark workloads: what each pass runs and what it checks.

A *pass* is one complete unit of measured work:

* training workloads train and evaluate every test of the workload through
  :func:`repro.experiments.runner.run_experiment`;
* ``serve`` replays a seeded index trace against a fresh
  :class:`SelectorServer` from two closed-loop client connections.

This module also computes what ``run.py`` checks the passes against: the
training anchors, the deployed replay of each test's held-out inputs, and
the sequential reference answers of the serving trace.
"""

from __future__ import annotations

import gc
import hashlib
import random
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.pipeline import DeployedProgram
from repro.experiments.runner import ExperimentConfig, ExperimentResult, run_experiment
from repro.runtime import RunCache, Runtime, input_key
from repro.serving import protocol
from repro.serving.client import ServingClient
from repro.serving.server import SelectorServer, ServerThread

#: ExperimentConfig() defaults, spelled out so the header records them.
DEFAULT_SCALE: Dict[str, int] = {
    "n_inputs": 240,
    "n_clusters": 12,
    "tuner_generations": 8,
    "tuner_population": 8,
    "tuning_neighbors": 4,
    "max_subsets": 192,
}
#: A quarter of the default inputs and a third of its clusters (other
#: settings default): one train-fast pass takes about 4 s on a 2-vCPU
#: machine, so a run holds two or more passes of each input seed to take
#: the fastest of.
FAST_SCALE: Dict[str, int] = {**DEFAULT_SCALE, "n_inputs": 60, "n_clusters": 4}
#: A scale small enough to cost about a second, run once before timing so
#: that imports, lazy set-up and first calls are not measured.
WARMUP_SCALE: Dict[str, int] = {
    "n_inputs": 16,
    "n_clusters": 2,
    "tuner_generations": 1,
    "tuner_population": 4,
    "tuning_neighbors": 1,
    "max_subsets": 8,
}

#: Input seeds per training run: run seed s trains on input seeds
#: INPUT_SEEDS * s to INPUT_SEEDS * s + INPUT_SEEDS - 1, so that its time is
#: an average over several input sets rather than one set's luck.
INPUT_SEEDS = 3

#: At most two workers, threads or connections anywhere (nproc = 2).
WORKERS = 2

#: Serving trace: 1000 first-seen indices among 4000 requests, so p99 of one
#: pass has 40 samples beyond it.  The served model is trained on the
#: population of MODEL_SEED; the trace and the requested inputs come from
#: the run's seed.
SERVE_TEST = "sort2"
MODEL_SEED = 0
SERVE_REQUESTS = 4000
SERVE_UNIQUE = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    tests: Tuple[str, ...] = ()
    scale: Dict[str, int] = field(default_factory=dict)
    executor: str = "serial"
    workers: Optional[int] = None

    @property
    def training(self) -> bool:
        return bool(self.tests)

    def input_seeds(self, seed: int) -> List[int]:
        return [INPUT_SEEDS * seed + j for j in range(INPUT_SEEDS)]

    def describe(self) -> Dict[str, Any]:
        if not self.training:
            return {
                "model": SERVE_TEST,
                "model_scale": DEFAULT_SCALE,
                "model_seed": MODEL_SEED,
                "requests": SERVE_REQUESTS,
                "first_seen": SERVE_UNIQUE,
                "clients": WORKERS,
                "loop": "closed",
            }
        return {
            "tests": list(self.tests),
            "scale": self.scale,
            "executor": self.executor,
            "workers": self.workers,
        }


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("train-fast", ("sort1", "clustering1", "binpacking", "svd"), FAST_SCALE),
        # Same tests and scale as train-fast, so their anchors must agree.
        Workload(
            "train-pool", ("sort1", "clustering1"), FAST_SCALE, executor="process", workers=WORKERS
        ),
        Workload("serve"),
    )
}


def experiment_config(workload: Workload, seed: int) -> ExperimentConfig:
    """The run configuration, pinned so no ``REPRO_*`` variable leaks in."""
    return ExperimentConfig(
        seed=seed,
        executor=workload.executor,
        workers=workload.workers,
        batch_chunk=None,
        cache_max_entries=RunCache.DEFAULT_MAX_ENTRIES,
        stream_inputs=True,
        **workload.scale,
    )


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (the convention of the serving telemetry)."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(fraction * len(ordered))))
    return ordered[min(rank, len(ordered)) - 1]


def _digest(array: np.ndarray) -> str:
    data = np.ascontiguousarray(array, dtype=np.float64)
    return hashlib.sha256(str(data.shape).encode() + data.tobytes()).hexdigest()


def training_anchor(result: ExperimentResult) -> Dict[str, str]:
    """What must never move: the N x K matrices, the speedup, the selector."""
    dataset = result.training.dataset
    return {
        "times_sha256": _digest(dataset.times),
        "accuracies_sha256": _digest(dataset.accuracies),
        "mean_speedup": repr(result.mean_speedup("two_level")),
        "production": result.training.production_classifier.name,
    }


# -- training -------------------------------------------------------------


@dataclass
class TrainPass:
    wall: Dict[str, float]
    anchors: Dict[str, Dict[str, str]]
    stats: Dict[str, Dict[str, Any]]
    results: Dict[str, ExperimentResult]

    @property
    def train_s(self) -> float:
        return sum(self.wall.values())


def train_pass(workload: Workload, seed: int) -> TrainPass:
    """Train and evaluate every test of the workload."""
    wall: Dict[str, float] = {}
    anchors: Dict[str, Dict[str, str]] = {}
    stats: Dict[str, Dict[str, Any]] = {}
    results: Dict[str, ExperimentResult] = {}
    for test in workload.tests:
        gc.collect()  # every test starts from the same heap, whatever ran before
        started = time.perf_counter()
        try:
            result = run_experiment(test, experiment_config(workload, seed))
        except Exception as error:  # noqa: BLE001 - a raising test is a failed operation
            wall[test] = time.perf_counter() - started
            anchors[test] = {"error": f"{type(error).__name__}: {error}"}
            continue
        wall[test] = time.perf_counter() - started
        anchors[test] = training_anchor(result)
        stats[test] = result.runtime_stats
        results[test] = result
    return TrainPass(wall, anchors, stats, results)


def warm_up(workload: Workload, seed: int) -> None:
    """One untimed pass of the workload's tests (the served test on serve) at WARMUP_SCALE."""
    train_pass(replace(workload, tests=workload.tests or (SERVE_TEST,), scale=WARMUP_SCALE), seed)


def deploy_replay(results: Dict[str, ExperimentResult]) -> Tuple[int, int]:
    """Run each test's held-out inputs once through its trained deployed program.

    Requests go through a cache-less runtime, so every one selects and
    executes.  Each outcome must match the Level-1 matrix entry of the
    landmark the production classifier predicts for that row.  Returns
    ``(attempted, failed)``.
    """
    plans = []
    for result in results.values():
        training = result.training
        dataset = training.dataset
        rows = training.test_rows
        predictions = training.production_classifier.predict_rows(dataset, rows)
        deployed = DeployedProgram(
            training.deployed.program,
            training.landmarks,
            training.production_classifier,
            runtime=Runtime(),
        )
        for position, row in enumerate(rows):
            label = int(predictions.labels[position])
            expected = (
                label,
                float(dataset.times[row, label]),
                float(dataset.accuracies[row, label]),
                float(predictions.extraction_costs[position]),
            )
            plans.append((deployed, dataset.inputs[int(row)], expected))
    failed = 0
    for deployed, program_input, expected in plans:
        try:
            outcome = deployed.run(program_input)
        except Exception:  # noqa: BLE001 - a raising request is a failure
            failed += 1
            continue
        observed = (
            outcome.landmark_index,
            outcome.result.time,
            outcome.result.accuracy,
            outcome.feature_extraction_cost,
        )
        failed += observed != expected
    return len(plans), failed


# -- serving --------------------------------------------------------------


def serve_trace(seed: int) -> List[int]:
    """SERVE_UNIQUE first-seen indices, the rest repeats, seeded shuffle."""
    rng = random.Random(seed)
    trace = list(range(SERVE_UNIQUE))
    trace += [rng.randrange(SERVE_UNIQUE) for _ in range(SERVE_REQUESTS - SERVE_UNIQUE)]
    rng.shuffle(trace)
    return trace


def train_serving_model() -> ExperimentResult:
    """The served model: a fixed artefact, so its training does not vary by seed."""
    workload = Workload("serve-model", (SERVE_TEST,), DEFAULT_SCALE)
    return run_experiment(SERVE_TEST, experiment_config(workload, MODEL_SEED))


def serve_reference(deployed: DeployedProgram, seed: int) -> Dict[int, Tuple[int, float, float]]:
    """Sequential ``DeployedProgram.run`` on every index of the trace."""
    from repro.benchmarks_suite import get_benchmark

    sequential = DeployedProgram(
        deployed.program, deployed.landmarks, deployed.classifier, runtime=Runtime()
    )
    variant = get_benchmark(SERVE_TEST)
    source = variant.benchmark.input_source(SERVE_UNIQUE, variant.variant, seed=seed)
    reference = {}
    for index in range(SERVE_UNIQUE):
        outcome = sequential.run(source.materialize(index))
        reference[index] = (
            outcome.landmark_index,
            outcome.result.time,
            outcome.result.accuracy,
        )
    return reference


def serve_anchor(reference: Dict[int, Tuple[int, float, float]]) -> Dict[str, str]:
    digest = hashlib.sha256()
    for index in sorted(reference):
        landmark, seconds, accuracy = reference[index]
        digest.update(f"{index}:{landmark}:{seconds!r}:{accuracy!r};".encode())
    return {"responses_sha256": digest.hexdigest()}


@dataclass
class ServePass:
    #: (trace index, client wall seconds, response frame) in trace order;
    #: None where a client thread died before answering that position.
    records: List[Optional[Tuple[int, float, Dict[str, Any]]]]
    started: float
    duration: float
    stats: Dict[str, Any]

    def results(self) -> List[Tuple[int, float, Dict[str, Any]]]:
        """The records answered with a result frame."""
        return [r for r in self.records if r is not None and r[2].get("type") == "result"]

    def failures(self, reference: Dict[int, Tuple[int, float, float]]) -> int:
        failed = 0
        for record in self.records:
            if record is None:
                failed += 1
                continue
            index, _wall, response = record
            if response.get("type") != "result":
                failed += 1
                continue
            observed = (response["landmark"], response["time"], response["accuracy"])
            failed += observed != reference[index]
        return failed


def serve_pass(deployed: DeployedProgram, trace: List[int], seed: int) -> ServePass:
    """Replay ``trace`` on a fresh server from WORKERS closed-loop clients."""
    server = SelectorServer()
    server.publish(SERVE_TEST, deployed)
    records: List[Optional[Tuple[int, float, Dict[str, Any]]]] = [None] * len(trace)

    def client_loop(host: str, port: int, slot: int) -> None:
        client: Optional[ServingClient] = None
        try:
            for position in range(slot, len(trace), WORKERS):
                index = trace[position]
                begun = time.perf_counter()
                try:
                    if client is None:
                        client = ServingClient(host, port)
                    response = client.run(SERVE_TEST, protocol.index_input(index, seed=seed))
                except Exception as error:  # noqa: BLE001 - counted as a failed request
                    response = {"type": "client_error", "error": repr(error)}
                    if client is not None:
                        client.close()
                    client = None
                records[position] = (index, time.perf_counter() - begun, response)
        finally:
            if client is not None:
                client.close()

    with ServerThread(server):
        host, port = server.address
        threads = [
            threading.Thread(target=client_loop, args=(host, port, slot))
            for slot in range(WORKERS)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        duration = time.perf_counter() - started
        stats = server.stats()
    return ServePass(records, started, duration, stats)


def serve_microtimings(
    deployed: DeployedProgram, seed: int, records: Sequence[Tuple[int, float, Dict[str, Any]]]
) -> Dict[str, float]:
    """Median microseconds of the public functions one request passes through.

    Called directly in this process over the same trace: the request and
    response frames' encode and decode, the per-request input
    materialization, the coalescing key, the classifier, and
    ``Runtime.run_info`` on a cold and on a warm input.
    """
    from repro.benchmarks_suite import get_benchmark

    variant = get_benchmark(SERVE_TEST)
    runtime = Runtime(cache=RunCache())
    samples: Dict[str, List[float]] = {
        name: []
        for name in (
            "protocol.encode_us", "protocol.decode_us", "inputs.materialize_us",
            "runtime.input_key_us", "select.classify_us", "runtime.recall_us",
            "runtime.execute_us",
        )
    }
    clock = time.perf_counter
    seen = set()
    for position, (index, _wall, response) in enumerate(records):
        request = protocol.run_request(position, SERVE_TEST, protocol.index_input(index, seed=seed))
        t0 = clock()
        request_line = protocol.encode_message(request)
        response_line = protocol.encode_message(response)
        t1 = clock()
        protocol.decode_message(request_line)
        protocol.decode_message(response_line)
        t2 = clock()
        program_input = variant.benchmark.input_source(
            index + 1, variant.variant, seed=seed
        ).materialize(index)
        t3 = clock()
        input_key(program_input)
        t4 = clock()
        configuration, _label, _cost = deployed.select_configuration(program_input)
        t5 = clock()
        runtime.run_info(deployed.program, configuration, program_input, need_output=True)
        t6 = clock()
        samples["protocol.encode_us"].append(t1 - t0)
        samples["protocol.decode_us"].append(t2 - t1)
        samples["inputs.materialize_us"].append(t3 - t2)
        samples["runtime.input_key_us"].append(t4 - t3)
        samples["select.classify_us"].append(t5 - t4)
        samples["runtime.recall_us" if index in seen else "runtime.execute_us"].append(t6 - t5)
        seen.add(index)
    return {name: float(np.median(values)) * 1e6 for name, values in samples.items()}
