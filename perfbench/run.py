"""Benchmark driver: one workload, one seed, end-to-end or per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train-fast --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of untraced passes.
``--trace 1`` runs the same untraced passes, then one pass with timing
spans around the program's public functions, and prints the per-layer
metrics.  Every run checks its outputs against the recorded anchors
(``anchors.json``) and against each other; the last line of standard output
is one JSON object, and the exit code is non-zero when any output is wrong.

``--record-anchors`` stores the anchors a serial workload observed for this
seed (``train-pool`` cannot record: it is checked against ``train-fast``).
"""

from __future__ import annotations

import argparse
import gc
import glob
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ANCHORS = HERE / "anchors.json"
#: Metric names and units come from here; metrics.json documents what each
#: metric measures and what it should move.
BENCHMARK = ROOT / "BENCHMARK.json"

#: Seeds used while sizing and tuning this benchmark, and one held out so
#: later claims can be checked on a seed the benchmark was never tuned on.
TUNING_SEEDS = (1, 2, 3, 4, 5)
HOLDOUT_SEED = 97

#: Set-ups measured per run; setup_s is their median.
SETUP_REPEATS = 7

#: Trainings of the served model per replay pass on serve.  A training
#: takes about as long as a pass, and train_s is the fastest of them while
#: the request metrics pool every pass, so the trainings need the samples.
TRAININGS_PER_PASS = 2


def _load_program() -> Any:
    """Import the program from ``src/``; None when it is not there."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads  # noqa: F401 - imports repro
    except ImportError as error:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {error}", file=sys.stderr)
        return None
    return workloads


# -- environment ------------------------------------------------------------


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "n/a (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
    except OSError:  # no git on this machine
        return "unknown"
    return done.stdout.strip() or "unknown"


def environment(workload: Any, seed: int) -> Dict[str, Any]:
    import numpy
    import scipy

    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "workload": workload.name,
        "config": workload.describe(),
        "seed": seed,
        "input_seeds": workload.input_seeds(seed) if workload.training else [seed],
        "tuning_seeds": list(TUNING_SEEDS),
        "holdout_seed": HOLDOUT_SEED,
    }


# -- set-up and memory --------------------------------------------------------

_IMPORTS = "import repro.experiments.runner, repro.serving.server, repro.benchmarks_suite"


def _setup_once(wl: Any, workload: Any) -> float:
    """Imports in a fresh interpreter, registry, then pool or server start.

    The served model's training is not part of it: ``serve`` reports it as
    train_s.
    """
    from concurrent.futures import ProcessPoolExecutor

    from repro.benchmarks_suite import get_benchmark

    started = time.perf_counter()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", _IMPORTS], env=env, cwd=ROOT, check=True)
    for test in workload.tests or (wl.SERVE_TEST,):
        get_benchmark(test).benchmark.program
    if workload.executor == "process":
        with ProcessPoolExecutor(max_workers=workload.workers) as pool:
            list(pool.map(abs, range(workload.workers)))
    if not workload.training:
        server = wl.SelectorServer()
        with wl.ServerThread(server):
            pass
    return time.perf_counter() - started


def _pss_kb(pid: str) -> int:
    """Proportional set size: pages shared with forked workers count once."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as rollup:
            for line in rollup:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:  # the process exited between listing and reading
        pass
    return 0


class RssSampler:
    """Peak resident memory (summed PSS) of this process plus its live children.

    ``take()`` returns the peak since the previous ``take()``, so a run can
    report one peak per pass.
    """

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self.peak_kb = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _sample(self) -> None:
        total = _pss_kb("self")
        for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
            try:
                with open(path) as children:
                    total += sum(_pss_kb(pid) for pid in children.read().split())
            except OSError:
                pass
        with self._lock:
            self.peak_kb = max(self.peak_kb, total)

    def take(self) -> float:
        """Peak in MB since the last call, then start a new peak."""
        self._sample()
        with self._lock:
            peak, self.peak_kb = self.peak_kb, 0
        return peak / 1024.0

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *_exc: Any) -> None:
        self._stop.set()
        self._thread.join()


# -- anchors ----------------------------------------------------------------


def load_anchors() -> Dict[str, Any]:
    if ANCHORS.exists():
        return json.loads(ANCHORS.read_text())
    return {"training": {}, "serve": {}}


def record_anchors(workload: Any, seed: int, observed: Dict[Any, Any]) -> None:
    """Merge one run's anchors into ``anchors.json`` (re-read just before).

    A training run observes ``{input seed: {test: anchor}}``; serve observes
    one anchor for its seed.
    """
    anchors = load_anchors()
    if workload.training:
        for input_seed, tests in observed.items():
            for test, anchor in tests.items():
                anchors["training"].setdefault(test, {})[str(input_seed)] = anchor
    else:
        anchors["serve"][str(seed)] = observed
    ANCHORS.write_text(json.dumps(anchors, indent=1, sort_keys=True) + "\n")


class Checks:
    """Counts operations and failures, and says why each failure happened."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"MISMATCH {what}")

    def bulk(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(f"FAILED {failed}/{attempted} {what}")


# -- training ----------------------------------------------------------------


def _runtime_counts(stats: List[Dict[str, Any]]) -> Tuple[Dict[str, float], int]:
    counters: Dict[str, int] = {}
    retries = 0
    fallback = 0
    for info in stats:
        for name, value in info["telemetry"]["counters"].items():
            counters[name] = counters.get(name, 0) + value
        retries += info.get("retries", {}).get("retry_retries", 0)
        fallback = max(fallback, int("executor_fallback" in info))
    requested = counters.get("runs_requested", 0)
    tasks = counters.get("tasks_requested", 0)
    return {
        "runtime.runs_requested": requested,
        "runtime.runs_executed": counters.get("runs_executed", 0),
        "runtime.cache_hit_ratio": counters.get("cache_hits", 0) / requested if requested else 0.0,
        "runtime.tasks_executed": counters.get("tasks_executed", 0),
        "runtime.task_hit_ratio": counters.get("task_cache_hits", 0) / tasks if tasks else 0.0,
        "runtime.retries": retries,
    }, fallback


#: Span name -> per-layer metric, summed as self time.
SELF_METRICS = {
    "kernel.run": "kernel.run_s",
    "level1.tune": "autotuner.self_s",
    "runtime.keys": "runtime.keys_s",
    "runtime.cache": "runtime.cache_s",
    "ml.kmeans": "ml.kmeans_s",
    "runtime.dispatch": "runtime.dispatch_s",
    "lang.extract": "lang.extract_s",
    "inputs.generate": "inputs.generate_s",
}
#: Span name -> per-layer metric, summed as inclusive time.
PHASE_METRICS = {
    "level1.features": "level1.features_s",
    "level1.cluster": "level1.cluster_s",
    "level1.tune": "level1.tune_s",
    "level1.measure": "level1.measure_s",
    "level2.train": "level2.train_s",
    "level2.zoo": "level2.zoo_s",
    "evaluate.methods": "evaluate.methods_s",
}


def span_metrics(tracer: Any) -> Dict[str, float]:
    selfs = tracer.self_times()
    inclusive = tracer.inclusive_times()
    values: Dict[str, float] = {m: selfs.get(s, 0.0) for s, m in SELF_METRICS.items()}
    values.update({m: inclusive.get(s, 0.0) for s, m in PHASE_METRICS.items()})
    values["kernel.runs"] = tracer.counts().get("kernel.run", 0)
    return values


def _expected_anchors(wl: Any, workload: Any, seeds: List[int], recorded: Dict[str, Any],
                      checks: Checks) -> Dict[int, Dict[str, Any]]:
    """Each test's anchor at each input seed, as train-fast (serial) produces it.

    Recorded anchors are used where they exist.  A process-pool workload at
    an unrecorded seed computes them with an untimed serial pass, so that
    serial = process is checked on every seed.
    """
    expected = {}
    for seed in seeds:
        mine = {test: recorded.get(test, {}).get(str(seed)) for test in workload.tests}
        if workload.executor != "serial" and None in mine.values():
            mine = dict(wl.train_pass(replace(workload, executor="serial", workers=None), seed).anchors)
        missing = [test for test, anchor in mine.items() if anchor is None]
        if missing:
            checks.notes.append(f"no recorded anchor for {', '.join(missing)} at seed {seed}")
        expected[seed] = mine
    return expected


def run_training(wl: Any, workload: Any, seed: int, seconds: float, trace: bool, anchors: Dict[str, Any],
                 checks: Checks, memory: RssSampler) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, Any]]:
    seeds = workload.input_seeds(seed)
    expected = _expected_anchors(wl, workload, seeds, anchors.get("training", {}), checks)
    wl.warm_up(workload, seed)
    # Passes rotate over the input seeds until the window is used, and
    # every input seed gets at least two, so the inputs depend on the seed
    # alone and every test time below is a minimum of two or more.
    passes: Dict[int, List[Any]] = {input_seed: [] for input_seed in seeds}
    peaks: List[float] = []
    started = time.perf_counter()
    for count in itertools.count(1):
        input_seed = seeds[(count - 1) % len(seeds)]
        begun = time.perf_counter()
        memory.take()
        current = wl.train_pass(workload, input_seed)
        peaks.append(memory.take())
        mine = passes[input_seed]
        mine.append(current)
        for test, anchor in current.anchors.items():
            if "error" in anchor:
                checks.check(False, f"{test} raised {anchor['error']}")
            elif expected[input_seed][test] is not None:
                checks.check(anchor == expected[input_seed][test],
                             f"{test} seed {input_seed} differs from the serial anchor")
            else:
                checks.check(True, test)
            if len(mine) > 1:
                checks.check(anchor == mine[0].anchors[test], f"{test} seed {input_seed} differs between passes")
        if len(mine) == 1:
            checks.bulk(*wl.deploy_replay(current.results), "deployed runs differ from the training matrix")
        current.results.clear()  # so that every later pass peaks in memory alike
        took = time.perf_counter() - begun
        if count >= 2 * len(seeds) and time.perf_counter() - started + took > seconds:
            break

    # Every pass of one input seed repeats the same work with the same
    # outputs, so other load on the machine can only add to a test's time:
    # its fastest pass is the least disturbed measurement (min of N).  A
    # test's time is that, averaged over the input seeds, and train_s sums
    # the tests.  The request metrics must read on every workload.  A
    # request of a training workload is one test's train-and-evaluate job,
    # a user asking for a trained model; the percentiles interpolate over
    # the tests.
    per_test = {
        t: statistics.mean(min(p.wall[t] for p in runs) for runs in passes.values()) for t in workload.tests
    }
    jobs = sorted(per_test.values())
    e2e = {
        "train_s": sum(jobs),
        "peak_rss_mb": statistics.median(peaks),
        "request_p50_ms": statistics.median(jobs) * 1e3,
        "request_p99_ms": statistics.quantiles(jobs, n=100, method="inclusive")[98] * 1e3,
        "serve_rps": len(jobs) / sum(jobs),
    }
    first = passes[seeds[0]]
    info = {
        "passes": {input_seed: len(runs) for input_seed, runs in passes.items()},
        "peak_rss_mb_per_pass": peaks,
        "per_test_s": per_test,
        "requests": len(jobs),
        "anchors": {input_seed: runs[0].anchors for input_seed, runs in passes.items()},
    }
    layers: Dict[str, float] = {}
    if trace:
        from tracer import Tracer

        with Tracer() as tracer:
            traced_start = time.perf_counter()
            traced = wl.train_pass(workload, seeds[0])
            traced_end = time.perf_counter()
        for test, anchor in traced.anchors.items():
            checks.check(anchor == first[0].anchors[test], f"{test} traced differs from untraced")
        counts, fallback = _runtime_counts(list(first[0].stats.values()))
        info["runtime.executor_fallback"] = fallback
        info["runs_executed_per_test"] = {
            t: s["telemetry"]["counters"].get("runs_executed", 0) for t, s in first[0].stats.items()
        }
        layers.update(span_metrics(tracer))
        layers.update(counts)
        layers.update({f"test.{t}_s": s for t, s in info["per_test_s"].items()})
        layers["trace.overhead"] = traced.train_s / statistics.median(p.train_s for p in first) - 1.0
        layers["trace.untraced_s"] = tracer.uncovered(traced_start, traced_end)
    return e2e, layers, info


# -- serving -----------------------------------------------------------------


def _serve_fields(first_pass: Any) -> Dict[str, float]:
    select, execute, outside, hits, misses = [], [], [], [], []
    for _index, wall, response in first_pass.results():
        select.append(response["selection_seconds"])
        execute.append(response["execution_seconds"])
        outside.append(wall - response["selection_seconds"] - response["execution_seconds"])
        repeat = response["cache_hit"] or response["coalesced"]
        (hits if repeat else misses).append(wall)
    first = first_pass.stats["runtime"]["telemetry"]["counters"]
    p50 = lambda values: statistics.median(values) * 1e3 if values else 0.0  # noqa: E731
    return {
        "serve.select_p50_ms": p50(select),
        "serve.execute_p50_ms": p50(execute),
        "serve.outside_p50_ms": p50(outside),
        "serve.hit_p50_ms": p50(hits),
        "serve.miss_p50_ms": p50(misses),
        "serve.executions": first.get("runs_executed", 0),
        "serve.coalesced": first.get("serve_coalesced", 0),
        "serve.cache_hit_ratio": first.get("serve_cache_hits", 0) / max(1, first.get("serve_requests", 0)),
        "serve.rejected": first.get("serve_rejected", 0),
    }


def run_serving(wl: Any, seed: int, seconds: float, trace: bool, anchors: Dict[str, Any],
                checks: Checks, memory: RssSampler) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, Any]]:
    wl.warm_up(wl.WORKLOADS["serve"], seed)
    trace_indices = wl.serve_trace(seed)
    # Each cycle of the measured window trains the served model
    # TRAININGS_PER_PASS times and replays the trace once, so that both are
    # sampled across the whole window.  The first model is the one served;
    # every later training must reproduce it.  Only a traced run keeps
    # response frames, of its first pass (for the per-layer fields), so
    # every cycle of an untraced run peaks in memory alike.
    trainings: List[float] = []
    model_anchor = first_pass = None
    walls: List[float] = []
    durations: List[float] = []
    peaks: List[float] = []
    started = time.perf_counter()
    while True:
        begun = time.perf_counter()
        training_peak = 0.0
        for _ in range(TRAININGS_PER_PASS):
            gc.collect()  # each training and each replay starts from the same heap
            memory.take()
            trained = time.perf_counter()
            model = wl.train_serving_model()
            trainings.append(time.perf_counter() - trained)
            training_peak = max(training_peak, memory.take())
            if model_anchor is None:
                model_anchor = wl.training_anchor(model)
                deployed = model.training.deployed
                reference = wl.serve_reference(deployed, seed)
                anchor = wl.serve_anchor(reference)
                expected = anchors.get("serve", {}).get(str(seed))
                if expected is not None:
                    checks.check(anchor == expected, f"serve seed {seed} differs from its recorded anchor")
                else:
                    checks.check(True, "serve reference")
                    checks.notes.append(f"no recorded anchor for serve at seed {seed}")
            else:
                checks.check(wl.training_anchor(model) == model_anchor, "served model differs between trainings")
            del model  # so that every cycle peaks in memory alike

        gc.collect()
        memory.take()
        current = wl.serve_pass(deployed, trace_indices, seed)
        peaks.append(max(training_peak, memory.take()))
        checks.bulk(len(current.records), current.failures(reference),
                    "responses differ from sequential DeployedProgram.run, were refused or never came")
        walls += [w for _i, w, _r in current.results()]
        durations.append(current.duration)
        if trace and first_pass is None:
            first_pass = current
        del current
        took = time.perf_counter() - begun
        if time.perf_counter() - started + took > seconds:
            break
    # The trainings are identical work, so the fastest is the least
    # disturbed; request percentiles pool every pass's requests, and
    # throughput is over the summed replay time.
    e2e = {
        "train_s": min(trainings),
        "peak_rss_mb": statistics.median(peaks),
        "request_p50_ms": wl.percentile(walls, 0.50) * 1e3,
        "request_p99_ms": wl.percentile(walls, 0.99) * 1e3,
        "serve_rps": len(walls) / sum(durations),
    }
    info = {"passes": len(durations), "requests": len(walls), "anchors": anchor, "trainings_s": trainings,
            "peak_rss_mb_per_pass": peaks}
    layers: Dict[str, float] = {}
    if trace:
        from tracer import Tracer

        with Tracer() as tracer:
            traced = wl.serve_pass(deployed, trace_indices, seed)
        checks.bulk(len(traced.records), traced.failures(reference), "traced responses differ")
        counts, _fallback = _runtime_counts([first_pass.stats["runtime"]])
        layers.update(span_metrics(tracer))
        layers.update(counts)
        layers.update(_serve_fields(first_pass))
        layers.update(wl.serve_microtimings(deployed, seed, first_pass.results()))
        layers["trace.overhead"] = traced.duration / statistics.median(durations) - 1.0
        layers["trace.untraced_s"] = tracer.uncovered(traced.started, traced.started + traced.duration)
    return e2e, layers, info


# -- main --------------------------------------------------------------------


def _declared() -> Dict[str, Any]:
    return json.loads(BENCHMARK.read_text())


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-anchors", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    wl = _load_program()
    if wl is None:
        return 2
    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload]
    if args.record_anchors and workload.executor != "serial":
        parser.error("only serial workloads record anchors")
    declared = _declared()
    print("# env " + json.dumps(environment(workload, args.seed), sort_keys=True), flush=True)

    anchors = load_anchors()
    checks = Checks()
    setups = [_setup_once(wl, workload) for _ in range(SETUP_REPEATS)]
    with RssSampler() as memory:
        if workload.training:
            e2e, layers, info = run_training(
                wl, workload, args.seed, args.seconds, bool(args.trace), anchors, checks, memory
            )
        else:
            e2e, layers, info = run_serving(
                wl, args.seed, args.seconds, bool(args.trace), anchors, checks, memory
            )
    e2e["setup_s"] = statistics.median(setups)
    layers["fail_rate"] = checks.failed / max(1, checks.attempted)
    info["setup_samples_s"] = setups
    print("# run " + json.dumps(info, sort_keys=True, default=str), flush=True)
    for note in checks.notes:
        print("# check " + note)

    kind = "per_layer" if args.trace else "end_to_end"
    values = layers if args.trace else e2e
    metrics = {}
    for entry in declared[kind]:
        value = float(values.get(entry["name"], 0.0))
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{args.workload:10s} {entry['name']:26s} {value:14.6f} {entry['unit']}")
    print(f"# fail_rate {layers['fail_rate']:.6f} ({checks.failed}/{checks.attempted})")

    if args.record_anchors and checks.failed == 0:
        record_anchors(workload, args.seed, info["anchors"])

    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
