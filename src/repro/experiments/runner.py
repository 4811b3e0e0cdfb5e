"""Shared experiment orchestration.

:func:`run_experiment` takes one of the paper's eight test names (``sort1``,
``sort2``, ``clustering1``, ``clustering2``, ``binpacking``, ``svd``,
``poisson2d``, ``helmholtz3d``), trains the two-level system on a training
split of generated inputs, and evaluates four methods on the held-out test
split:

* the **static oracle** (baseline for every speedup number),
* the **dynamic oracle**,
* the **two-level** production classifier (with and without charging feature
  extraction),
* the **one-level** baseline (with and without charging feature extraction).

The result object carries per-input times and speedups so Table 1, Figure 6,
and Figure 8 can all be derived from the same run.
"""

from __future__ import annotations

import contextlib
import os
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, Optional

import numpy as np

from repro.benchmarks_suite import get_benchmark
from repro.core.baselines import DynamicOracle, OneLevelLearning, StaticOracle
from repro.core.inputs import ObservedInputSource
from repro.core.level1 import Level1Config
from repro.core.level2 import Level2Config
from repro.core.pipeline import InputAwareLearning, TrainingResult
from repro.runtime import EXECUTORS, RunCache, Runtime, default_runtime


def _env_executor() -> str:
    """``REPRO_EXECUTOR`` when it names an executor, else ``"serial"``.

    An unknown name warns and runs serially instead of failing after the
    command line parsed.  Shared by ``ExperimentConfig`` and the CLI.
    """
    value = os.environ.get("REPRO_EXECUTOR", "").strip().lower()
    if not value:
        return "serial"
    if value not in EXECUTORS:
        warnings.warn(
            f"ignoring REPRO_EXECUTOR={value!r}: not one of {sorted(EXECUTORS)}"
        )
        return "serial"
    return value


def _env_int(
    name: str, default: Optional[int], minimum: Optional[int] = None
) -> Optional[int]:
    """The integer in environment variable ``name``, or ``default``.

    Unset gives ``default`` silently; a non-integer value, or one below
    ``minimum``, gives it with a warning instead of crashing before any
    useful output.  Shared by ``ExperimentConfig`` and the CLI defaults.
    """
    value = os.environ.get(name, "").strip()
    if not value:
        return default
    try:
        parsed = int(value)
    except ValueError:
        warnings.warn(f"ignoring non-integer {name}={value!r}")
        return default
    if minimum is not None and parsed < minimum:
        warnings.warn(f"ignoring {name}={value!r}: must be >= {minimum}")
        return default
    return parsed


def _env_workers() -> Optional[int]:
    """``REPRO_WORKERS`` (>= 1), or None for the CPU count."""
    return _env_int("REPRO_WORKERS", None, minimum=1)


def _env_batch_chunk() -> Optional[int]:
    """``REPRO_BATCH_CHUNK`` (>= 1), or None for the runtime's default chunk."""
    return _env_int("REPRO_BATCH_CHUNK", None, minimum=1)


def _env_cache_max_entries() -> Optional[int]:
    """``REPRO_CACHE_MAX_ENTRIES`` as an entry cap, or the built-in default.

    Zero or negative means "unbounded" (an explicit opt-out of the LRU
    cap); unset or malformed falls back to
    :attr:`repro.runtime.RunCache.DEFAULT_MAX_ENTRIES`.
    """
    parsed = _env_int("REPRO_CACHE_MAX_ENTRIES", RunCache.DEFAULT_MAX_ENTRIES)
    return parsed if parsed > 0 else None


def _env_stream_inputs() -> bool:
    """``REPRO_STREAM_INPUTS``: falsy values opt out of lazy input sources."""
    value = os.environ.get("REPRO_STREAM_INPUTS", "").strip().lower()
    return value not in ("0", "false", "no", "off")


@dataclass
class ExperimentConfig:
    """Size and seed knobs shared by all experiment drivers.

    The defaults are deliberately small-but-representative so the whole
    Table-1 matrix runs in minutes; raise ``n_inputs`` and ``n_clusters``
    to approach the paper's scale (50-60k inputs, 100 landmarks).

    Execution knobs (see ``repro.runtime``): ``executor`` picks the run
    strategy (``serial`` -- the bit-identical default -- or ``process``),
    ``workers`` sizes its pool, both overridable via the
    ``REPRO_EXECUTOR`` / ``REPRO_WORKERS`` environment variables;
    ``use_cache`` deduplicates identical runs within and across pipeline
    stages, and ``cache_path`` persists measurements to an SQLite database
    file shared by later runs.  The runtime saves that store at every chunk
    boundary, so a killed run resumes by running it again.
    The executor carries every program run -- the autotuner's objective
    evaluations among them -- *and* Level 2's candidate search, one task
    per candidate, so a parallel executor accelerates training end to end,
    with results identical to serial by construction.

    ``batch_chunk`` (``--batch-chunk`` / ``REPRO_BATCH_CHUNK``; None means
    :data:`repro.runtime.runtime.DEFAULT_BATCH_CHUNK`) sizes the streaming
    measurement batches: the N x K1 matrix and every other batch of runs
    is dispatched in chunks of at most this many runs, bounding peak
    memory by O(chunk) on the way to the paper's 50-60k-input regime.
    Results are bit-identical whatever the chunk size and the executor.

    The remaining two memory knobs complete that story end to end.
    ``stream_inputs`` (on by default; ``--no-stream-inputs`` /
    ``REPRO_STREAM_INPUTS=0`` opt out) feeds the pipeline a lazy
    :class:`~repro.core.inputs.InputSource` instead of a materialized input
    list, so the inputs themselves are regenerated per index/chunk rather
    than pinned for the whole run.  ``cache_max_entries``
    (``--cache-max-entries`` / ``REPRO_CACHE_MAX_ENTRIES``; <= 0 for
    unbounded) caps the in-memory run cache.  With all three, a run's
    peak memory is O(chunk) inputs + O(chunk) transient results +
    O(cache cap) -- not O(N) -- with bit-identical outputs.
    """

    n_inputs: int = 240
    n_clusters: int = 12
    seed: int = 0
    test_fraction: float = 0.5
    tuner_generations: int = 8
    tuner_population: int = 8
    tuning_neighbors: int = 4
    max_subsets: int = 192
    executor: str = field(default_factory=_env_executor)
    workers: Optional[int] = field(default_factory=_env_workers)
    use_cache: bool = True
    cache_path: Optional[str] = None
    batch_chunk: Optional[int] = field(default_factory=_env_batch_chunk)
    cache_max_entries: Optional[int] = field(default_factory=_env_cache_max_entries)
    stream_inputs: bool = field(default_factory=_env_stream_inputs)

    def make_runtime(self) -> Runtime:
        """Build the measurement runtime these knobs describe."""
        return Runtime.create(
            executor=self.executor,
            workers=self.workers,
            use_cache=self.use_cache,
            max_entries=self.cache_max_entries,
            cache_path=self.cache_path,
            batch_chunk=self.batch_chunk,
        )

    @contextlib.contextmanager
    def runtime_scope(self, runtime: Optional[Runtime] = None) -> Iterator[Runtime]:
        """Yield ``runtime``, or own a fresh one built from these knobs.

        An owned runtime is persisted (when ``cache_path`` is set) and
        closed on exit; a caller-provided runtime is yielded untouched so
        it can be shared across several experiments.
        """
        if runtime is not None:
            yield runtime
            return
        owned = self.make_runtime()
        try:
            yield owned
        finally:
            if self.cache_path:
                owned.save_cache()
            owned.close()

    def level1(self) -> Level1Config:
        """Materialize the Level-1 configuration."""
        return Level1Config(
            n_clusters=self.n_clusters,
            seed=self.seed,
            tuner_generations=self.tuner_generations,
            tuner_population=self.tuner_population,
            tuning_neighbors=self.tuning_neighbors,
        )

    def level2(self) -> Level2Config:
        """Materialize the Level-2 configuration."""
        return Level2Config(max_subsets=self.max_subsets, seed=self.seed)


@dataclass
class MethodOutcome:
    """Per-input evaluation of one method on the test split.

    Attributes:
        name: method name.
        times: per-input cost including feature extraction where the method
            pays for it.
        times_no_extraction: per-input cost ignoring feature extraction.
        satisfaction_rate: fraction of test inputs meeting the accuracy
            threshold under this method.
    """

    name: str
    times: np.ndarray
    times_no_extraction: np.ndarray
    satisfaction_rate: float


@dataclass
class ExperimentResult:
    """Everything produced by one test's experiment run.

    ``runtime_stats`` is the measurement runtime's snapshot at the end of
    this experiment (executor, run counts, cache hit rate, per-phase wall
    time).  When a shared runtime was passed in (e.g. by ``run_table1``),
    the snapshot is cumulative across everything that runtime has executed
    so far, not scoped to this experiment alone.
    """

    test_name: str
    training: TrainingResult
    methods: Dict[str, MethodOutcome]
    test_rows: np.ndarray
    runtime_stats: Dict[str, Any] = field(default_factory=dict)

    def speedups_over_static(self, method: str, with_extraction: bool = True) -> np.ndarray:
        """Per-input speedup of ``method`` over the static oracle."""
        static = self.methods["static_oracle"].times
        outcome = self.methods[method]
        times = outcome.times if with_extraction else outcome.times_no_extraction
        return static / np.maximum(times, 1e-12)

    def mean_speedup(self, method: str, with_extraction: bool = True) -> float:
        """Mean per-input speedup of ``method`` over the static oracle."""
        return float(np.mean(self.speedups_over_static(method, with_extraction)))

    def satisfaction(self, method: str) -> float:
        """Accuracy-satisfaction rate of ``method`` on the test split."""
        return self.methods[method].satisfaction_rate


def evaluate_methods(
    training: TrainingResult, runtime: Optional[Runtime] = None
) -> Dict[str, MethodOutcome]:
    """Evaluate all comparison methods on the training result's test rows.

    Passing a runtime only adds phase timing around the evaluation; the
    numbers are read from the Level-1 measurement matrix either way (the
    runtime's live re-run paths are exercised by the determinism tests).
    """
    dataset = training.dataset
    train_rows = training.level2.train_rows
    test_rows = training.level2.test_rows

    telemetry = (runtime if runtime is not None else default_runtime()).telemetry
    methods: Dict[str, MethodOutcome] = {}

    with telemetry.phase("evaluate.methods"):
        static = StaticOracle().fit(dataset, train_rows).evaluate(dataset, test_rows)
        methods["static_oracle"] = MethodOutcome(
            name="static_oracle",
            times=static.times,
            times_no_extraction=static.times_no_extraction,
            satisfaction_rate=static.satisfaction_rate,
        )

        dynamic = DynamicOracle().evaluate(dataset, test_rows)
        methods["dynamic_oracle"] = MethodOutcome(
            name="dynamic_oracle",
            times=dynamic.times,
            times_no_extraction=dynamic.times_no_extraction,
            satisfaction_rate=dynamic.satisfaction_rate,
        )

        production = training.level2.production.classifier
        predictions = production.predict_rows(dataset, test_rows)
        execution = dataset.times[test_rows, predictions.labels]
        accuracies = dataset.accuracies[test_rows, predictions.labels]
        if dataset.requirement.enabled:
            satisfaction = float(
                np.mean(accuracies >= dataset.requirement.accuracy_threshold)
            )
        else:
            satisfaction = 1.0
        methods["two_level"] = MethodOutcome(
            name="two_level",
            times=execution + predictions.extraction_costs,
            times_no_extraction=execution,
            satisfaction_rate=satisfaction,
        )

        one_level = OneLevelLearning(training.level1).evaluate(dataset, test_rows)
        methods["one_level"] = MethodOutcome(
            name="one_level",
            times=one_level.times,
            times_no_extraction=one_level.times_no_extraction,
            satisfaction_rate=one_level.satisfaction_rate,
        )

    return methods


def run_experiment(
    test_name: str,
    config: Optional[ExperimentConfig] = None,
    progress: Optional[Callable[[str], None]] = None,
    runtime: Optional[Runtime] = None,
) -> ExperimentResult:
    """Train and evaluate one of the paper's eight tests end to end.

    All program runs go through one measurement runtime: the one passed in
    (shared caches across experiments -- see :func:`repro.experiments.table1.run_table1`)
    or a fresh one built from the config's executor/cache knobs.  A
    runtime owned by this call is closed (worker pools released) and, when a
    cache path is configured, persisted before returning.
    """
    if config is None:
        config = ExperimentConfig()
    with config.runtime_scope(runtime) as active:
        variant = get_benchmark(test_name)
        source = variant.benchmark.input_source(
            config.n_inputs, variant.variant, seed=config.seed
        )
        if config.stream_inputs:
            # Lazy path: nothing is generated yet.  Generation happens at
            # each materialization inside the consuming phases, so its cost
            # is observed per input and accumulated under the
            # ``inputs.generate`` phase (plus the ``inputs_generated``
            # counter) instead of a monolithic up-front ``generate_inputs``
            # phase.
            telemetry = active.telemetry

            def _observe(seconds: float) -> None:
                telemetry.add_seconds("inputs.generate", seconds)
                telemetry.count("inputs_generated")

            inputs = ObservedInputSource(source, _observe)
        else:
            with active.telemetry.phase("generate_inputs"):
                inputs = source.materialized()
        learner = InputAwareLearning(
            level1_config=config.level1(),
            level2_config=config.level2(),
            test_fraction=config.test_fraction,
            seed=config.seed,
            runtime=active,
        )
        training = learner.fit(variant.benchmark.program, inputs, progress=progress)
        methods = evaluate_methods(training, runtime=active)
        return ExperimentResult(
            test_name=test_name,
            training=training,
            methods=methods,
            test_rows=training.level2.test_rows,
            runtime_stats=active.stats(),
        )
