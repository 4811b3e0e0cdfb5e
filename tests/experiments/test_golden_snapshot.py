"""Golden regression test: one small Table-1 row pinned to a snapshot.

The full pipeline (input generation, autotuning, Level 1, the parallel
Level-2 search, method evaluation) is deterministic given the seed, so one
small ``sort1`` row's numbers are checked into
``snapshots/sort1_small.json`` and every run -- serial or threaded -- must
reproduce them.  This is the whole-system complement of the unit-level
determinism tests: any unintended behaviour change anywhere in the
pipeline moves at least one pinned number.

Regenerate the snapshot after an *intended* behaviour change with::

    REPRO_UPDATE_GOLDEN=1 python -m pytest tests/experiments/test_golden_snapshot.py
"""

import json
import os
import pathlib

import pytest

from repro.experiments.runner import ExperimentConfig, run_experiment

SNAPSHOT_PATH = pathlib.Path(__file__).parent / "snapshots" / "sort1_small.json"

#: Methods whose numbers are pinned.
METHODS = ("static_oracle", "dynamic_oracle", "two_level", "one_level")

#: Pinned floats are rounded to this many digits and compared with a matching
#: tolerance, absorbing harmless last-bit drift across numpy builds while
#: still catching any real behaviour change.
DIGITS = 9


def golden_config(executor: str) -> ExperimentConfig:
    return ExperimentConfig(
        n_inputs=32,
        n_clusters=4,
        tuner_generations=2,
        tuner_population=4,
        tuning_neighbors=2,
        max_subsets=8,
        seed=0,
        executor=executor,
        workers=2,
    )


def summarize(result) -> dict:
    training = result.training
    two_level_times = result.methods["two_level"].times
    return {
        "test": result.test_name,
        "n_landmarks": len(training.landmarks),
        "production_classifier": training.production_classifier.name,
        "relabel_shift": round(training.level2.relabel_shift, DIGITS),
        "mean_speedups": {
            method: round(result.mean_speedup(method), DIGITS) for method in METHODS
        },
        "satisfaction": {
            method: round(result.satisfaction(method), DIGITS) for method in METHODS
        },
        "two_level_times": [round(float(t), DIGITS) for t in two_level_times],
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    if not SNAPSHOT_PATH.exists() and not os.environ.get("REPRO_UPDATE_GOLDEN"):
        pytest.fail(f"missing golden snapshot {SNAPSHOT_PATH}")
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        summary = summarize(run_experiment("sort1", golden_config("serial")))
        SNAPSHOT_PATH.parent.mkdir(parents=True, exist_ok=True)
        SNAPSHOT_PATH.write_text(json.dumps(summary, indent=2) + "\n")
    return json.loads(SNAPSHOT_PATH.read_text())


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_pipeline_output_matches_snapshot(golden, executor):
    result = run_experiment("sort1", golden_config(executor))
    assert result.runtime_stats["executor"] == executor
    summary = summarize(result)

    assert summary["test"] == golden["test"]
    assert summary["n_landmarks"] == golden["n_landmarks"]
    assert summary["production_classifier"] == golden["production_classifier"]
    assert summary["relabel_shift"] == pytest.approx(
        golden["relabel_shift"], abs=10**-DIGITS
    )
    for method in METHODS:
        assert summary["mean_speedups"][method] == pytest.approx(
            golden["mean_speedups"][method], abs=10**-DIGITS
        ), f"mean speedup drifted for {method}"
        assert summary["satisfaction"][method] == pytest.approx(
            golden["satisfaction"][method], abs=10**-DIGITS
        ), f"satisfaction drifted for {method}"
    assert summary["two_level_times"] == pytest.approx(
        golden["two_level_times"], abs=10**-DIGITS
    )
