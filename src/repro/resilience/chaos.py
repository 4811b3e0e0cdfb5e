"""Chaos harness: run the real pipeline under a declarative fault plan.

The resilience claim this repo makes is concrete: because every program
run is a pure function of content and results fold by chunk index (never
arrival order), any injected failure that the runtime survives must leave
the output *bit-identical* to a clean run -- and replaying the same
seeded :class:`~repro.resilience.faults.FaultPlan` must reproduce the
same outcome.  This module turns that claim into an executable check.

Two entry points, both returning an invariant report:

* :func:`run_chaos_experiment` -- run one training experiment inside
  :func:`~repro.resilience.faults.fault_scope` and check it still
  completes with the same measurement matrices as a fault-free baseline.
* :func:`run_chaos_load` -- replay a load-generator trace against a
  serving stack whose executions are failing, and check the degradation
  contract (every request answered, breaker opens, degraded fallbacks
  served) instead of silent loss.

Report shape::

    {
      "mode": "experiment" | "load",
      "test": "sort2",
      "compared": {"plan": <plan digest>, "invariants": {...bools...},
                   "result_digest": ..., "fired": {site: count}},
      "digest": <sha256 of "compared">,
      "diagnostics": {...}
    }

``compared`` holds only deterministic facts -- the plan digest, invariant
booleans, content digests and, for an experiment, the per-site fire
counts -- so two replays of the same plan must produce byte-identical
``compared`` sections (and therefore the same report ``digest``).  An
experiment's sites all run in its one process, in the order its work
does, so a replay that fires a different set of faults diverges.
Everything timing- or scheduling-dependent (a load's fire counts, call
counts, retry counters, latencies) lives under ``diagnostics``, which is
informative but never compared.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.resilience.faults import FaultPlan, FaultSpec, fault_scope

#: Named fault plans covering each subsystem's recovery path.  Values are
#: thunks so every call gets fresh (immutable, but independently owned)
#: spec lists.  Sites that a given run never reaches simply do not fire
#: (e.g. ``cache.save`` without ``--cache-path``); the report's
#: diagnostics show the per-site fire counts.
PRESETS: Dict[str, Callable[[], List[FaultSpec]]] = {
    # Failed store writes: the first two cache saves raise, so their
    # entries must stay unsaved for a later save instead of crashing the
    # run or being dropped.  Needs a cache path; the runtime saves at every
    # chunk, so a later chunk's save writes what the failed ones kept.
    "store-write-fail": lambda: [
        FaultSpec(site="cache.save", action="raise", nth=1, count=2)
    ],
    # Serving brownout: the first five program executions raise, which
    # must trip the circuit breaker and switch the server to degraded
    # default-configuration answers instead of dropping requests.
    "serve-brownout": lambda: [
        FaultSpec(site="serve.execute", action="raise", nth=1, count=5)
    ],
}


def preset_plan(name: str) -> FaultPlan:
    """Build the named preset as a :class:`FaultPlan` (its ``nth`` triggers
    draw no random numbers, so it needs no seed)."""
    try:
        faults = PRESETS[name]()
    except KeyError:
        raise KeyError(
            f"unknown chaos preset {name!r}; choose from {sorted(PRESETS)}"
        ) from None
    return FaultPlan(faults=faults)


def experiment_digest(result: Any) -> str:
    """Content digest of an experiment's measured matrices and outcomes.

    Covers the N x K times/accuracies matrices plus every method's
    per-input times -- the quantities the paper's tables are built from.
    Two runs agree on this digest iff they are bit-identical where it
    matters.
    """
    digest = hashlib.sha256()
    dataset = result.training.dataset
    digest.update(np.ascontiguousarray(dataset.times).tobytes())
    digest.update(np.ascontiguousarray(dataset.accuracies).tobytes())
    digest.update(np.ascontiguousarray(result.test_rows).tobytes())
    for name in sorted(result.methods):
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(result.methods[name].times).tobytes())
    return digest.hexdigest()[:32]


def report_digest(report: Dict[str, Any]) -> str:
    """Digest of the report's deterministic (``compared``) section."""
    encoded = json.dumps(report["compared"], sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()[:16]


def _finish(
    mode: str,
    test: str,
    plan: FaultPlan,
    invariants: Dict[str, bool],
    diagnostics: Dict[str, Any],
    extra_compared: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    compared: Dict[str, Any] = {"plan": plan.digest(), "invariants": invariants}
    if extra_compared:
        compared.update(extra_compared)
    report = {
        "mode": mode,
        "test": test,
        "compared": compared,
        "diagnostics": diagnostics,
    }
    report["digest"] = report_digest(report)
    return report


def run_chaos_experiment(
    test: str,
    plan: FaultPlan,
    config: Optional[Any] = None,
    baseline_digest: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one experiment under ``plan`` and report its invariants.

    Invariants checked (all must be deterministic across replays):

    * ``completed`` -- the experiment finished despite the injected
      faults (recovery paths absorbed them).
    * ``matches_baseline`` -- its :func:`experiment_digest` equals the
      fault-free run's (omitted when no ``baseline_digest`` is given).

    The per-site fire counts are compared too: a replay that never reaches
    a fault it should meet diverges even where its results agree.

    Args:
        test: benchmark test name.
        plan: the fault plan to install for the run's duration.
        config: :class:`~repro.experiments.runner.ExperimentConfig`; the
            default trains at the config's default scale.
        baseline_digest: digest of a clean run with the same config,
            typically from ``experiment_digest(run_experiment(...))``.
            Compute it once and share it across replays.
    """
    from repro.experiments.runner import ExperimentConfig, run_experiment

    if config is None:
        config = ExperimentConfig()
    invariants: Dict[str, bool] = {}
    diagnostics: Dict[str, Any] = {}
    result_digest: Optional[str] = None
    with fault_scope(plan) as injector:
        try:
            result = run_experiment(test, config=config)
        except Exception as error:  # the run did NOT survive the plan
            invariants["completed"] = False
            diagnostics["error"] = f"{type(error).__name__}: {error}"
        else:
            invariants["completed"] = True
            result_digest = experiment_digest(result)
            stats = result.runtime_stats
            diagnostics["retries"] = stats.get("retries", {})
            diagnostics["executor_fallback"] = stats.get("executor_fallback")
        diagnostics["faults"] = injector.snapshot()
    if baseline_digest is not None:
        invariants["matches_baseline"] = result_digest == baseline_digest
        diagnostics["baseline_digest"] = baseline_digest
    return _finish(
        "experiment",
        test,
        plan,
        invariants,
        diagnostics,
        extra_compared={
            "result_digest": result_digest,
            "fired": diagnostics["faults"]["fired"],
        },
    )


def run_chaos_load(
    test: str,
    deployed: Any,
    plan: FaultPlan,
    requests: int = 32,
    unique_inputs: int = 8,
    clients: int = 2,
    serving_config: Optional[Any] = None,
) -> Dict[str, Any]:
    """Replay a serving trace under ``plan`` and report the degradation contract.

    The model is trained *outside* this function (fault-free) so replays
    share one ``deployed`` artifact; only the serve/replay runs inside
    :func:`fault_scope`.

    Invariants checked:

    * ``answered_all`` -- every request produced a frame (result, error,
      or recorded client error); nothing was silently lost.
    * ``breaker_opened`` -- repeated execution failures tripped the
      circuit breaker at least once.
    * ``served_degraded`` -- after the breaker opened, requests were
      answered with degraded default-configuration frames rather than
      rejected.

    The default serving config makes those invariants deterministic:
    one execution worker (failures land in injection order), a breaker
    threshold below the preset's fault count, and a recovery timeout
    longer than any test run (the breaker stays open once tripped).
    """
    from repro.serving.loadgen import run_load
    from repro.serving.server import ServingConfig

    if serving_config is None:
        serving_config = ServingConfig(
            port=0,
            execution_workers=1,
            breaker_threshold=3,
            breaker_recovery_seconds=600.0,
        )
    with fault_scope(plan) as injector:
        metrics = run_load(
            test,
            deployed,
            requests=requests,
            unique_inputs=unique_inputs,
            clients=clients,
            config=serving_config,
            allow_errors=True,
        )
        fault_snapshot = injector.snapshot()
    invariants = {
        "answered_all": metrics["responses"] == requests,
        "breaker_opened": metrics["breaker"]["opened_total"] >= 1,
        "served_degraded": metrics["degraded"] >= 1,
    }
    diagnostics = {
        "faults": fault_snapshot,
        "metrics": {
            key: metrics[key]
            for key in (
                "requests",
                "responses",
                "executions",
                "coalesced",
                "cache_hits",
                "errors",
                "client_errors",
                "degraded",
                "breaker_open",
                "breaker",
            )
        },
    }
    return _finish("load", test, plan, invariants, diagnostics)
