"""Train a selector, serve it, and measure it under synthetic load.

The command-line face of :mod:`repro.serving.loadgen`::

    PYTHONPATH=src python scripts/loadgen.py --test sort2 \
        --requests 64 --unique-inputs 8 --clients 4 \
        --output benchmarks/BENCH_serving.json

Trains the named test at a small scale, publishes the deployed selector on
an in-process :class:`~repro.serving.server.SelectorServer`, replays a
duplicate-heavy trace from concurrent client connections, and prints the
metrics dict (p50/p99 selection latency, throughput, coalescing counters)
as JSON.  ``benchmarks/BENCH_serving.json`` is this script's output,
committed as the serving perf baseline.

Exits non-zero if the trace executed more unique work than it contained --
the coalescing/recall guarantee the serving layer exists to provide.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.cli import _int_in_range
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.serving import ServingConfig, run_load


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--test", default="sort2", help="benchmark test to train and serve")
    parser.add_argument(
        "--requests", type=_int_in_range(1), default=64, help="total requests in the trace"
    )
    parser.add_argument(
        "--unique-inputs", type=_int_in_range(1), default=8,
        help="distinct input indices in the trace (the rest are duplicates)",
    )
    parser.add_argument(
        "--clients", type=_int_in_range(1), default=4, help="concurrent client connections"
    )
    parser.add_argument("--seed", type=int, default=0, help="training and trace seed")
    parser.add_argument(
        "--input-seed", type=int, default=999,
        help="population seed of the served inputs (distinct from training's)",
    )
    parser.add_argument("--inputs", type=_int_in_range(4), default=60, help="training inputs")
    parser.add_argument("--clusters", type=_int_in_range(1), default=6, help="Level-1 clusters")
    parser.add_argument(
        "--generations", type=_int_in_range(1), default=3, help="autotuner generations"
    )
    parser.add_argument(
        "--max-pending", type=_int_in_range(1), default=64,
        help="admission cap on distinct in-flight executions",
    )
    parser.add_argument(
        "--execution-workers", type=_int_in_range(1), default=1,
        help="server-side execution thread-pool width",
    )
    parser.add_argument("--output", default=None, help="also write the metrics JSON here")
    args = parser.parse_args(argv)

    print(f"# training {args.test} ...", file=sys.stderr)
    result = run_experiment(
        args.test,
        config=ExperimentConfig(
            n_inputs=args.inputs,
            n_clusters=args.clusters,
            tuner_generations=args.generations,
            seed=args.seed,
        ),
    )
    print(
        f"# replaying {args.requests} requests "
        f"({args.unique_inputs} unique) from {args.clients} client(s) ...",
        file=sys.stderr,
    )
    metrics = run_load(
        args.test,
        result.training.deployed,
        requests=args.requests,
        unique_inputs=args.unique_inputs,
        clients=args.clients,
        trace_seed=args.seed,
        input_seed=args.input_seed,
        config=ServingConfig(
            max_pending=args.max_pending,
            execution_workers=args.execution_workers,
        ),
    )

    report = json.dumps(metrics, indent=2, sort_keys=True)
    print(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
        print(f"# wrote {args.output}", file=sys.stderr)

    if not metrics["each_unique_executed_at_most_once"]:
        print(
            f"# FAIL: {metrics['executions']} executions for "
            f"{metrics['unique_inputs']} unique inputs",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
