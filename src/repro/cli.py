"""Command-line interface for the reproduction.

Usage (after ``pip install -e .``)::

    python -m repro list                       # show the available tests
    python -m repro table1 --tests sort2 svd   # regenerate Table-1 rows
    python -m repro figure7                    # print the model curves
    python -m repro train sort2 --inputs 80    # train and summarize one test

The CLI is a thin wrapper over :mod:`repro.experiments`; every command prints
plain text suitable for piping into a report.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Callable, Optional, Sequence

from repro.benchmarks_suite import registry
from repro.runtime import EXECUTORS
from repro.runtime.runtime import DEFAULT_BATCH_CHUNK
from repro.experiments.figure7 import model_figure7a, model_figure7b
from repro.experiments.reporting import format_series, format_table
from repro.experiments.runner import (
    ExperimentConfig,
    _env_batch_chunk,
    _env_cache_max_entries,
    _env_executor,
    _env_stream_inputs,
    _env_workers,
    run_experiment,
)
from repro.experiments.table1 import TABLE1_TESTS, format_table1, run_table1, summarize_headline


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    max_entries = args.cache_max_entries
    if max_entries is not None and max_entries <= 0:
        max_entries = None  # explicit opt-out of the LRU cap
    return ExperimentConfig(
        n_inputs=args.inputs,
        n_clusters=args.clusters,
        tuner_generations=args.generations,
        seed=args.seed,
        executor=args.executor,
        workers=args.workers,
        use_cache=not args.no_cache,
        cache_path=args.cache_path,
        batch_chunk=args.batch_chunk,
        cache_max_entries=max_entries,
        stream_inputs=args.stream_inputs,
    )


def _int_in_range(minimum: int, maximum: Optional[int] = None) -> Callable[[str], int]:
    """An argparse ``type`` accepting integers >= ``minimum`` (and <=
    ``maximum`` when given)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be <= {maximum}, got {value}")
        return value

    return parse


def _add_workers_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=_int_in_range(1),
        default=_env_workers(),
        help="worker count for the process executor (default: CPU count)",
    )


def _add_scale_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--inputs", type=_int_in_range(4), default=120, help="training+test inputs per benchmark"
    )
    parser.add_argument(
        "--clusters", type=_int_in_range(1), default=10, help="number of Level-1 clusters (K1)"
    )
    parser.add_argument(
        "--generations", type=_int_in_range(1), default=6, help="autotuner generations per landmark"
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--executor",
        choices=sorted(EXECUTORS),
        default=_env_executor(),
        help="run strategy for program measurements (default: serial, bit-identical)",
    )
    _add_workers_argument(parser)
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the run cache (every measurement re-executes)",
    )
    parser.add_argument(
        "--cache-path",
        default=None,
        help="SQLite database file to load/persist run measurements "
        "across invocations; saved at every chunk, so a killed run "
        "resumes when run again",
    )
    parser.add_argument(
        "--batch-chunk",
        type=_int_in_range(1),
        default=_env_batch_chunk(),
        help="stream measurement batches in chunks of at most this many "
        f"runs (default: {DEFAULT_BATCH_CHUNK}; bounds peak memory; results "
        "are bit-identical)",
    )
    parser.add_argument(
        "--cache-max-entries",
        type=int,
        default=_env_cache_max_entries(),
        help="LRU cap on the in-memory run cache (default: "
        "%(default)s entries, ~45 MB; 0 or negative for unbounded; "
        "with --cache-path, evicted entries stay reachable on disk)",
    )
    parser.add_argument(
        "--stream-inputs",
        action=argparse.BooleanOptionalAction,
        default=_env_stream_inputs(),
        help="feed the pipeline a lazy input source (--no-stream-inputs "
        "materializes the full list up front; results are bit-identical "
        "either way, and either spelling overrides REPRO_STREAM_INPUTS)",
    )
    parser.add_argument(
        "--runtime-stats",
        action="store_true",
        help="print executor/cache/phase statistics after the run",
    )


def _print_runtime_stats(args: argparse.Namespace, stats: dict) -> None:
    if not args.runtime_stats or not stats:
        return
    print("\nruntime statistics:")
    print(f"  executor: {stats.get('executor')}")
    if "executor_fallback" in stats:
        print(f"  executor fallback: {stats['executor_fallback']}")
    cache = stats.get("cache")
    if cache:
        extras = f", {cache['evictions']} evictions" if cache["evictions"] else ""
        print(
            f"  cache: {cache['entries']} entries, "
            f"{cache['hits']} hits, {cache['misses']} misses{extras}"
        )
    telemetry = stats.get("telemetry", {})
    counters = telemetry.get("counters", {})
    print(
        f"  runs: {counters.get('runs_requested', 0)} requested, "
        f"{counters.get('runs_executed', 0)} executed, "
        f"{counters.get('cache_hits', 0)} cache hits"
    )
    if counters.get("tasks_requested"):
        print(
            f"  tasks: {counters.get('tasks_requested', 0)} requested, "
            f"{counters.get('tasks_executed', 0)} executed"
        )
    if counters.get("chunks_dispatched"):
        print(f"  streaming: {counters['chunks_dispatched']} chunk(s) dispatched")
    if counters.get("inputs_generated"):
        print(f"  inputs: {counters['inputs_generated']} lazily generated")
    if "adapt_retrains" in counters:
        print(
            f"  adaptation: {counters['adapt_retrains']} retrain(s), "
            f"{counters.get('adapt_swaps', 0)} swap(s), "
            f"{counters.get('adapt_retrains_rejected', 0)} rejected, "
            f"{counters.get('adapt_retrain_failures', 0)} failed"
        )
    for name, phase in sorted(telemetry.get("phases", {}).items()):
        print(f"  phase {name}: {phase['seconds']:.3f}s over {phase['calls']} call(s)")


def cmd_list(_args: argparse.Namespace) -> int:
    """Print the registered Table-1 tests."""
    rows = []
    for name in sorted(registry()):
        variant = registry()[name]()
        program = variant.benchmark.program
        rows.append(
            [
                name,
                variant.benchmark.name,
                variant.variant,
                "yes" if program.has_variable_accuracy else "no",
                str(program.features.num_features()),
            ]
        )
    print(format_table(["test", "benchmark", "inputs", "variable accuracy", "features"], rows))
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    """Regenerate Table-1 rows for the selected tests."""
    tests = args.tests or list(TABLE1_TESTS)
    unknown = [test for test in tests if test not in registry()]
    if unknown:
        print(f"unknown tests: {unknown}", file=sys.stderr)
        return 2
    config = _experiment_config(args)
    with config.runtime_scope() as runtime:
        rows = run_table1(
            tests=tests, config=config, progress=lambda m: print(f"# {m}"), runtime=runtime
        )
        print(format_table1(rows))
        headline = summarize_headline(rows)
        print(f"\nmax two-level speedup: {headline['max_two_level_speedup']:.2f}x")
        print(f"max two-level / one-level ratio: {headline['max_two_over_one_level']:.2f}x")
        _print_runtime_stats(args, runtime.stats())
    return 0


def cmd_figure7(_args: argparse.Namespace) -> int:
    """Print the Section 4.3 model curves (Figure 7a peaks and Figure 7b)."""
    curves = model_figure7a()
    peaks = [[str(k), f"{float(curve.y.max()):.4f}"] for k, curve in sorted(curves.items())]
    print("Figure 7a: worst-case expected loss by number of configurations")
    print(format_table(["configs", "peak loss"], peaks))
    print()
    curve = model_figure7b()
    print("Figure 7b: fraction of full speedup vs landmarks")
    print(format_series(curve.x.tolist(), curve.y.tolist(), "landmarks", "fraction"))
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    """Train one test end to end and print a short summary."""
    if args.test not in registry():
        print(f"unknown test {args.test!r}; use 'list' to see options", file=sys.stderr)
        return 2
    result = run_experiment(args.test, config=_experiment_config(args))
    training = result.training
    print(f"test: {args.test}")
    print(f"landmarks: {len(training.landmarks)}")
    print(f"production classifier: {training.production_classifier.name}")
    print(f"relabel shift: {training.level2.relabel_shift:.1%}")
    rows = [
        [
            name,
            f"{result.mean_speedup(name):.2f}x",
            f"{result.mean_speedup(name, with_extraction=False):.2f}x",
            f"{result.satisfaction(name):.1%}",
        ]
        for name in ("dynamic_oracle", "two_level", "one_level")
    ]
    print(format_table(["method", "speedup (w/ features)", "speedup (w/o)", "accuracy satisfied"], rows))
    _print_runtime_stats(args, result.runtime_stats)
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Profile one experiment run under cProfile and print the hot paths.

    The starting point for every hot-path hunt: wraps the exact
    ``run_experiment`` call the other commands make in ``cProfile`` and
    prints the top-N functions by cumulative time.  ``--output`` saves the
    printed table; ``--save-stats`` dumps the raw profile for ``pstats`` /
    ``snakeviz``-style exploration.  Profiling inflates wall time several
    fold, so the numbers rank hot paths; wall-clock comparisons belong to
    the repository benchmark, ``perfbench/``.
    """
    import cProfile
    import io
    import pstats

    if args.test not in registry():
        print(f"unknown test {args.test!r}; use 'list' to see options", file=sys.stderr)
        return 2
    config = _experiment_config(args)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = run_experiment(args.test, config=config)
    finally:
        profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats(args.sort).print_stats(args.top)
    table = stream.getvalue()
    header = (
        f"test: {args.test}\n"
        f"two-level speedup: {result.mean_speedup('two_level'):.2f}x\n"
        f"top {args.top} functions by {args.sort} time:\n"
    )
    print(header + table)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(header + table)
        print(f"profile table written to {args.output}")
    if args.save_stats:
        profiler.dump_stats(args.save_stats)
        print(f"raw profile written to {args.save_stats}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Train the requested tests and serve their selectors over TCP."""
    import asyncio

    from repro.serving import SelectorServer, ServingConfig

    tests = args.tests or ["sort2"]
    unknown = [test for test in tests if test not in registry()]
    if unknown:
        print(f"unknown tests: {unknown}", file=sys.stderr)
        return 2
    server = SelectorServer(
        config=ServingConfig(
            host=args.host,
            port=args.port,
            max_pending=args.max_pending,
            execution_workers=args.execution_workers,
        )
    )
    for test in tests:
        print(f"# training {test} ...")
        result = run_experiment(test, config=_experiment_config(args))
        entry = server.publish(test, result.training.deployed)
        print(f"# {test}: model v{entry.version} published")

    async def _serve() -> None:
        host, port = await server.start()
        print(f"serving {len(tests)} model(s) on {host}:{port}", flush=True)
        await server.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("\ninterrupted; shutting down")
    return 0


def cmd_adapt_replay(args: argparse.Namespace) -> int:
    """Replay a scripted drift scenario and report regret before/after."""
    import json

    from repro.adaptation import get_scenario, replay_scenario

    try:
        scenario = get_scenario(args.scenario, scale=args.scale, seed=args.seed)
    except KeyError as error:
        print(str(error), file=sys.stderr)
        return 2
    config = ExperimentConfig(
        seed=args.seed,
        executor=args.executor,
        workers=args.workers,
        use_cache=True,
        cache_path=args.cache_path,
    )
    with config.runtime_scope() as runtime:
        report = replay_scenario(scenario, runtime)
        stats = runtime.stats()

    print(f"scenario: {report.scenario} ({report.n_requests} requests, "
          f"{report.n_training} training inputs, seed {report.seed})")
    adapted, frozen = report.adapted, report.frozen
    print(f"drift: {adapted.drift_checks} checks, {adapted.drift_trips} trip(s); "
          f"retrains: {adapted.retrains} "
          f"({len([s for s in adapted.swaps if s['swapped']])} swapped, "
          f"{adapted.retrains_rejected} rejected, {adapted.retrains_failed} failed)")
    print(f"model: v{frozen.final_version} frozen -> v{adapted.final_version} adapted "
          f"({frozen.final_landmark_count} -> {adapted.final_landmark_count} landmarks)")
    rows = [
        ["frozen", f"{sum(frozen.served_costs):.0f}",
         f"{report.regret_frozen_total:.0f}", f"{report.regret_frozen_shifted:.0f}"],
        ["adapted", f"{sum(adapted.served_costs):.0f}",
         f"{report.regret_adapted_total:.0f}", f"{report.regret_adapted_shifted:.0f}"],
    ]
    print(format_table(
        ["selector", "served cost", "regret (total)", "regret (shifted tail)"], rows
    ))
    print(f"shifted-tail regret removed by adapting: {report.shifted_improvement:.0f}")
    print(f"digest: {report.digest()}")
    if args.output:
        payload = report.to_json()
        payload["digest"] = report.digest()
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.output}")
    _print_runtime_stats(args, stats)
    if report.shifted_improvement <= 0 and adapted.drift_trips > 0:
        # A replay where adaptation ran but did not pay for itself is the
        # failure the harness exists to catch.
        print("adaptation did not reduce shifted-tail regret", file=sys.stderr)
        return 1
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run an experiment or serving load under an injected fault plan.

    Replays the same seeded plan ``--replays`` times and verifies the
    invariant reports agree bit-for-bit (the chaos determinism claim);
    exits non-zero when any invariant fails or any replay diverges.  In
    experiment mode, ``--cache-path`` gives each replay a fresh store of
    that file name in a temporary directory, so every replay executes and
    saves its runs; the file at the path itself is never opened.
    """
    import json
    import os
    import tempfile

    from repro.resilience.chaos import (
        PRESETS,
        experiment_digest,
        preset_plan,
        run_chaos_experiment,
        run_chaos_load,
    )
    from repro.resilience.faults import FaultPlan

    if args.test not in registry():
        print(f"unknown test {args.test!r}; use 'list' to see options", file=sys.stderr)
        return 2
    if (args.preset is None) == (args.plan is None):
        print("provide exactly one of --preset / --plan", file=sys.stderr)
        return 2
    if args.preset is not None:
        plan = preset_plan(args.preset)
    else:
        try:
            with open(args.plan, "r", encoding="utf-8") as handle:
                plan = FaultPlan.from_json(handle.read())
        except (OSError, ValueError) as error:
            print(f"bad --plan file {args.plan!r}: {error}", file=sys.stderr)
            return 2

    config = _experiment_config(args)
    reports = []
    if args.mode == "experiment":
        baseline_digest = None
        if not args.no_baseline:
            # Without the replays' store: a baseline that filled it would
            # answer every replay from it, so no replay would execute or save.
            print("# running fault-free baseline ...")
            baseline = dataclasses.replace(config, cache_path=None)
            baseline_digest = experiment_digest(run_experiment(args.test, config=baseline))
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as stores:
            for replay in range(args.replays):
                print(f"# chaos replay {replay + 1}/{args.replays} (plan {plan.digest()}) ...")
                replay_config = config
                if config.cache_path:
                    # A store an earlier replay filled would answer every run,
                    # and this replay would never reach the store's faults.
                    name = f"replay{replay + 1}-{os.path.basename(config.cache_path)}"
                    replay_config = dataclasses.replace(
                        config, cache_path=os.path.join(stores, name)
                    )
                reports.append(
                    run_chaos_experiment(
                        args.test, plan, config=replay_config, baseline_digest=baseline_digest
                    )
                )
    else:
        print("# training fault-free model ...")
        deployed = run_experiment(args.test, config=config).training.deployed
        for replay in range(args.replays):
            print(f"# chaos replay {replay + 1}/{args.replays} (plan {plan.digest()}) ...")
            reports.append(
                run_chaos_load(
                    args.test,
                    deployed,
                    plan,
                    requests=args.requests,
                    unique_inputs=args.unique_inputs,
                    clients=args.clients,
                )
            )

    report = reports[0]
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.output}")

    digests = {r["digest"] for r in reports}
    if len(digests) != 1:
        print(f"replays diverged: {sorted(digests)}", file=sys.stderr)
        return 1
    print(f"{len(reports)} replay(s) agree: report digest {report['digest']}")
    failed = [name for name, held in report["compared"]["invariants"].items() if not held]
    if failed:
        print(f"invariants failed: {failed}", file=sys.stderr)
        return 1
    print("all invariants held")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available benchmark tests").set_defaults(func=cmd_list)

    table1 = subparsers.add_parser("table1", help="regenerate Table-1 rows")
    table1.add_argument("--tests", nargs="*", default=None)
    _add_scale_arguments(table1)
    table1.set_defaults(func=cmd_table1)

    figure7 = subparsers.add_parser("figure7", help="print the theoretical model curves")
    figure7.set_defaults(func=cmd_figure7)

    train = subparsers.add_parser("train", help="train one test and summarize it")
    train.add_argument("test")
    _add_scale_arguments(train)
    train.set_defaults(func=cmd_train)

    profile = subparsers.add_parser(
        "profile",
        help="profile one experiment run under cProfile (hot-path table)",
    )
    profile.add_argument("test")
    profile.add_argument(
        "--top", type=_int_in_range(1), default=30, help="number of functions to print"
    )
    profile.add_argument(
        "--sort",
        choices=["cumulative", "tottime"],
        default="cumulative",
        help="profile ordering (default: cumulative)",
    )
    profile.add_argument(
        "--output", default=None, help="also write the printed table to this file"
    )
    profile.add_argument(
        "--save-stats",
        default=None,
        help="dump the raw cProfile stats here (pstats/snakeviz format)",
    )
    _add_scale_arguments(profile)
    profile.set_defaults(func=cmd_profile)

    serve = subparsers.add_parser(
        "serve", help="train selectors and serve them over TCP (see docs/serving.md)"
    )
    serve.add_argument("--tests", nargs="*", default=None, help="tests to serve (default: sort2)")
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=_int_in_range(0, 65535), default=7415, help="bind port (0 = ephemeral)"
    )
    serve.add_argument(
        "--max-pending",
        type=_int_in_range(1),
        default=64,
        help="admission cap on distinct in-flight executions (503 beyond it)",
    )
    serve.add_argument(
        "--execution-workers",
        type=_int_in_range(1),
        default=1,
        help="thread-pool width for the program runs of cache misses",
    )
    _add_scale_arguments(serve)
    serve.set_defaults(func=cmd_serve)

    adapt = subparsers.add_parser(
        "adapt-replay",
        help="replay a scripted drift scenario through the adaptation loop "
        "(see docs/adaptation.md)",
    )
    adapt.add_argument(
        "--scenario", default="sort-shift", help="scenario name (default: sort-shift)"
    )
    adapt.add_argument(
        "--scale",
        choices=["small", "medium", "large"],
        default="small",
        help="scenario size preset",
    )
    adapt.add_argument("--seed", type=int, default=0, help="scenario seed")
    adapt.add_argument(
        "--executor",
        choices=sorted(EXECUTORS),
        default=_env_executor(),
        help="measurement executor (the report is bit-identical across them)",
    )
    _add_workers_argument(adapt)
    adapt.add_argument(
        "--cache-path", default=None, help="persisted run-cache database file to reuse"
    )
    adapt.add_argument("--output", default=None, help="write the full JSON report here")
    adapt.add_argument(
        "--runtime-stats",
        action="store_true",
        help="print executor/cache/phase statistics and the adaptation "
        "counters after the replay",
    )
    adapt.set_defaults(func=cmd_adapt_replay)

    chaos = subparsers.add_parser(
        "chaos",
        help="run an experiment or serving load under an injected fault plan "
        "(see docs/resilience.md)",
        description="In experiment mode, --cache-path gives each replay a "
        "fresh store of that file name in a temporary directory; the file at "
        "the path is never opened.",
    )
    chaos.add_argument("mode", choices=["experiment", "load"], help="what to run under faults")
    chaos.add_argument("test", nargs="?", default="sort2", help="benchmark test (default: sort2)")
    from repro.resilience.chaos import PRESETS

    chaos.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        default=None,
        help="named fault plan",
    )
    chaos.add_argument("--plan", default=None, help="JSON fault-plan file (alternative to --preset)")
    chaos.add_argument(
        "--replays",
        type=_int_in_range(1),
        default=2,
        help="times to replay the plan; reports must agree bit-for-bit",
    )
    chaos.add_argument(
        "--no-baseline",
        action="store_true",
        help="experiment mode: skip the fault-free baseline run "
        "(drops the matches_baseline invariant)",
    )
    chaos.add_argument(
        "--requests", type=_int_in_range(1), default=32, help="load mode: trace length"
    )
    chaos.add_argument(
        "--unique-inputs", type=_int_in_range(1), default=8, help="load mode: distinct inputs"
    )
    chaos.add_argument(
        "--clients", type=_int_in_range(1), default=2, help="load mode: client connections"
    )
    chaos.add_argument("--output", default=None, help="write the JSON report here")
    _add_scale_arguments(chaos)
    chaos.set_defaults(func=cmd_chaos)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
