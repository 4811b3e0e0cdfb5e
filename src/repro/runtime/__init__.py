"""Shared measurement runtime: executors, run cache, telemetry.

This package is the execution layer under every program measurement in the
reproduction.  See :class:`repro.runtime.Runtime` for the facade and
``README.md`` ("The measurement runtime") for usage and flags.
"""

from repro.runtime.cache import CacheEntry, RunCache
from repro.runtime.executors import (
    EXECUTORS,
    BaseExecutor,
    ProcessExecutor,
    SerialExecutor,
    SharedRef,
    get_executor,
)
from repro.runtime.keys import (
    config_key,
    input_key,
    join_run_key,
    program_fingerprint,
    program_key,
    read_key,
    run_key,
)
from repro.runtime.runtime import Runtime, default_runtime
from repro.runtime.telemetry import PhaseStats, Telemetry

__all__ = [
    "BaseExecutor",
    "CacheEntry",
    "EXECUTORS",
    "PhaseStats",
    "ProcessExecutor",
    "RunCache",
    "Runtime",
    "SerialExecutor",
    "SharedRef",
    "Telemetry",
    "config_key",
    "default_runtime",
    "get_executor",
    "input_key",
    "join_run_key",
    "program_fingerprint",
    "program_key",
    "read_key",
    "run_key",
]
