"""Timing spans recorded around public functions of the program.

The traced run patches the functions and methods listed in ``TARGETS`` with
wrappers that record one span per call: name, start, end and the span that
was open on the same thread when the call began.  Nothing under ``src/``
is edited; the patches live only while a :class:`Tracer` is installed and
are undone on exit, so the untraced passes run the program as shipped.

A layer's self time is the sum of its spans' durations minus the part
covered by their direct children.  A phase's inclusive time is the sum of
the durations of its outermost spans (a span nested in a span of the same
name is not counted twice).
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (import path, attribute path, span name).  Module-level functions are
#: patched in every loaded ``repro`` module that imported them by name, so
#: ``from repro.core.level1 import run_level1`` style call sites are caught.
#: Functions shipped to pool workers as task callables (the Level-2 fit
#: tasks) are deliberately absent: pickling them by reference would find a
#: wrapper where the original was expected.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.level1", "extract_features", "level1.features"),
    ("repro.core.level1", "cluster_inputs", "level1.cluster"),
    ("repro.core.level1", "create_landmarks", "level1.tune"),
    ("repro.core.level1", "measure_performance", "level1.measure"),
    ("repro.core.level2", "run_level2", "level2.train"),
    ("repro.core.level2", "train_classifier_zoo", "level2.zoo"),
    # run_level2 dispatches its candidate zoo through run_tasks directly.
    ("repro.runtime.runtime", "Runtime.run_tasks", "level2.zoo"),
    ("repro.experiments.runner", "evaluate_methods", "evaluate.methods"),
    ("repro.lang.program", "PetaBricksProgram.run", "kernel.run"),
    ("repro.runtime.keys", "input_key", "runtime.keys"),
    ("repro.runtime.keys", "config_key", "runtime.keys"),
    ("repro.runtime.keys", "run_key", "runtime.keys"),
    ("repro.runtime.cache", "RunCache.get", "runtime.cache"),
    ("repro.runtime.cache", "RunCache.put", "runtime.cache"),
    ("repro.ml.kmeans", "KMeans.fit", "ml.kmeans"),
    # Runtime entry points: their own bookkeeping is kept out of the
    # caller's self time (autotuner.self_s is create_landmarks minus these).
    ("repro.runtime.runtime", "Runtime.run_pairs", "runtime.batch"),
    ("repro.runtime.runtime", "Runtime.measure", "runtime.batch"),
    ("repro.runtime.runtime", "Runtime.run_info", "runtime.batch"),
    ("repro.runtime.executors", "SerialExecutor.run_batch", "runtime.dispatch"),
    ("repro.runtime.executors", "SerialExecutor.run_calls", "runtime.dispatch"),
    ("repro.runtime.executors", "ProcessExecutor.run_batch", "runtime.dispatch"),
    ("repro.runtime.executors", "ProcessExecutor.run_calls", "runtime.dispatch"),
    ("repro.runtime.executors", "ProcessExecutor.run_measure", "runtime.dispatch"),
    # One generic task run in this process (a Level-2 candidate fit on the
    # serial executor); it splits in-process work out of runtime.dispatch.
    ("repro.runtime.executors", "_invoke_call", "runtime.task"),
    ("repro.lang.features", "FeatureSet.extract_batch", "lang.extract"),
    ("repro.core.inputs", "GeneratedInputSource.materialize", "inputs.generate"),
)


class Span:
    """One timed call: ``name``, ``start``/``end`` (perf_counter) and ``parent``."""

    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, parent: Optional["Span"]) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; install it as a context manager."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._pid = os.getpid()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording --------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, time.perf_counter(), stack[-1] if stack else None)
        self.spans.append(span)
        stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            # Forked pool workers inherit the patch; their spans would be
            # recorded into a copy nobody reads, so they just call through.
            if os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            span = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.finish(span)

        return traced

    # -- patching ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for module_name, attribute, name in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
                self._patch(owner, method, self.wrap(name, owner.__dict__[method]))
                continue
            original = getattr(module, attribute)
            traced = self.wrap(name, original)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("repro") and (
                    loaded.__dict__.get(attribute) is original
                ):
                    self._patch(loaded, attribute, traced)
        return self

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def __exit__(self, *_exc: Any) -> None:
        # wrapper id -> (wrapper, original); holding the wrapper keeps ids unique.
        originals = {
            id(owner.__dict__[attribute]): (owner.__dict__[attribute], original)
            for owner, attribute, original in self._patches
        }
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)
        # A module first imported while tracing copied a wrapper by name.
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for attribute, value in list(loaded.__dict__.items()):
                pair = originals.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(loaded, attribute, pair[1])

    # -- summaries --------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Per span name: total duration minus time covered by direct children."""
        child_time: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[id(span.parent)] += span.duration
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.duration - child_time[id(span)]
        return dict(totals)

    def inclusive_times(self) -> Dict[str, float]:
        """Per span name: summed duration of its outermost spans."""
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            parent = span.parent
            while parent is not None and parent.name != span.name:
                parent = parent.parent
            if parent is None:
                totals[span.name] += span.duration
        return dict(totals)

    def counts(self) -> Dict[str, int]:
        totals: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            totals[span.name] += 1
        return dict(totals)

    def uncovered(self, start: float, end: float) -> float:
        """Time in ``[start, end]`` that no top-level span (any thread) covers.

        Every span wraps a function of the program, so this is the time
        spent outside the instrumented layers.
        """
        intervals = sorted(
            (max(s.start, start), min(s.end, end))
            for s in self.spans
            if s.parent is None and s.end > start and s.start < end
        )
        covered = 0.0
        cursor = start
        for low, high in intervals:
            low = max(low, cursor)
            if high > low:
                covered += high - low
                cursor = high
        return (end - start) - covered
