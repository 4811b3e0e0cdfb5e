"""Lazy input sources: known-length input populations materialized on demand.

The paper's headline experiments train on 50-60k inputs per benchmark.  The
measurement runtime already streams run/task batches in O(chunk) pieces
(:attr:`repro.runtime.Runtime.batch_chunk`), but a pipeline that begins with
``inputs = benchmark.generate_inputs(n, ...)`` still pays O(N) memory for
the input list itself before the first chunk is dispatched.  This module
removes that floor.

An :class:`InputSource` is a sequence-shaped view of an input population:

* it knows its **length** up front (splits, matrix shapes, and cluster
  counts need N without generating anything);
* it materializes **input i deterministically and independently** -- the
  contract is that ``source[i]`` is a pure function of (population, seed, i),
  so any access order, any chunking, and any number of re-materializations
  produce bit-identical objects (and therefore bit-identical run-cache keys,
  which is what keeps streamed experiments equal to materialized ones);
* iteration is **transient** -- it materializes one input at a time, so a
  consumer that does not hold references keeps peak memory at O(chunk),
  not O(N).

Per-index determinism comes from :func:`per_index_rng`: each input draws
from its own RNG seeded by (namespace, seed, index), so generating input
42 never requires generating inputs 0..41.
"""

from __future__ import annotations

import abc
import hashlib
import time
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence

import numpy as np


def per_index_rng(seed: int, index: int, *namespace: str) -> np.random.Generator:
    """A fresh RNG for one (population, seed, index) triple.

    The namespace strings (benchmark and variant names, typically) are
    folded in through a stable SHA-256 digest -- never the builtin ``hash``,
    which is salted per process -- so distinct populations draw from
    disjoint streams even for equal (seed, index) pairs, and the stream for
    a given triple is identical across processes and platforms.
    """
    if index < 0:
        raise ValueError("index must be non-negative")
    digest = hashlib.sha256("\x1f".join(namespace).encode("utf-8")).digest()
    salt = int.from_bytes(digest[:8], "big")
    entropy = [salt, int(seed) & 0xFFFFFFFFFFFFFFFF, int(index)]
    return np.random.default_rng(np.random.SeedSequence(entropy))


class InputSource(abc.ABC, Sequence):
    """A known-length input population, materialized per index on demand.

    Subclasses implement :meth:`__len__` and :meth:`materialize`; everything
    else (indexing, iteration, selection) is derived.  The
    materialization contract -- ``materialize(i)`` is a pure function of the
    source and ``i`` -- is what every streaming guarantee in the repo rests
    on; :mod:`tests.benchmarks_suite.test_input_sources` enforces it for
    the six benchmarks.
    """

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of inputs in the population."""

    @abc.abstractmethod
    def materialize(self, index: int) -> Any:
        """Produce input ``index`` (0 <= index < len); pure and deterministic."""

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.select(range(*index.indices(len(self))))
        i = int(index)
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"input index {index} out of range for {n} inputs")
        return self.materialize(i)

    def __iter__(self) -> Iterator[Any]:
        for i in range(len(self)):
            yield self.materialize(i)

    def select(self, indices: Iterable[int]) -> "InputSource":
        """A lazy view of this source restricted to ``indices`` (in order)."""
        return _SelectedInputSource(self, indices)

    def materialized(self) -> List[Any]:
        """The whole population as a plain list (the O(N) legacy shape)."""
        return [self.materialize(i) for i in range(len(self))]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={len(self)})"


class GeneratedInputSource(InputSource):
    """An input population defined by a per-index generator function.

    Args:
        n: population size.
        seed: population seed, passed to every per-index call.
        item: callable ``item(index, seed) -> input``; must be a pure
            function of its arguments (see the module docstring).
        name: optional label for diagnostics.
    """

    def __init__(
        self,
        n: int,
        seed: int,
        item: Callable[[int, int], Any],
        name: Optional[str] = None,
    ) -> None:
        if n < 0:
            raise ValueError("n must be non-negative")
        self._n = int(n)
        self.seed = int(seed)
        self.item = item
        self.name = name

    def __len__(self) -> int:
        return self._n

    def materialize(self, index: int) -> Any:
        return self.item(index, self.seed)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"GeneratedInputSource({self._n},{label} seed={self.seed})"


class _SelectedInputSource(InputSource):
    """A lazy index-selected view over another source."""

    def __init__(self, base: InputSource, indices: Iterable[int]) -> None:
        self._base = base
        self._indices = [int(i) for i in indices]

    def __len__(self) -> int:
        return len(self._indices)

    def materialize(self, index: int) -> Any:
        return self._base.materialize(self._indices[index])


class ObservedInputSource(InputSource):
    """A pass-through view that reports per-input generation time.

    The experiment runner wraps the streamed source in one of these so the
    cost of lazy generation -- which would otherwise vanish inside the
    measurement phases -- is attributed explicitly (the ``inputs.generate``
    phase and the ``inputs_generated`` counter in ``--runtime-stats``).

    Args:
        base: the source to observe.
        observer: callable ``observer(seconds)`` invoked after every
            materialization with the time it took.
    """

    def __init__(self, base: InputSource, observer: Callable[[float], None]) -> None:
        self._base = base
        self._observer = observer

    def __len__(self) -> int:
        return len(self._base)

    def materialize(self, index: int) -> Any:
        start = time.perf_counter()
        item = self._base.materialize(index)
        self._observer(time.perf_counter() - start)
        return item

    def __reduce__(self):
        # The observer is a closure over live telemetry and cannot (and
        # should not) cross a process boundary; a pickled copy observes
        # silently.  Materialized values are identical either way; only the
        # parent-side timing attribution is local.
        return (ObservedInputSource, (self._base, _silent_observer))


def _silent_observer(_seconds: float) -> None:
    """No-op observer installed when an :class:`ObservedInputSource` is unpickled."""
