"""Benchmark interface shared by all six reproduced benchmarks.

A :class:`Benchmark` knows how to build its
:class:`~repro.lang.program.PetaBricksProgram` (configuration space, run
function, feature extractors, accuracy requirement) and how to generate
input sets (synthetic and, where applicable, "real-world-like" variants that
stand in for the paper's CCR / UCI datasets).  A :class:`BenchmarkVariant`
pairs a benchmark with one named input population -- the unit the paper's
Table 1 calls a *test* (``sort1`` and ``sort2`` are the same Sort program
over different populations) -- and :func:`registry` maps test names to
variant factories so drivers can look benchmarks up by string.

Contract for implementations: the program's run function must be a pure
function of (configuration, input) under the deterministic cost model --
any internal randomness seeded per run from constants -- and input
generation must be a pure function of its arguments *per index*: input
``i`` of ``input_source(n, variant, seed)`` depends only on (variant,
seed, i), never on inputs 0..i-1.  Those properties are what let the
measurement runtime cache runs by content key, fan batches out over
a process pool, and stream 50k-input experiments chunk by chunk --
the input list itself included -- with bit-identical results.
``generate_inputs`` is the materialized (O(N) list) view of the same
source.

The learning framework and the experiment harness only use this interface,
so adding a seventh benchmark requires no change outside its subpackage.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.core.inputs import GeneratedInputSource, InputSource
from repro.lang.program import PetaBricksProgram


@dataclass(frozen=True)
class InputGenerator:
    """A named source of benchmark inputs.

    Attributes:
        name: generator name (e.g. ``"synthetic"``, ``"real_world"``).
        description: what input population this generator mimics.
        item: callable ``item(index, seed) -> input`` producing input
            ``index`` alone -- what makes a population lazily streamable
            (see :mod:`repro.core.inputs`).
    """

    name: str
    description: str
    item: Callable[[int, int], Any]

    def source(self, n: int, seed: int = 0) -> InputSource:
        """A lazy source of ``n`` inputs."""
        return GeneratedInputSource(n, seed, self.item, name=self.name)


class Benchmark(abc.ABC):
    """Abstract benchmark: a tunable program plus its input populations."""

    #: Short benchmark name, e.g. ``"sort"``; subclasses override.
    name: str = "benchmark"

    def __init__(self) -> None:
        self._program: Optional[PetaBricksProgram] = None

    # -- program --------------------------------------------------------

    @abc.abstractmethod
    def build_program(self) -> PetaBricksProgram:
        """Construct the benchmark's tunable program (called once, cached)."""

    @property
    def program(self) -> PetaBricksProgram:
        """The benchmark's program, built lazily and cached."""
        if self._program is None:
            self._program = self.build_program()
        return self._program

    # -- inputs ---------------------------------------------------------

    @abc.abstractmethod
    def input_generators(self) -> Dict[str, InputGenerator]:
        """Return the benchmark's named input generators."""

    def input_source(
        self, n: int, variant: str = "synthetic", seed: int = 0
    ) -> InputSource:
        """A lazy source of ``n`` inputs from the named generator variant.

        The returned :class:`~repro.core.inputs.InputSource` knows its
        length and materializes each input independently and
        deterministically, so consumers can stream the population in
        O(chunk) memory; it is also a ``Sequence``, so code written against
        input lists keeps working unchanged.

        Raises:
            KeyError: if ``variant`` is not one of :meth:`input_generators`.
        """
        generators = self.input_generators()
        if variant not in generators:
            raise KeyError(
                f"{self.name}: unknown input variant {variant!r}; "
                f"available: {sorted(generators)}"
            )
        return generators[variant].source(n, seed=seed)

    def generate_inputs(
        self, n: int, variant: str = "synthetic", seed: int = 0
    ) -> List[Any]:
        """Generate ``n`` inputs as a list: :meth:`input_source`, materialized.

        Raises:
            KeyError: if ``variant`` is not one of :meth:`input_generators`.
        """
        return self.input_source(n, variant=variant, seed=seed).materialized()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


#: Registry of benchmark factories keyed by the test names used in Table 1.
#: ``sort1``/``sort2`` and ``clustering1``/``clustering2`` share a benchmark
#: class but use different input variants, mirroring the paper.
_REGISTRY: Dict[str, Callable[[], "BenchmarkVariant"]] = {}


@dataclass(frozen=True)
class BenchmarkVariant:
    """A (benchmark, input-variant) pair: one row of Table 1."""

    benchmark: Benchmark
    variant: str

    @property
    def name(self) -> str:
        return f"{self.benchmark.name}/{self.variant}"


def register(test_name: str, factory: Callable[[], BenchmarkVariant]) -> None:
    """Register a Table-1 test name (idempotent for identical factories)."""
    _REGISTRY[test_name] = factory


def registry() -> Dict[str, Callable[[], BenchmarkVariant]]:
    """All registered Table-1 test names and their factories."""
    _ensure_registered()
    return dict(_REGISTRY)


def get_benchmark(test_name: str) -> BenchmarkVariant:
    """Instantiate the benchmark variant for a Table-1 test name.

    Raises:
        KeyError: if the name is unknown.
    """
    _ensure_registered()
    if test_name not in _REGISTRY:
        raise KeyError(
            f"unknown benchmark test {test_name!r}; available: {sorted(_REGISTRY)}"
        )
    return _REGISTRY[test_name]()


def _ensure_registered() -> None:
    """Populate the registry on first use (avoids import cycles)."""
    if _REGISTRY:
        return
    from repro.benchmarks_suite.binpacking.benchmark import BinPackingBenchmark
    from repro.benchmarks_suite.clustering.benchmark import ClusteringBenchmark
    from repro.benchmarks_suite.helmholtz3d.benchmark import Helmholtz3DBenchmark
    from repro.benchmarks_suite.poisson2d.benchmark import Poisson2DBenchmark
    from repro.benchmarks_suite.sort.benchmark import SortBenchmark
    from repro.benchmarks_suite.svd.benchmark import SVDBenchmark

    register("sort1", lambda: BenchmarkVariant(SortBenchmark(), "real_world"))
    register("sort2", lambda: BenchmarkVariant(SortBenchmark(), "synthetic"))
    register(
        "clustering1", lambda: BenchmarkVariant(ClusteringBenchmark(), "real_world")
    )
    register(
        "clustering2", lambda: BenchmarkVariant(ClusteringBenchmark(), "synthetic")
    )
    register(
        "binpacking", lambda: BenchmarkVariant(BinPackingBenchmark(), "synthetic")
    )
    register("svd", lambda: BenchmarkVariant(SVDBenchmark(), "synthetic"))
    register("poisson2d", lambda: BenchmarkVariant(Poisson2DBenchmark(), "synthetic"))
    register(
        "helmholtz3d", lambda: BenchmarkVariant(Helmholtz3DBenchmark(), "synthetic")
    )
