"""The six PetaBricks benchmarks used in the paper's evaluation.

Each benchmark subpackage provides:

* the algorithmic alternatives the paper lists for it (the ``either...or``
  choices) implemented as real algorithms instrumented with the work-unit
  cost model;
* the ``input_feature`` extractors the paper names, each with three sampling
  levels of increasing cost;
* the accuracy metric and thresholds from Section 4.1;
* input generators: a synthetic generator spanning the feature space plus,
  where the paper used a real-world dataset (sort1, clustering1), a
  "real-world-like" generator that mimics that dataset's statistical
  character (see README.md, "Substitutions", item 2);
* a :class:`~repro.benchmarks_suite.base.Benchmark` subclass tying it all
  together into a :class:`~repro.lang.program.PetaBricksProgram`.
"""

from repro.benchmarks_suite.base import Benchmark, InputGenerator, get_benchmark, registry
from repro.benchmarks_suite.binpacking.benchmark import BinPackingBenchmark
from repro.benchmarks_suite.clustering.benchmark import ClusteringBenchmark
from repro.benchmarks_suite.helmholtz3d.benchmark import Helmholtz3DBenchmark
from repro.benchmarks_suite.poisson2d.benchmark import Poisson2DBenchmark
from repro.benchmarks_suite.sort.benchmark import SortBenchmark
from repro.benchmarks_suite.svd.benchmark import SVDBenchmark

__all__ = [
    "Benchmark",
    "BinPackingBenchmark",
    "ClusteringBenchmark",
    "get_benchmark",
    "Helmholtz3DBenchmark",
    "InputGenerator",
    "Poisson2DBenchmark",
    "registry",
    "SortBenchmark",
    "SVDBenchmark",
]
