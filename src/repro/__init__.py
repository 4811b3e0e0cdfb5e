"""repro: a reproduction of "Autotuning Algorithmic Choice for Input
Sensitivity" (Ding et al., PLDI 2015).

The package is organized as:

* :mod:`repro.lang` -- a PetaBricks-like substrate: algorithmic choice sites,
  selectors, tunables, ``input_feature`` extractors with sampling levels,
  variable-accuracy contracts, and the deterministic work-unit cost model.
* :mod:`repro.autotuner` -- the evolutionary autotuner used to produce
  landmark configurations.
* :mod:`repro.ml` -- from-scratch ML machinery (K-means, cost-sensitive
  decision trees, discretized naive Bayes, the train/test split).
* :mod:`repro.benchmarks_suite` -- the six benchmarks of the paper's
  evaluation (Sort, Clustering, Bin Packing, SVD, Poisson 2D, Helmholtz 3D).
* :mod:`repro.core` -- the paper's contribution: the two-level input-aware
  learning framework, its classifier zoo, the comparison baselines, and the
  Section 4.3 theoretical model.
* :mod:`repro.runtime` -- the shared measurement runtime: serial and
  process-pool executors, a content-keyed run cache, and telemetry.  All
  program runs (autotuning, Level-1 measurement, baselines, deployment) go
  through it.
* :mod:`repro.experiments` -- drivers that regenerate Table 1 and Figures
  6, 7, and 8.

Typical usage::

    from repro.benchmarks_suite import get_benchmark
    from repro.core import InputAwareLearning, Level1Config

    variant = get_benchmark("sort2")
    inputs = variant.benchmark.generate_inputs(200, variant.variant, seed=0)
    learner = InputAwareLearning(Level1Config(n_clusters=10))
    training = learner.fit(variant.benchmark.program, inputs)
    outcome = training.deployed.run(inputs[0])
"""

from repro.core import InputAwareLearning
from repro.lang import PetaBricksProgram

__version__ = "1.0.0"

__all__ = ["InputAwareLearning", "PetaBricksProgram", "__version__"]
