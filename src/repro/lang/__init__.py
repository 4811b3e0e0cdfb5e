"""PetaBricks-like language substrate.

This subpackage provides the Python equivalent of the PetaBricks language
features the paper relies on:

* **algorithmic choice** -- :class:`~repro.lang.choices.ChoiceSite` models the
  ``either ... or`` construct; :class:`~repro.lang.selector.Selector` models
  the size-cutoff decision lists (Figure 2 of the paper) that turn a set of
  choices into a recursive polyalgorithm.
* **tunables** -- :class:`~repro.lang.config.IntegerParameter`,
  :class:`~repro.lang.config.FloatParameter` and
  :class:`~repro.lang.config.CategoricalParameter` model the ``tunable``
  keyword (autotuner-set scalar parameters with a bounded range).
* **input features** -- :class:`~repro.lang.features.FeatureExtractor` models
  the ``input_feature`` keyword, including sampling levels with different
  extraction costs.
* **variable accuracy** -- :class:`~repro.lang.accuracy.AccuracyMetric` and
  :class:`~repro.lang.accuracy.AccuracyRequirement` model programmer-defined
  accuracy metrics, accuracy thresholds, and satisfaction thresholds.
* **cost accounting** -- :class:`~repro.lang.cost.CostCounter` provides the
  deterministic work-unit cost model used in place of wall-clock time (see
  README.md, "Substitutions", item 1).
* **programs** -- :class:`~repro.lang.program.PetaBricksProgram` bundles the
  above into the object that the autotuner and the two-level learning
  framework operate on.
"""

from repro.lang.accuracy import (
    AccuracyMetric,
    AccuracyRequirement,
    always_accurate,
)
from repro.lang.choices import Choice, ChoiceSite
from repro.lang.config import (
    CategoricalParameter,
    Configuration,
    ConfigurationSpace,
    FloatParameter,
    IntegerParameter,
    Parameter,
)
from repro.lang.cost import CostCounter, scoped_counter
from repro.lang.features import FeatureExtractor, FeatureSet, FeatureValue
from repro.lang.program import PetaBricksProgram, RunResult
from repro.lang.selector import Selector, SelectorParameter, SelectorRule

__all__ = [
    "AccuracyMetric",
    "AccuracyRequirement",
    "always_accurate",
    "CategoricalParameter",
    "Choice",
    "ChoiceSite",
    "Configuration",
    "ConfigurationSpace",
    "CostCounter",
    "FeatureExtractor",
    "FeatureSet",
    "FeatureValue",
    "FloatParameter",
    "IntegerParameter",
    "Parameter",
    "PetaBricksProgram",
    "RunResult",
    "scoped_counter",
    "Selector",
    "SelectorParameter",
    "SelectorRule",
]
