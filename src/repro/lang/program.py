"""The program abstraction the autotuner and learning framework operate on.

A :class:`PetaBricksProgram` bundles together everything the paper's system
needs to know about a tunable program:

* its configuration space (tunables + selectors + feature-level tunables);
* a ``run`` entry point that executes the program with a given configuration
  on a given input and reports the work-unit cost and output;
* the set of ``input_feature`` extractors;
* an accuracy metric and requirement (for variable-accuracy programs);
* optionally, a *read view*: the configuration values a run on a given
  input reads, so the run cache can key runs by those values alone.

Concrete benchmarks in :mod:`repro.benchmarks_suite` construct instances of
this class; the autotuner (:mod:`repro.autotuner`) and the two-level learning
pipeline (:mod:`repro.core`) only ever see this interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Optional

from repro.lang.accuracy import AccuracyMetric, AccuracyRequirement, always_accurate
from repro.lang.config import Configuration, ConfigurationSpace
from repro.lang.cost import CostCounter, scoped_counter
from repro.lang.features import FeatureSet


@dataclass(frozen=True)
class RunResult:
    """Outcome of executing a program once.

    Attributes:
        output: the program's output object (benchmark specific).
        time: execution cost in deterministic work units (stands in for
            wall-clock time; see README.md, "Substitutions").
        accuracy: value of the program's accuracy metric on this run.
        extra: optional benchmark-specific diagnostics.
    """

    output: Any
    time: float
    accuracy: float
    extra: Dict[str, Any] = field(default_factory=dict)


class PetaBricksProgram:
    """A tunable program with algorithmic choices and input features.

    Args:
        name: program name (e.g. ``"sort"``).
        config_space: the space of legal configurations.
        run_func: callable ``run_func(config, input) -> output`` implementing
            the program.  It must charge its work to the ambient cost counter
            (all benchmark implementations do, via :func:`repro.lang.cost.charge`).
        features: the program's ``input_feature`` extractors.
        accuracy_metric: output-quality metric; defaults to "always 1.0".
        accuracy_requirement: quality-of-service contract; defaults to
            disabled (fixed accuracy).
        read_view: optional callable ``read_view(config, input) ->
            hashable`` returning, in canonical form, exactly the
            configuration values that a run on that input reads.  Its
            contract: two configurations with equal views on an input give
            bit-identical runs on it (time, accuracy and output), so
            :func:`repro.runtime.keys.read_key` keys a run by its view.
            ``None`` (the default) means every value is read.
    """

    def __init__(
        self,
        name: str,
        config_space: ConfigurationSpace,
        run_func: Callable[[Configuration, Any], Any],
        features: Optional[FeatureSet] = None,
        accuracy_metric: Optional[AccuracyMetric] = None,
        accuracy_requirement: Optional[AccuracyRequirement] = None,
        read_view: Optional[Callable[[Configuration, Any], Hashable]] = None,
    ) -> None:
        self.name = name
        self.config_space = config_space
        self._run_func = run_func
        self.features = features if features is not None else FeatureSet()
        self.accuracy_metric = (
            accuracy_metric if accuracy_metric is not None else always_accurate()
        )
        self.accuracy_requirement = (
            accuracy_requirement
            if accuracy_requirement is not None
            else AccuracyRequirement.disabled()
        )
        self.read_view = read_view

    @property
    def has_variable_accuracy(self) -> bool:
        """True when this program has a real quality-of-service requirement."""
        return self.accuracy_requirement.enabled

    def run(self, config: Configuration, program_input: Any) -> RunResult:
        """Execute the program once and measure cost and accuracy.

        The run is executed under a fresh cost counter, so the reported
        ``time`` covers exactly this run (feature extraction is accounted
        separately by the learning framework).
        """
        counter = CostCounter()
        with scoped_counter(counter):
            output = self._run_func(config, program_input)
        accuracy = self.accuracy_metric.score(program_input, output)
        return RunResult(output=output, time=counter.total, accuracy=accuracy)

    def default_configuration(self) -> Configuration:
        """Convenience passthrough to the configuration space default."""
        return self.config_space.default_configuration()

    def __repr__(self) -> str:
        return (
            f"PetaBricksProgram({self.name!r}, "
            f"{len(self.config_space)} parameters, "
            f"{len(self.features)} feature properties)"
        )
