"""The paper's primary contribution: two-level input-aware learning.

The subpackage is organized along the paper's Section 3:

* :mod:`repro.core.level1` -- Figure 4: feature extraction, input-space
  clustering, landmark creation (evolutionary autotuning per cluster
  centroid), and performance measurement of every landmark on every training
  input.
* :mod:`repro.core.dataset` -- the resulting datatable of 4-tuples
  <F, T, A, E> that Level 2 consumes.
* :mod:`repro.core.level2` -- Figure 5: performance-based relabelling
  (cluster refinement), cost-matrix construction, training of the candidate
  classifier zoo, and selection of the production classifier.
* :mod:`repro.core.classifiers` -- the four classifier families of Section
  3.2 (Max-apriori, Exhaustive Feature Subsets, All Features, Incremental
  Feature Examination).
* :mod:`repro.core.selection` -- the classifier-efficacy objective (execution
  time + feature extraction time, subject to the accuracy satisfaction
  threshold).
* :mod:`repro.core.baselines` -- Static Oracle, Dynamic Oracle, and the
  traditional One-Level approach used for comparison in Table 1.
* :mod:`repro.core.pipeline` -- :class:`InputAwareLearning`, the end-to-end
  training pipeline, and :class:`DeployedProgram`, the deployment-time
  object that classifies each incoming input and runs the selected
  input-optimized program.
* :mod:`repro.core.model` -- the Section 4.3 theoretical model of
  diminishing returns in the number of landmark configurations.
* :mod:`repro.core.inputs` -- lazy :class:`InputSource` populations: known
  length, deterministic per-index materialization, chunked iteration -- the
  input side of the streaming (50k-input-regime) story.
"""

from repro.core.baselines import (
    DynamicOracle,
    OneLevelLearning,
    StaticOracle,
)
from repro.core.classifiers import (
    AllFeaturesClassifier,
    ClassifierDescription,
    IncrementalFeatureExaminationClassifier,
    MaxAprioriClassifier,
    SubsetDecisionTreeClassifier,
)
from repro.core.dataset import PerformanceDataset
from repro.core.inputs import (
    GeneratedInputSource,
    InputSource,
    ObservedInputSource,
    per_index_rng,
)
from repro.core.level1 import Level1Config, Level1Result, run_level1
from repro.core.level2 import Level2Config, Level2Result, run_level2
from repro.core.model import (
    expected_speedup_loss,
    fraction_of_full_speedup,
    worst_case_region_size,
)
from repro.core.pipeline import DeployedProgram, InputAwareLearning, TrainingResult
from repro.core.selection import ClassifierEvaluation, evaluate_classifier, select_production_classifier

__all__ = [
    "AllFeaturesClassifier",
    "ClassifierDescription",
    "ClassifierEvaluation",
    "DeployedProgram",
    "DynamicOracle",
    "evaluate_classifier",
    "expected_speedup_loss",
    "fraction_of_full_speedup",
    "GeneratedInputSource",
    "IncrementalFeatureExaminationClassifier",
    "InputAwareLearning",
    "InputSource",
    "ObservedInputSource",
    "per_index_rng",
    "Level1Config",
    "Level1Result",
    "Level2Config",
    "Level2Result",
    "MaxAprioriClassifier",
    "OneLevelLearning",
    "PerformanceDataset",
    "run_level1",
    "run_level2",
    "select_production_classifier",
    "StaticOracle",
    "SubsetDecisionTreeClassifier",
    "TrainingResult",
    "worst_case_region_size",
]
