"""Online adaptation: drift detection, live retraining, and hot-swap.

The layer that closes the loop the paper leaves open: the selector is
trained once offline, but a live service sees its input population move.
:class:`FeedbackLog` captures the per-request signal of a served stream,
:class:`DriftMonitor` watches its feature distribution against the frozen
training population, and :class:`Retrainer` re-tunes landmarks and
retrains the Level-2 classifier on the drifted window, hot-swapping the
result through the serving
:class:`~repro.serving.registry.ModelRegistry` only after validating it
against the incumbent.  :mod:`repro.adaptation.scenarios` scripts
deterministic population shifts and replays them end to end (the
``repro adapt-replay`` CLI), scoring selector regret before and after
adaptation.  See docs/adaptation.md.
"""

from repro.adaptation.drift import (
    DriftConfig,
    DriftMonitor,
    DriftReport,
    FeatureDrift,
)
from repro.adaptation.feedback import FeedbackLog, FeedbackRecord
from repro.adaptation.retrainer import RetrainConfig, RetrainOutcome, Retrainer
from repro.adaptation.scenarios import (
    DriftScenario,
    MixtureInputSource,
    MixturePhase,
    ReplayReport,
    SCENARIOS,
    get_scenario,
    replay_scenario,
    sort_drift_scenario,
)

__all__ = [
    "DriftConfig",
    "DriftMonitor",
    "DriftReport",
    "DriftScenario",
    "FeatureDrift",
    "FeedbackLog",
    "FeedbackRecord",
    "MixtureInputSource",
    "MixturePhase",
    "ReplayReport",
    "RetrainConfig",
    "RetrainOutcome",
    "Retrainer",
    "SCENARIOS",
    "get_scenario",
    "replay_scenario",
    "sort_drift_scenario",
]
