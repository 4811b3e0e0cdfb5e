"""Crash-safe experiment resume: a manifest saved with the runs it covers.

The runtime's persistence story already makes resumption *correct*: every
run is a pure function of content, and the
:class:`~repro.runtime.cache.RunCache` store persists measurements keyed by
that content.  What it lacked was *durability at chunk granularity* -- a run
SIGKILLed mid-measurement used to lose everything since the last explicit
``save_cache()`` (typically the whole phase).

:class:`ExperimentCheckpoint` closes that gap.  Attached to a
:class:`~repro.runtime.runtime.Runtime` (``runtime.checkpoint``), it is
called at every chunk boundary, where it saves the cache together with a
small manifest -- one transaction writes the chunk's runs and the manifest
that records them, so no crash can leave one without the other::

    {
      "version": 1,
      "config": "<sha256 digest of the experiment's identity>",
      "phase": "level1.measure",
      "completed_chunks": [0, 1, 2, ...],
      "interrupted": true
    }

On ``--resume`` the manifest's config digest is checked against the
current experiment's; a match means every completed chunk's measurements
are on disk, so re-running the experiment replays those chunks as pure
cache hits and only executes from the first unfinished chunk --
producing the bit-identical output an uninterrupted run would have.
A mismatch (different test, seed, sizes...) refuses to resume rather than
silently mixing two experiments' progress.

``interrupted`` is flipped to False by :meth:`finish`; a manifest still
carrying True therefore marks a run that died, which is exactly the state
``--resume`` is for.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional

#: Manifest format version.
MANIFEST_VERSION = 1


def config_digest(payload: Dict[str, Any]) -> str:
    """Stable digest of an experiment's identity-defining settings.

    ``payload`` must be JSON-serializable; key order does not matter.
    """
    encoded = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()[:32]


class CheckpointMismatch(ValueError):
    """``--resume`` found a manifest written by a different experiment."""


class ExperimentCheckpoint:
    """Chunk-granular progress manifest for one experiment run.

    Args:
        cache: the :class:`~repro.runtime.cache.RunCache` whose store keeps
            the manifest with the runs (they survive or die together).
        digest: the experiment's config digest (:func:`config_digest`).
    """

    def __init__(self, cache: Any, digest: str) -> None:
        self.cache = cache
        self.digest = digest
        self.phase = "start"
        self.completed_chunks: List[int] = []
        self.resumed_from: Optional[Dict[str, Any]] = None

    # -- reading ---------------------------------------------------------

    def load(self) -> Optional[Dict[str, Any]]:
        """The saved manifest, or None if missing/corrupt/incompatible."""
        manifest = self.cache.read_manifest()
        if manifest is None or manifest.get("version") != MANIFEST_VERSION:
            return None
        return manifest

    def resume(self) -> Optional[Dict[str, Any]]:
        """Adopt a prior run's manifest; None when there is nothing to resume.

        Raises :class:`CheckpointMismatch` when a manifest exists but was
        written by a different experiment configuration.
        """
        manifest = self.load()
        if manifest is None:
            return None
        if manifest.get("config") != self.digest:
            raise CheckpointMismatch(
                f"checkpoint in {self.cache.persist_path!r} belongs to a "
                f"different experiment (config {manifest.get('config')!r}, "
                f"expected {self.digest!r}); remove the store or rerun "
                "without --resume"
            )
        self.resumed_from = manifest
        return manifest

    # -- writing ---------------------------------------------------------

    def set_phase(self, name: str) -> None:
        """Record entering a coarse experiment phase."""
        self.phase = name
        self._save(interrupted=True)

    def chunk_completed(self) -> None:
        """Runtime chunk-boundary hook: save the chunk's runs together with
        the manifest that records the chunk."""
        self.completed_chunks.append(len(self.completed_chunks))
        self._save(interrupted=True)

    def finish(self) -> None:
        """Mark the run complete (a later ``--resume`` becomes a no-op)."""
        self._save(interrupted=False)

    def _save(self, interrupted: bool) -> None:
        self.cache.save(
            manifest={
                "version": MANIFEST_VERSION,
                "config": self.digest,
                "phase": self.phase,
                "completed_chunks": self.completed_chunks,
                "interrupted": interrupted,
            }
        )
