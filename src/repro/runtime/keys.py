"""Content-based keys for the run cache.

A cached program run is identified by three components:

* the *program fingerprint* -- the program's name plus the identity of its
  run function and accuracy contract.  Two registry benchmarks that share a
  program (e.g. ``sort1`` and ``sort2``, which differ only in their input
  population) produce the same fingerprint and therefore share cache
  entries; two unrelated programs that happen to share a name do not.
* the *configuration key* -- a canonical digest of the configuration's
  parameter values (selectors included), or, for a program that declares
  a read view (:class:`~repro.lang.program.PetaBricksProgram`), of the
  values a run on that input reads, so configurations that differ only in
  unread values share one run (:func:`read_key`).
* the *input key* -- a canonical digest of the input's content (array
  bytes, dataclass fields, nested containers).

Keys are hex digests, so they survive a JSON round-trip unchanged and the
on-disk cache written by one process is readable by another.  How the three
components join into one run key is this module's business: callers use
:func:`run_key`, or :func:`program_key`, :func:`read_key` and
:func:`join_run_key` when they already hold some of the digests.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
from typing import Any

import numpy as np

from repro.lang.config import Configuration
from repro.lang.program import PetaBricksProgram

#: Separator used when feeding structured tokens into the hash.
_SEP = b"\x1f"


def _update(digest: "hashlib._Hash", value: Any) -> None:
    """Feed one value (recursively) into the digest in a canonical form."""
    if value is None:
        digest.update(b"none")
    elif isinstance(value, bool):
        digest.update(b"bool" + _SEP + str(value).encode())
    elif isinstance(value, (int, np.integer)):
        digest.update(b"int" + _SEP + str(int(value)).encode())
    elif isinstance(value, (float, np.floating)):
        digest.update(b"float" + _SEP + repr(float(value)).encode())
    elif isinstance(value, str):
        digest.update(b"str" + _SEP + value.encode())
    elif isinstance(value, bytes):
        digest.update(b"bytes" + _SEP + value)
    elif isinstance(value, np.ndarray):
        digest.update(
            b"ndarray" + _SEP + str(value.dtype).encode() + _SEP + str(value.shape).encode()
        )
        digest.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (list, tuple)):
        digest.update(b"seq" + _SEP + str(len(value)).encode())
        for item in value:
            _update(digest, item)
    elif isinstance(value, (dict,)):
        digest.update(b"map" + _SEP + str(len(value)).encode())
        for key in sorted(value, key=repr):
            _update(digest, key)
            _update(digest, value[key])
    elif isinstance(value, (set, frozenset)):
        digest.update(b"set" + _SEP + str(len(value)).encode())
        for item in sorted(value, key=repr):
            _update(digest, item)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        digest.update(b"dc" + _SEP + type(value).__qualname__.encode())
        for field in dataclasses.fields(value):
            _update(digest, field.name)
            _update(digest, getattr(value, field.name))
    else:
        # Last resorts: a stable pickle if possible, else the repr.  repr is
        # only reached for exotic unpicklable objects; collisions there would
        # need two distinct unpicklable inputs with identical reprs.
        try:
            digest.update(b"pickle" + _SEP + pickle.dumps(value))
        except Exception:
            digest.update(b"repr" + _SEP + repr(value).encode())


def _digest_of(*values: Any) -> str:
    digest = hashlib.sha1()
    for value in values:
        _update(digest, value)
        digest.update(_SEP)
    return digest.hexdigest()


def _callable_id(func: Any) -> str:
    """A stable module-qualified identifier for a function-like object."""
    return f"{getattr(func, '__module__', '?')}.{getattr(func, '__qualname__', repr(func))}"


def program_fingerprint(program: PetaBricksProgram) -> str:
    """A stable identifier for *what the program computes*.

    Includes the run function's and accuracy-metric function's
    module-qualified names plus the accuracy contract, so two same-named
    programs with different behaviour do not share cache entries.
    """
    metric = program.accuracy_metric
    requirement = program.accuracy_requirement
    return _digest_of(
        program.name,
        _callable_id(program._run_func),
        metric.name,
        _callable_id(metric.func),
        requirement.enabled,
        float(requirement.accuracy_threshold) if requirement.enabled else 0.0,
        float(requirement.satisfaction_threshold) if requirement.enabled else 0.0,
    )[:16]


def config_key(config: Configuration) -> str:
    """Canonical digest of a configuration's values."""
    return _digest_of(dict(config.values))[:16]


def read_key(
    program: PetaBricksProgram, config: Configuration, program_input: Any
) -> str:
    """The configuration part of a run key: a digest of what the run reads.

    For a program that declares a ``read_view``, the digest of its view of
    ``(config, program_input)``; otherwise :func:`config_key`.  A view is
    a tuple and :func:`config_key` hashes a map, so the two digests are
    taken of differently tagged values and never stand for each other.
    """
    if program.read_view is None:
        return config_key(config)
    return _digest_of(program.read_view(config, program_input))[:16]


def input_key(program_input: Any) -> str:
    """Canonical digest of an input's content."""
    return _digest_of(program_input)[:16]


def program_key(program: PetaBricksProgram) -> str:
    """The part of a run key shared by every run of ``program``."""
    return f"{program.name}:{program_fingerprint(program)}"


def join_run_key(program_digest: str, config_digest: str, input_digest: str) -> str:
    """A run key from its :func:`program_key` and the two content digests.

    For callers that already hold the digests -- a batch that hashes each
    distinct configuration and input once, a server that keyed the input
    for coalescing -- so that nothing is hashed twice.
    """
    return f"{program_digest}:{config_digest}:{input_digest}"


def run_key(program: PetaBricksProgram, config: Configuration, program_input: Any) -> str:
    """The full cache key of one (program, configuration, input) run."""
    return join_run_key(
        program_key(program),
        read_key(program, config, program_input),
        input_key(program_input),
    )
