"""Deterministic tracing for sweeps.

One sweep = one trace = one file, ``traces/trace.jsonl``.  The
coordinator is its only writer: it hands every attempt to a worker and
receives every answer, death and timeout, so it records one root
``sweep`` span, one ``cell`` span per cell, and one row per attempt
under its cell — an ``execute`` row for an attempt that answered
(status ``ok``, or ``error`` for a failure), a ``lost`` row for one
whose worker died, was killed for a timeout, or never started.  A
worker returns its attempt's record (the wall window it ran in and the
deterministic events it saw) with its answer, and
:class:`~repro.obs.spans.RunTelemetry` folds it into the attempt's row.

Identity is derived, never minted.  Trace and span IDs are pure
functions of the sweep digest, cell key, span kind and attempt number —
**never** the clock, the PID, or ``uuid4()`` — so the deterministic
projection of a trace (drop ``"wall"``, drop timing-dependent events)
is byte-identical across ``--jobs`` and worker counts, which the chaos
tests assert literally.

Wall-clock timestamps are the *point* of a trace, so they exist — but
only under each row's ``"wall"`` sub-object, mirroring the manifest
convention, and they are read through the single sanctioned
:func:`wall_now` below.  Events carry a ``"det"`` flag: ``det=True``
events (fault injections, error types, retry decisions) are facts of
the computation and survive into the canonical projection;
``det=False`` events (a ``lost`` attempt's worker death) describe the
*schedule* and are stripped.

Tracing follows telemetry: an active
:class:`~repro.obs.session.TelemetrySession` sets ``$REPRO_TELEMETRY``,
and an attempt builds its record only when the variable is set, so
telemetry disabled is one environment check per attempt and zero
artifacts written.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Sequence

from ..errors import ConfigurationError

__all__ = [
    "SPAN_KINDS",
    "TRACE_FILE",
    "span_id",
    "sweep_digest",
    "trace_id_for",
    "wall_now",
]

#: Every span kind, in causal order: the root ``sweep``, one ``cell``
#: per cell, and one ``execute`` or ``lost`` row per attempt.
SPAN_KINDS = ("sweep", "cell", "execute", "lost")

#: The one trace file of a run directory's ``traces/``.
TRACE_FILE = "trace.jsonl"


def wall_now() -> float:
    """The one sanctioned wall-clock read for trace timestamps.

    Trace rows are *about* wall time, but every reading funnels through
    here and lands exclusively under a row's ``"wall"`` sub-object —
    the same contract as the run manifest.
    """
    return time.time()  # reprolint: disable=DET002,DET004


def sweep_digest(keys: Sequence[str]) -> str:
    """Identity of a sweep: the SHA-256 of its ordered (index, key) pairs.

    Changed config or changed code changes the keys, hence the sweep.
    """
    blob = json.dumps([[i, key] for i, key in enumerate(keys)],
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def trace_id_for(keys: Sequence[str]) -> str:
    """Deterministic trace ID for one sweep: a prefix of
    :func:`sweep_digest`, the hash of its ordered ``(index, key)``
    pairs.  The same sweep traced twice yields the same trace ID, and
    no clock or RNG can leak in by construction."""
    return sweep_digest(keys)[:32]


def span_id(trace_id: str, kind: str, key: str = "", attempt: int = 0) -> str:
    """Deterministic span ID: pure function of (trace, kind, key, attempt).

    Because the ID carries no process identity, the same attempt traced
    by two runs of one sweep — at any ``--jobs`` — gets the same span
    ID, which is what lets :func:`repro.obs.stitch.canonical` compare
    traces across schedules.
    """
    if kind not in SPAN_KINDS:
        raise ConfigurationError(
            f"unknown span kind {kind!r}; expected one of {list(SPAN_KINDS)}")
    blob = f"{trace_id}/{kind}/{key}/{attempt}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
