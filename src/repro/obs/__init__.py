"""``repro.obs`` — zero-cost-when-off telemetry for the reproduction.

The paper's core claims are *dynamic*: feedback FS holds per-partition
occupancy near target while the scaling factors alpha_i converge
(Figs. 3/5), and associativity stays high as partition counts grow.
End-of-run aggregates cannot show any of that, so this package records
what happened *during* a run:

``timeseries``
    :class:`TimeSeriesRecorder` — a
    :class:`~repro.cache.events.CacheObserver` sampling per-partition
    occupancy, target, scaling factor alpha_i, windowed miss rate and
    eviction demand every ``interval`` accesses.  The window is driven
    off the deterministic access counter — never wall-clock — so two
    identical runs produce byte-identical series.  The cache's compiled
    access kernel inlines the recorder when subscribed and emits *no*
    observability code when it is not.
``trace`` / ``stitch``
    The sweep's distributed trace, the one per-cell record on disk: the
    coordinator writes the root ``sweep`` span and one ``cell`` span
    per :class:`~repro.runner.Cell`, every process that runs an attempt
    appends its ``claim`` / ``execute`` / ``ack`` / ``nack`` spans, and
    :func:`stitch` rebuilds the tree offline.  Span IDs are pure hashes
    and every wall-clock field sits under a ``"wall"`` sub-object, so
    the :func:`canonical` projection is byte-comparable across runs.
``spans``
    :class:`RunTelemetry` — the coordinator's in-memory record of the
    sweep (one :class:`CellSpan` per cell); it writes the coordinator's
    trace file and the manifest's cell counts.
``session``
    :class:`TelemetrySession` — owns the on-disk telemetry directory
    (``manifest.json``, ``traces/``, ``series/``, ``profile/``),
    activates series recording and tracing for worker processes, and
    stamps ``repro.__version__`` into the run manifest.

Surfacing: the experiments CLI grows ``--telemetry[=PATH]``
(:mod:`repro.experiments.__main__`), the :func:`repro.api.run_experiment`
facade a ``telemetry=`` argument, and ``python -m repro.obs report DIR``
renders a text dashboard from the manifest and the stitched trace
(sparkline occupancy / alpha_i convergence, top-N slowest cells,
fault/retry summary);  ``python -m repro.obs validate DIR`` checks every
artifact against the JSONL schemas (:mod:`repro.obs.schema`), and
``python -m repro.obs trace DIR`` stitches and checks the trace.

Nothing in this package is imported by the hot path at module level;
when telemetry is off the compiled access kernels contain no obs code
and the runner performs no telemetry calls.
"""

from .report import render_report, report_data
from .runtime import (
    TELEMETRY_ENV,
    TELEMETRY_INTERVAL_ENV,
    TELEMETRY_PROFILE_ENV,
    maybe_profile,
    record_series,
    series_config,
    set_cell,
)
from .schema import validate_run_dir
from .session import TelemetrySession
from .spans import CellSpan, RunTelemetry
from .stitch import (canonical, completeness, critical_path, load_trace_rows,
                     render_critical_path, render_tree, stitch)
from .timeseries import TimeSeriesRecorder
from .trace import (Span, Tracer, TraceWriter, ambient_tracer, execute_span,
                    span_id, trace_id_for)

__all__ = [
    "CellSpan",
    "RunTelemetry",
    "Span",
    "TELEMETRY_ENV",
    "TELEMETRY_INTERVAL_ENV",
    "TELEMETRY_PROFILE_ENV",
    "TelemetrySession",
    "TimeSeriesRecorder",
    "TraceWriter",
    "Tracer",
    "ambient_tracer",
    "canonical",
    "completeness",
    "critical_path",
    "execute_span",
    "load_trace_rows",
    "maybe_profile",
    "record_series",
    "render_critical_path",
    "render_report",
    "render_tree",
    "report_data",
    "series_config",
    "set_cell",
    "span_id",
    "stitch",
    "trace_id_for",
    "validate_run_dir",
]
