"""One figure sweep in a fresh interpreter: the unit the benchmark times.

``run.py`` starts this script once per sample::

    python3 perfbench/sweep.py MODE WORKLOAD SEED SCALE JOBS STORE_DIR

``MODE`` is one of

``setup``
    stop just before the first cell (set-up time only);
``timed``
    the plain sweep, nothing wrapped;
``count``
    inline sweep counting ``PartitionedCache.access`` calls, misses and
    synthesized accesses;
``runner``
    timed sweep plus timing of ``run_cells`` and the store's
    ``get``/``put``, with per-cell runner telemetry;
``traced``
    inline sweep with every layer wrapped (see ``tracer.py``).

``STORE_DIR`` is a fresh, empty directory opened as the sweep's ``local``
store.  The script prints one JSON object as its last line of output.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def main(argv) -> int:
    mode, name, seed, scale, jobs, store_dir = argv[1:7]
    seed, jobs = int(seed), int(jobs)

    import repro
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported repro from {repro.__file__}, "
                         f"not from {ROOT / 'src'}")
    from repro.obs.spans import RunTelemetry
    from repro.runner import RunConfig
    from repro.store import LocalFileStore

    figures = workloads.WORKLOADS[name].configs(seed, scale)
    cells = sum(len(spec.cells(config)) for spec, config in figures)
    store = LocalFileStore(store_dir)
    out = {"setup_end": time.monotonic(), "cells": cells}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = tracing.Tracer()
    if mode == "traced":
        tracing.instrument(tracer, store)
    elif mode == "count":
        tracing.instrument_counts(tracer)
    elif mode == "runner":
        tracing.instrument_runner(tracer, store)
    telemetries = []
    results, texts = [], []
    t0 = time.perf_counter()
    with tracer.span("sweep", "bench.sweep") if mode == "traced" \
            else nullcontext():
        for spec, config in figures:
            telemetry = RunTelemetry() if mode == "runner" else None
            result = spec.run(config, run_config=RunConfig(
                jobs=jobs, store=store, telemetry=telemetry))
            with tracer.span("render " + spec.name, "experiments.render") \
                    if mode == "traced" else nullcontext():
                texts.append(spec.format(result))
            results.append((spec.name, result))
            telemetries.append(telemetry)
    out["sweep_s"] = time.perf_counter() - t0

    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out["rss_mb"] = rss_kb / 1024.0
    out["digest"] = hashlib.sha256(
        "\n\n".join(texts).encode("utf-8")).hexdigest()
    checks, accuracy = workloads.check_results(results)
    hits = store.stats().hits
    checks.append(("cold store: no hits", hits == 0, f"{hits} == 0"))
    if mode == "traced":
        checks.append((
            "kernel source unchanged under instrumentation",
            tracer.kernels > 0 and not tracer.kernel_mismatches,
            f"{tracer.kernels} kernels, changed: "
            f"{tracer.kernel_mismatches}"))
    out["checks"] = checks
    out["accuracy"] = accuracy
    out["counts"] = dict(tracer.counts)
    out["counts"]["cache.access_calls"] = int(
        tracer.layers.get("cache.access", [0])[0])
    if mode == "runner":
        out["runner"] = runner_metrics(tracer, telemetries, jobs)
        out["runner"]["store.hits"] = hits
    if mode == "traced":
        out["layers"] = {k: list(v) for k, v in tracer.layers.items()}
        out["spans"] = tracer.spans
    print(json.dumps(out))
    return 0


def runner_metrics(tracer, telemetries, jobs):
    """Runner and store figures for one sweep in its own ``--jobs`` mode.

    Each ``run_cells`` call gets ``min(jobs, cells)`` workers; idle is the
    share of that worker time not spent inside a cell, and overhead is the
    part of the call's wall time that a perfectly packed schedule of the
    same cells would not need.
    """
    walls = [s["end"] - s["start"] for s in tracer.spans
             if s["layer"] == "runner"]
    durations, capacity, overhead = [], 0.0, 0.0
    for wall, telemetry in zip(walls, telemetries):
        cell_s = [s.duration_s for s in telemetry.spans
                  if s.duration_s is not None]
        workers = max(1, min(jobs, len(cell_s)))
        durations.extend(cell_s)
        capacity += workers * wall
        overhead += wall - sum(cell_s) / workers
    busy = sum(durations)
    get = tracer.layers.get("store.get", [0, 0.0])
    put = tracer.layers.get("store.put", [0, 0.0])
    return {
        "runner.cells": len(durations),
        "runner.cell_busy_s": busy,
        "runner.cell_p50_s": statistics.median(durations),
        "runner.cell_max_s": max(durations),
        "runner.idle_frac": 1.0 - busy / capacity,
        "runner.overhead_s": overhead,
        "store.gets": int(get[0]), "store.get_s": get[1],
        "store.puts": int(put[0]), "store.put_s": put[1],
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv))
