"""Command-line experiment runner.

Regenerate any of the paper's figures from the shell::

    python -m repro.experiments fig3
    python -m repro.experiments fig5 --scale smoke
    python -m repro.experiments all --scale scaled --jobs 4
    python -m repro.experiments tableII

``--scale`` selects the config constructor: ``smoke`` (seconds),
``scaled`` (default, minutes) or ``paper`` (the publication's exact
parameters; hours in pure Python).

Sweep cells run in ``--jobs N`` workers (default ``os.cpu_count()``;
``--jobs 1`` runs them in this process, ``N`` forks ``N`` worker
processes), and every cell's result is memoized in a
content-addressed experiment store, ``--store local:PATH`` (a
directory of pickles, by default ``$REPRO_CACHE_DIR`` /
``~/.cache/repro-experiments``; a bare path works too), so interrupted
or repeated runs resume instantly.  ``--no-cache`` disables the store
and ``--force`` recomputes and overwrites existing entries.  A store
error fails the run.  A sweep that was killed or interrupted resumes
on the next run: finished cells come from the store, and the rest run
again.
Figure tables go to stdout and are byte-identical for any ``--jobs``
or store; per-cell progress and timing stream to stderr.

Fault tolerance: ``--retries N`` re-executes failing cells with capped
deterministic backoff (retried cells are byte-identical to first-try
runs), ``--cell-timeout SEC`` kills the worker of a hung cell and
retries the cell, and
``--keep-going`` completes the sweep despite permanently failed cells,
recording them in a JSON failure manifest in the store's
``failures/`` sidecar directory and exiting 1.  Rerunning
the same command re-executes only the failed cells — everything else
is served from the cache.

Telemetry: ``--telemetry[=PATH]`` records what happened during each
run — a trace of the sweep (one row per cell attempt, on whichever
worker it ran), per-partition time series sampled every
``--telemetry-interval`` accesses, and (with ``--telemetry-profile``)
per-cell cProfile captures — into ``PATH/<experiment>/`` (default: the
store's ``telemetry/`` sidecar directory).  Inspect with
``python -m repro.obs report DIR`` and ``python -m repro.obs trace
DIR``.  Telemetry never touches stdout, figure outputs, or cache keys.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from ..errors import ConfigurationError, SweepError
from ..runner import (
    Progress,
    RunConfig,
    default_cache_dir,
    default_jobs,
    write_manifest,
)
from ..store import open_store
from .registry import experiment_names, get_experiment

__all__ = ["main"]


def main(argv=None) -> int:
    names = experiment_names()
    figures = sorted(n for n in names if n != "tableII")
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate figures from 'Futility Scaling: "
                    "High-Associativity Cache Partitioning' (MICRO 2014).")
    parser.add_argument("figure", choices=figures + ["tableII", "all"],
                        help="which figure to regenerate")
    parser.add_argument("--scale", default="scaled",
                        choices=("smoke", "scaled", "paper"),
                        help="experiment scale (default: scaled)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="workers running the sweep's cells: 1 runs "
                             "them in this process, N forks N worker "
                             "processes (default: os.cpu_count())")
    store_group = parser.add_mutually_exclusive_group()
    store_group.add_argument("--store", default=None, metavar="URL",
                             help="experiment store URL: local:PATH or a "
                                  "bare path (default: local:$REPRO_CACHE_DIR "
                                  "or local:~/.cache/repro-experiments)")
    store_group.add_argument("--no-cache", action="store_true",
                             help="disable the result store entirely")
    parser.add_argument("--force", action="store_true",
                        help="recompute cells even when cached")
    parser.add_argument("--retries", type=int, default=0, metavar="N",
                        help="extra attempts per failing cell, with capped "
                             "deterministic backoff (default: 0)")
    parser.add_argument("--cell-timeout", type=float, default=None,
                        metavar="SEC",
                        help="per-cell wall-clock limit; the worker of a "
                             "hung cell is killed and replaced, and the "
                             "cell retried or failed (runs cells in a "
                             "forked worker even at --jobs 1)")
    parser.add_argument("--keep-going", action="store_true",
                        help="complete the sweep despite failing cells, "
                             "write a JSON failure manifest in the "
                             "store's failures/ directory, and exit 1")
    parser.add_argument("--telemetry", nargs="?", const=True, default=None,
                        metavar="PATH",
                        help="record a trace of the sweep and "
                             "per-partition time series under "
                             "PATH/<experiment> (default: the store's "
                             "telemetry/<experiment> directory)")
    parser.add_argument("--telemetry-interval", type=int, default=1024,
                        metavar="N",
                        help="time-series sampling window in cache "
                             "accesses (default: 1024)")
    parser.add_argument("--telemetry-profile", action="store_true",
                        help="additionally capture a cProfile of every "
                             "executed cell under <telemetry>/profile/")
    args = parser.parse_args(argv)

    if args.figure == "all":
        # Table II leads, then the figures in order — the registry
        # iteration that used to be a special case.
        selected = (["tableII"] if "tableII" in names else []) + figures
    else:
        selected = [args.figure]
    jobs = args.jobs if args.jobs and args.jobs > 0 else default_jobs()
    progress = Progress(sys.stderr)
    store = None
    if not args.no_cache:
        try:
            store = open_store(args.store if args.store
                               else default_cache_dir())
        except ConfigurationError as exc:
            progress.note(f"error: {args.figure}: {exc}")
            return 2

    exit_code = 0
    for name in selected:
        spec = get_experiment(name)
        start = time.time()
        try:
            # Both validate their flags before the session touches the
            # environment, so a bad flag is one clean error line.
            session = _make_session(args, store, name)
            run_config = RunConfig(
                jobs=jobs, store=store, force=args.force,
                retries=args.retries, cell_timeout=args.cell_timeout,
                keep_going=args.keep_going, progress=progress,
                telemetry=session.telemetry if session else None)
            if session is not None:
                session.activate()
            try:
                with session.phase("sweep") if session else nullcontext():
                    result = spec.run(spec.config(args.scale),
                                      run_config=run_config)
                with session.phase("render") if session else nullcontext():
                    rendered = spec.format(result)
            finally:
                # Even a failed sweep leaves its trace and series behind
                # — that record is most valuable exactly then.
                if session is not None:
                    session.finish()
                    progress.note(f"[{name}: telemetry in {session.dir}]")
        except ConfigurationError as exc:
            # Routed through Progress: error lines share the flushed
            # stream with cell/retry lines, so they cannot interleave.
            progress.note(f"error: {name}: {exc}")
            return 2
        except SweepError as exc:
            # The sweep *completed*: every non-failing cell is in the
            # cache.  Record the failures and move on to the next
            # experiment; stdout stays untouched (no partial tables).
            for failure in exc.failures:
                progress.note(f"error: {name}: {failure.label} failed "
                              f"after {failure.attempts} attempt(s): "
                              f"{failure.error_type}: {failure.message}")
            manifest = _write_failure_manifest(store, name, exc.failures,
                                               progress)
            where = f"; manifest: {manifest}" if manifest else ""
            progress.note(
                f"[{name} @ {args.scale}: {len(exc.failures)} failed "
                f"cell(s){where}; rerun the same command to retry only "
                f"the failed cells]")
            exit_code = 1
            continue
        elapsed = time.time() - start
        if args.keep_going and store is not None:
            # An empty manifest records that the sweep fully recovered.
            _write_failure_manifest(store, name, [], progress)
        print(rendered)
        print()
        progress.note(f"[{name} @ {args.scale}: {elapsed:.1f}s]")
    return exit_code


def _make_session(args, store, name):
    """Build the experiment's TelemetrySession (None when --telemetry
    is absent).  ``--telemetry`` alone defaults to the store's
    ``telemetry/`` sidecar dir; each experiment gets its own subdir."""
    if not args.telemetry:
        return None
    from ..obs import TelemetrySession

    if isinstance(args.telemetry, str):
        root = Path(args.telemetry)
    elif store is not None:
        root = store.aux_dir("telemetry")
    else:
        root = Path("telemetry")
    return TelemetrySession(root / name, experiment=name,
                            interval=args.telemetry_interval,
                            profile=args.telemetry_profile)


def _write_failure_manifest(store, name, failures, progress):
    """Write ``failures/<name>.json`` beside the store; None without one."""
    if store is None:
        progress.note(f"[{name}: no store; failure manifest not written]")
        return None
    return write_manifest(store.aux_dir("failures") / f"{name}.json",
                          name, failures)


if __name__ == "__main__":
    sys.exit(main())
