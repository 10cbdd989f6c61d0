"""Shared infrastructure for the figure-reproduction benchmark harness.

Every benchmark regenerates one table or figure from the paper's
evaluation: it runs the corresponding experiment driver once (via
``benchmark.pedantic`` so pytest-benchmark reports its wall time), prints
the paper-style rows, saves them under ``benchmarks/results/``, and asserts
the figure's defining qualitative properties.

Scale selection: set ``REPRO_BENCH_SCALE`` to ``smoke``, ``scaled``
(default) or ``paper``.  ``paper`` uses the publication's exact parameters
and takes hours in pure Python; ``scaled`` shrinks capacities and working
sets by the same factor and finishes in minutes while preserving every
qualitative shape (see DESIGN.md section 4).

Parallelism and caching: set ``REPRO_BENCH_JOBS=N`` to fan each figure's
sweep cells across N worker processes, and ``REPRO_BENCH_CACHE=1`` to
memoize cell results in the content-addressed cache (``$REPRO_CACHE_DIR``
or ``~/.cache/repro-experiments``) so repeated or interrupted benchmark
runs skip already-computed cells.  Both route execution through
:mod:`repro.runner`; reduction is ordered, so the printed tables are
identical to the sequential ones.  With the cache on, the reported time
measures only the *uncached* work — use it for resumption, not for
timing comparisons.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def bench_scale() -> str:
    scale = os.environ.get("REPRO_BENCH_SCALE", "scaled")
    if scale not in ("smoke", "scaled", "paper"):
        raise ValueError(f"REPRO_BENCH_SCALE must be smoke|scaled|paper, "
                         f"got {scale!r}")
    return scale


def bench_jobs() -> int:
    return max(1, int(os.environ.get("REPRO_BENCH_JOBS", "1")))


def bench_cache():
    """The shared result cache, or None when not opted in."""
    if os.environ.get("REPRO_BENCH_CACHE", "0") not in ("", "0"):
        from repro.runner import default_cache_dir
        from repro.store import LocalFileStore
        return LocalFileStore(default_cache_dir())
    return None


def _spec_for(fn, args):
    """Map a ``run_figN`` driver to its registered ExperimentSpec."""
    name = getattr(fn, "__name__", "")
    if not name.startswith("run_"):
        return None
    try:
        from repro.experiments.registry import get_experiment
        spec = get_experiment(name[len("run_"):])
    except KeyError:
        return None
    if args and isinstance(args[0], spec.config_cls):
        return spec
    return None


def config_for(config_cls):
    """Instantiate a figure config at the selected bench scale."""
    return getattr(config_cls, bench_scale())()


@pytest.fixture
def report():
    """Print a figure's regenerated rows and persist them to results/."""
    def _report(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n")
    return _report


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing.

    Registered figure drivers opt into the parallel runner and the
    result cache via ``REPRO_BENCH_JOBS`` / ``REPRO_BENCH_CACHE``;
    everything else runs the plain callable.
    """
    jobs, cache = bench_jobs(), bench_cache()
    spec = _spec_for(fn, args) if (jobs > 1 or cache is not None) else None
    if spec is not None and not kwargs:
        from repro.runner import RunConfig

        config = args[0]
        return benchmark.pedantic(
            lambda: spec.run(config, run_config=RunConfig(
                jobs=jobs, store=cache)),
            rounds=1, iterations=1, warmup_rounds=0)
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
