"""Span recording around the program's layer entry points, from outside.

The traced sweep wraps the public functions each layer exposes — nothing
under ``src/`` changes.  Two kinds of boundary:

* **Coarse spans** (sweep, ``run_cells``, cell, trace synthesis, cache
  build, feeding driver, timing-engine run, store op, analysis, render)
  are recorded individually with a name, start, end and parent.
* **Per-call layers** (``cache.access``, ``candidates()``,
  ``choose_victim``, ranking hooks and queries, NUCA, memory,
  ``TraceCursor.next``) are too frequent for one record per call: each
  keeps a call count plus busy and self time, and every coarse span
  stores the per-call totals that accrued while it was open.

A layer's self time is its duration minus the time its wrapped children
took.  Only objects the access kernel reaches through *bound methods* get
per-call wrappers, installed as instance attributes before the kernel is
recompiled: the kernel's inlining decisions compare class attributes
(``type(array).candidates is SetAssociativeArray.candidates`` and the
like), so they see the same classes and emit the same source.  The
tracer verifies that by comparing each kernel's source before and after
instrumentation.
"""

from __future__ import annotations

import inspect
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter

RANKING_UPKEEP = ("on_hit", "on_insert", "on_evict", "on_move")
RANKING_QUERIES = ("futility", "raw_futility", "futilities",
                   "raw_futilities", "most_futile")

#: Layers whose self time counts as explained; everything else (the
#: sweep's own glue, the experiment cell bodies) is unattributed.
ATTRIBUTED = (
    "trace.synth", "trace.annotate", "trace.feed",
    "cache.access", "cache.build", "arrays.candidates",
    "schemes.choose", "futility.upkeep", "futility.query",
    "sim.engine", "sim.nuca", "sim.memory",
    "analysis", "experiments.render", "runner", "store.get", "store.put",
)


class Tracer:
    """In-memory span recorder for one traced sweep."""

    def __init__(self) -> None:
        #: Child-time accumulators, one per open span or call.
        self._stack: List[float] = [0.0]
        self._open: List[int] = []
        #: Finished coarse spans.
        self.spans: List[Dict[str, Any]] = []
        #: layer -> [calls, busy seconds, self seconds]
        self.layers: Dict[str, List[float]] = {}
        #: Deterministic work counts (accesses synthesized, misses, ...).
        self.counts: Dict[str, int] = {}
        #: Kernels whose source changed under instrumentation.
        self.kernel_mismatches: List[str] = []
        self.kernels = 0

    def _layer(self, layer: str) -> List[float]:
        return self.layers.setdefault(layer, [0, 0.0, 0.0])

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def span(self, name: str, layer: str) -> "_Span":
        return _Span(self, name, layer)

    def wrap_coarse(self, fn: Callable, name: str, layer: str,
                    on_call: Optional[Callable] = None) -> Callable:
        """``fn`` with one recorded span per call."""
        tracer = self

        def wrapped(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            with _Span(tracer, name, layer):
                return fn(*args, **kwargs)
        return wrapped

    def wrap_call(self, fn: Callable, layer: str) -> Callable:
        """``fn`` aggregated into ``layer``'s count, busy and self time."""
        stack = self._stack
        acc = self._layer(layer)
        clock = _clock

        def wrapped(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                acc[0] += 1
                acc[1] += dt
                acc[2] += dt - child
        return wrapped

    def wrap_access(self, kernel: Callable) -> Callable:
        """``cache.access`` wrapper that also counts misses."""
        stack = self._stack
        acc = self._layer("cache.access")
        counts = self.counts
        clock = _clock

        def access(addr, part, next_use=None, *, is_write=False):
            stack.append(0.0)
            t0 = clock()
            try:
                hit = kernel(addr, part, next_use, is_write=is_write)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                acc[0] += 1
                acc[1] += dt
                acc[2] += dt - child
            if not hit:
                counts["cache.misses"] = counts.get("cache.misses", 0) + 1
            return hit
        access.__kernel_source__ = kernel.__kernel_source__
        return access

    def call_totals(self) -> Dict[str, Tuple[int, float]]:
        return {k: (int(v[0]), v[1]) for k, v in self.layers.items()}


class _Span:
    __slots__ = ("tracer", "name", "layer", "t0", "before", "id")

    def __init__(self, tracer: Tracer, name: str, layer: str) -> None:
        self.tracer = tracer
        self.name = name
        self.layer = layer

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        self.id = len(tracer.spans) + len(tracer._open)
        tracer._open.append(self.id)
        self.before = tracer.call_totals()
        tracer._stack.append(0.0)
        self.t0 = _clock()
        return self

    def __exit__(self, *exc) -> None:
        tracer = self.tracer
        t1 = _clock()
        dt = t1 - self.t0
        child = tracer._stack.pop()
        tracer._stack[-1] += dt
        tracer._open.pop()
        acc = tracer._layer(self.layer)
        acc[0] += 1
        acc[1] += dt
        acc[2] += dt - child
        calls = {}
        for layer, (n, busy) in tracer.call_totals().items():
            n0, busy0 = self.before.get(layer, (0, 0.0))
            if n > n0:
                calls[layer] = [n - n0, busy - busy0]
        tracer.spans.append({
            "id": self.id,
            "parent": tracer._open[-1] if tracer._open else None,
            "name": self.name, "layer": self.layer,
            "start": self.t0, "end": t1, "self_s": dt - child,
            "calls": calls})


# -- installing the wrappers -------------------------------------------------

def replace_everywhere(original: Any, replacement: Any) -> None:
    """Rebind every ``repro.*`` module global that is ``original``."""
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("repro"):
            continue
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, replacement)


def instrument_runner(tracer: Tracer, store: Any) -> None:
    """Time ``run_cells`` and the store's ``get``/``put`` only: a few
    dozen calls per sweep, cheap enough for the pooled timed sweep."""
    import repro.experiments  # noqa: F401  (registers every figure)
    import repro.runner as runner

    replace_everywhere(runner.run_cells, tracer.wrap_coarse(
        runner.run_cells, "run_cells", "runner"))
    for op in ("get", "put"):
        setattr(store, op, tracer.wrap_coarse(
            getattr(store, op), "store." + op, "store." + op))


def instrument_counts(tracer: Tracer) -> None:
    """Count ``PartitionedCache.access`` calls, misses and synthesized
    accesses, nothing else."""
    import repro.api as api
    from repro.trace.spec import BenchmarkProfile

    _count_synth(tracer, BenchmarkProfile)
    build = api.build_cache

    def build_cache(*args, **kwargs):
        cache = build(*args, **kwargs)
        build_access = cache._build_access
        cache._build_access = lambda: tracer.wrap_access(build_access())
        cache._rebuild_kernel()
        return cache
    replace_everywhere(build, build_cache)


def _count_synth(tracer: Tracer, profile_cls: Any) -> None:
    def count_synth(args, kwargs):
        tracer.count("trace.synth_accesses", int(args[1]))
    profile_cls.trace = tracer.wrap_coarse(
        profile_cls.trace, "trace.synth", "trace.synth", count_synth)


def instrument(tracer: Tracer, store: Any) -> None:
    """Wrap every layer entry point the figure sweeps reach."""
    import repro.analysis.associativity as associativity
    import repro.analysis.sizing as sizing
    import repro.analysis.text_plots as text_plots
    import repro.api as api
    import repro.experiments.common as common
    import repro.trace.access as trace_access
    import repro.trace.mixing as mixing
    from repro.runner.cells import Cell
    from repro.sim.engine import MultiprogramSimulator, simulate_single_thread
    from repro.trace.spec import BenchmarkProfile

    instrument_runner(tracer, store)

    cell_run = Cell.run

    def run_cell(self):
        with tracer.span("cell " + self.label, "experiments.cell"):
            return cell_run(self)
    Cell.run = run_cell

    _count_synth(tracer, BenchmarkProfile)
    replace_everywhere(trace_access.annotate_next_use, tracer.wrap_coarse(
        trace_access.annotate_next_use, "trace.annotate", "trace.annotate"))
    for driver in (mixing.run_insertion_rate_controlled,
                   mixing.run_round_robin, common.prefill_to_targets):
        replace_everywhere(driver, tracer.wrap_coarse(
            driver, "feed " + driver.__name__, "trace.feed"))
    mixing.TraceCursor.next = tracer.wrap_call(
        mixing.TraceCursor.next, "trace.feed")

    build = api.build_cache

    def build_cache(*args, **kwargs):
        with tracer.span("cache.build", "cache.build"):
            cache = build(*args, **kwargs)
            _instrument_cache(tracer, cache)
        tracer.count("cache.builds")
        return cache
    replace_everywhere(build, build_cache)

    sim_run = MultiprogramSimulator.run

    def run(self):
        with tracer.span("sim.run", "sim.engine"):
            self.nuca.access = tracer.wrap_call(self.nuca.access, "sim.nuca")
            self.memory.request = tracer.wrap_call(self.memory.request,
                                                   "sim.memory")
            self.memory.writeback = tracer.wrap_call(self.memory.writeback,
                                                     "sim.memory")
            return sim_run(self)
    MultiprogramSimulator.run = run
    replace_everywhere(simulate_single_thread, tracer.wrap_coarse(
        simulate_single_thread, "sim.single_thread", "sim.engine"))

    for module in (associativity, sizing, text_plots):
        for name in module.__all__:
            fn = getattr(module, name)
            if inspect.isfunction(fn):
                replace_everywhere(fn, tracer.wrap_coarse(
                    fn, "analysis " + name, "analysis"))


def _instrument_cache(tracer: Tracer, cache: Any) -> None:
    """Per-call wrappers on the objects this cache's kernel calls, then
    recompile the kernel and check its source did not change."""
    before = cache.access.__kernel_source__
    scheme, array = cache.scheme, cache.array
    scheme.choose_victim = tracer.wrap_call(scheme.choose_victim,
                                            "schemes.choose")
    candidates = array.candidates

    def counted_candidates(addr):
        picked = candidates(addr)
        tracer.counts["arrays.candidates"] = (
            tracer.counts.get("arrays.candidates", 0) + len(picked))
        return picked
    array.candidates = tracer.wrap_call(counted_candidates,
                                        "arrays.candidates")
    rankings = [cache.ranking]
    if cache.reference is not None and cache.reference is not cache.ranking:
        rankings.append(cache.reference)
    for ranking in rankings:
        for name in RANKING_UPKEEP:
            setattr(ranking, name, tracer.wrap_call(
                getattr(ranking, name), "futility.upkeep"))
        for name in RANKING_QUERIES:
            if hasattr(ranking, name):
                setattr(ranking, name, tracer.wrap_call(
                    getattr(ranking, name), "futility.query"))
    build_access = cache._build_access
    cache._build_access = lambda: tracer.wrap_access(build_access())
    cache._rebuild_kernel()
    tracer.kernels += 1
    if cache.access.__kernel_source__ != before:
        tracer.kernel_mismatches.append(
            f"{type(scheme).__name__}/{type(array).__name__}/"
            f"{type(cache.ranking).__name__}")
