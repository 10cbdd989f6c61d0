"""The per-file reprolint rules.

Determinism rules (``DET``) enforce the invariants the runner's
content-addressed cache and byte-identical ``--jobs N`` output depend
on (:mod:`repro.runner`); the correctness rule COR001 catches exact
float comparisons in the numeric core.  Rule IDs are stable: never
reuse or renumber a published ID — retire it and mint the next number
(CONTRIBUTING.md lists the retired IDs).

See CONTRIBUTING.md for the user-facing documentation of every rule,
and ``tests/devtools/fixtures/`` for the canonical tripping /
non-tripping examples.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator

from .core import FileContext, Finding, Rule, dotted_name, register_rule

__all__ = [
    "FloatEqualityRule",
    "SimulationTimingRule",
    "UnseededRandomRule",
    "WallClockRule",
]


def _call_has_arguments(node: ast.Call) -> bool:
    return bool(node.args or node.keywords)


@register_rule
class UnseededRandomRule(Rule):
    """DET001: RNGs must be constructed from an explicit seed.

    An unseeded ``random.Random()`` / ``np.random.default_rng()`` (or
    any use of the process-global ``random.*`` / ``np.random.*``
    generators) makes a cell's output depend on interpreter state, so
    identical configs can cache different results and ``--jobs N``
    stdout can diverge from ``--jobs 1``.  The one sanctioned global
    reseed lives in ``repro/runner/worker.py``.
    """

    rule_id = "DET001"
    summary = ("unseeded RNG construction or module-level global RNG use "
               "(derive every generator from a config seed)")
    allow = ("repro/runner/worker.py",)

    #: ``random`` module functions operating on the shared global RNG.
    GLOBAL_RANDOM: FrozenSet[str] = frozenset({
        "betavariate", "choice", "choices", "expovariate", "gauss",
        "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
        "randbytes", "randint", "random", "randrange", "sample", "seed",
        "shuffle", "triangular", "uniform", "vonmisesvariate",
        "weibullvariate",
    })
    #: ``numpy.random`` module functions operating on the legacy global
    #: RandomState.
    GLOBAL_NUMPY: FrozenSet[str] = frozenset({
        "binomial", "choice", "exponential", "normal", "permutation",
        "poisson", "rand", "randint", "randn", "random", "random_sample",
        "seed", "shuffle", "standard_normal", "uniform",
    })

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qual = dotted_name(node.func, ctx.aliases)
            if qual is None:
                continue
            if qual == "random.Random" and not _call_has_arguments(node):
                yield self.finding(
                    ctx, node,
                    "random.Random() constructed without a seed; pass a "
                    "seed derived from the experiment config")
            elif qual == "random.SystemRandom":
                yield self.finding(
                    ctx, node,
                    "random.SystemRandom is OS-entropy-backed and can "
                    "never be reproduced; use a seeded random.Random")
            elif (qual in ("numpy.random.default_rng",
                           "numpy.random.RandomState")
                  and not _call_has_arguments(node)):
                yield self.finding(
                    ctx, node,
                    f"{qual}() constructed without a seed; pass a seed "
                    f"derived from the experiment config")
            elif qual.startswith("random.") and qual.split(".")[1] in \
                    self.GLOBAL_RANDOM and len(qual.split(".")) == 2:
                yield self.finding(
                    ctx, node,
                    f"{qual}() uses the process-global RNG; derive a "
                    f"seeded random.Random from the config instead")
            elif (qual.startswith("numpy.random.")
                  and qual.split(".")[2] in self.GLOBAL_NUMPY
                  and len(qual.split(".")) == 3):
                yield self.finding(
                    ctx, node,
                    f"np.random.{qual.split('.')[2]}() uses the legacy "
                    f"global RandomState; use np.random.default_rng(seed)")


@register_rule
class WallClockRule(Rule):
    """DET002: wall-clock reads must stay out of result-producing code.

    ``time.time()`` / ``datetime.now()`` values that leak into a cell
    result or a cache key make reruns non-reproducible and cache
    entries unsound.  Monotonic interval timing (``time.perf_counter``,
    ``time.monotonic``) is deliberately *not* flagged: the runner uses
    it for per-cell timings that stream to stderr, never into results,
    and for retry backoff, cell timeouts and worker shutdown —
    scheduling decisions that never reach results or cache keys.  One
    sanctioned wall-clock site remains: the CLI's progress/timing path
    in ``repro/experiments/__main__.py``.  The store backends, the
    retry wrapper and the fault plan (``repro/store/faults.py``) stay
    *unsanctioned*: injection schedules must be pure functions of call
    counts and seeds or chaos runs stop being reproducible.  Note
    ``repro/obs/trace.py`` is *not* allow-listed: its single clock read
    (``wall_now``) carries an explicit suppression, so any new clock
    read there — e.g. one that could leak into a trace ID — fires.
    """

    rule_id = "DET002"
    summary = ("wall-clock read (time.time / datetime.now) in code that "
               "may feed results or cache keys")
    allow = ("repro/experiments/__main__.py",)

    WALL_CLOCK: FrozenSet[str] = frozenset({
        "time.time", "time.time_ns", "time.localtime", "time.gmtime",
        "time.ctime", "time.strftime",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    })

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qual = dotted_name(node.func, ctx.aliases)
            if qual in self.WALL_CLOCK:
                yield self.finding(
                    ctx, node,
                    f"{qual}() reads the wall clock; results and cache "
                    f"keys must be pure functions of config + seed "
                    f"(use time.perf_counter for stderr-only timings)")


@register_rule
class SimulationTimingRule(Rule):
    """DET004: no host timing at all inside the simulation substrate.

    DET002 tolerates monotonic interval timing (``time.perf_counter``,
    ``time.monotonic``) because the runner streams it to stderr only.
    Inside ``repro/cache/``, ``repro/core/`` and ``repro/sim/`` the bar
    is stricter: *any* host-clock read — wall or monotonic — is a bug,
    because everything observable there (sampling windows, coarse
    timestamps, feedback epochs, telemetry series) must be driven off
    the deterministic access counter, or byte-reproducibility across
    machines and ``--jobs N`` is lost.  Timing the simulation from the
    outside belongs in ``repro/runner/`` or ``repro/obs/``.

    ``repro/obs/trace.py`` is held to the same bar: trace and span IDs
    are pure hashes of the sweep digest, cell key and attempt —
    byte-identical at any ``--jobs`` — so the module may touch a host
    clock only at its one fenced ``wall_now()`` site (explicitly
    suppressed, and its value confined to ``"wall"`` sub-objects).  Any
    other clock read in the tracer is an identity bug waiting to
    happen, and fires here.
    """

    rule_id = "DET004"
    summary = ("host clock read (time.time / perf_counter / monotonic) in "
               "simulation code; drive timing off the access counter")
    include = ("repro/cache/", "repro/core/", "repro/sim/",
               "repro/obs/trace.py")

    TIMING_CALLS: FrozenSet[str] = frozenset({
        "time.time", "time.time_ns",
        "time.perf_counter", "time.perf_counter_ns",
        "time.monotonic", "time.monotonic_ns",
        "time.process_time", "time.process_time_ns",
        "time.thread_time", "time.thread_time_ns",
        "time.clock_gettime", "time.clock_gettime_ns",
    })

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qual = dotted_name(node.func, ctx.aliases)
            if qual in self.TIMING_CALLS:
                yield self.finding(
                    ctx, node,
                    f"{qual}() reads a host clock inside the simulation "
                    f"substrate; simulated time is the access counter — "
                    f"measure wall time from repro/runner or repro/obs")


#: Callables whose result is float-typed for COR001 evidence purposes.
_FLOAT_CALLS = frozenset({
    "float", "math.sqrt", "math.exp", "math.log", "math.log2", "math.log10",
    "math.sin", "math.cos", "math.tan", "math.pow", "math.fsum",
    "math.hypot", "math.fabs",
})


@register_rule
class FloatEqualityRule(Rule):
    """COR001: exact ``==`` / ``!=`` on floating-point values.

    Scoped to the numeric heart of the library (``repro/core/``,
    ``repro/analysis/``) where an exact comparison against a computed
    float is almost always a latent bug — use ``math.isclose`` (as
    ``repro/core/scaling.py`` does at its feasibility bound) or an
    explicit tolerance.
    """

    rule_id = "COR001"
    summary = ("float == / != comparison in numeric code; use "
               "math.isclose or an explicit tolerance")
    include = ("repro/core/", "repro/analysis/")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[i], operands[i + 1]
                if self._floatish(left, ctx) or self._floatish(right, ctx):
                    symbol = "==" if isinstance(op, ast.Eq) else "!="
                    yield self.finding(
                        ctx, node,
                        f"exact float {symbol} comparison; use "
                        f"math.isclose(..) or compare against a tolerance")

    def _floatish(self, node: ast.expr, ctx: FileContext) -> bool:
        """Syntactic evidence that ``node`` is float-typed."""
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.UnaryOp):
            return self._floatish(node.operand, ctx)
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Div):
                return True
            return self._floatish(node.left, ctx) or \
                self._floatish(node.right, ctx)
        if isinstance(node, ast.Call):
            qual = dotted_name(node.func, ctx.aliases)
            if qual in _FLOAT_CALLS:
                return True
            if isinstance(node.func, ast.Name) and node.func.id == "float":
                return True
        return False
