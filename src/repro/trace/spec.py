"""Calibrated synthetic models of the SPEC CPU2006 benchmarks the paper uses.

The paper evaluates on multiprogrammed mixes of SPEC CPU2006 benchmarks
(Section VII-C): mcf, omnetpp, gromacs, h264ref, astar, cactusADM,
libquantum and lbm.  This module defines one :class:`BenchmarkProfile` per
benchmark — a seeded stack-distance workload model (see
:mod:`repro.trace.synthetic`) calibrated to reproduce the *behavioural
class* each benchmark exhibits in the paper:

==============  ===============================================================
benchmark       behaviour reproduced
==============  ===============================================================
mcf             very memory-intensive; reuse spread over many scales; the most
                associativity-sensitive workload (>= 25% fully-assoc speedup at
                every size under OPT, Fig. 6a; +37% misses under PF at N=32,
                Fig. 2b)
omnetpp         memory-intensive, moderately associativity-sensitive
gromacs         small working set (~256KB); very sensitive at 128KB, insensitive
                once the cache holds the working set (>= 1MB) — Fig. 6a; used as
                the QoS *subject* thread in Fig. 7
h264ref         compute-bound, small-to-medium working set, mild sensitivity
astar           moderate intensity and sensitivity
cactusADM       scan-dominated with an LRU-pathological loop: under LRU, higher
                associativity can *hurt* (-6% at 4MB, Fig. 6b)
libquantum      streaming over a huge array; insensitive to associativity
lbm             streaming, very high miss rate, lowest reuse; insensitive; used
                as the QoS *background* (cache-polluting) thread in Fig. 7
==============  ===============================================================

Addresses are line addresses (64B granularity); working-set parameters are
expressed in lines (1MB = 16384 lines).  ``mean_gap`` is the average number
of instructions per L2 access and sets each benchmark's memory intensity.
"""

from __future__ import annotations

import threading
import zlib
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from .access import Trace
from .synthetic import (
    ReuseProfile,
    StackDistanceGenerator,
    fixed,
    geometric,
    loguniform,
    uniform,
)

__all__ = ["BenchmarkProfile", "BENCHMARKS", "benchmark_names",
           "benchmark_trace", "get_profile", "KB", "MB", "LINE_BYTES",
           "lines_for_bytes"]

LINE_BYTES = 64
KB = 1024
MB = 1024 * KB


#: Byte budget of the per-process trace memo (:meth:`BenchmarkProfile.trace`):
#: one paper-scale Fig. 7 cell holds 32 x 200k accesses, about 154 MB.
TRACE_MEMO_BYTES = 256 * 1024 * 1024
#: What the memo charges per access: 8 B each for the address, the gap and
#: the lazily computed next-use position.
TRACE_MEMO_BYTES_PER_ACCESS = 24


class _TraceMemo:
    """Synthesized traces by key, least recently used first, evicted to
    stay within :data:`TRACE_MEMO_BYTES`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.traces: "OrderedDict[Tuple[object, ...], Trace]" = OrderedDict()
        #: Total length of the retained traces.
        self.accesses = 0

    def get(self, key: Tuple[object, ...]) -> Optional[Trace]:
        with self._lock:
            trace = self.traces.get(key)
            if trace is not None:
                self.traces.move_to_end(key)
            return trace

    def put(self, key: Tuple[object, ...], trace: Trace) -> None:
        """Retain ``trace`` as the newest entry, then drop the oldest until
        the memo fits its budget or holds only ``trace``."""
        with self._lock:
            # A key already present (two threads synthesized it at once)
            # names a trace of the same length.
            if self.traces.pop(key, None) is None:
                self.accesses += len(trace)
            self.traces[key] = trace
            while (self.accesses * TRACE_MEMO_BYTES_PER_ACCESS
                   > TRACE_MEMO_BYTES and len(self.traces) > 1):
                self.accesses -= len(self.traces.popitem(last=False)[1])


#: The per-process memo behind :meth:`BenchmarkProfile.trace`; a forked
#: worker extends its own copy.
_MEMO = _TraceMemo()


def lines_for_bytes(num_bytes: int) -> int:
    """Cache lines needed for ``num_bytes`` of capacity."""
    return num_bytes // LINE_BYTES


class BenchmarkProfile:
    """A named, seeded synthetic model of one SPEC benchmark."""

    def __init__(self, name: str,
                 profile_factory: Callable[[float], ReuseProfile],
                 mean_gap: float, description: str,
                 write_fraction: float = 0.3) -> None:
        self.name = name
        self._profile_factory = profile_factory
        self.mean_gap = float(mean_gap)
        self.description = description
        #: Fraction of L2 accesses that are stores (drives writeback
        #: bandwidth in the timing engine; lbm is the classic write-heavy
        #: stencil code).
        self.write_fraction = float(write_fraction)

    def generator(self, *, seed: int = 0, addr_base: int = 0,
                  scale: float = 1.0) -> StackDistanceGenerator:
        """A trace generator for this benchmark.

        ``seed`` varies the pseudo-random stream; ``addr_base`` offsets the
        address space (distinct per thread in multiprogrammed mixes);
        ``scale`` multiplies every working-set depth parameter, letting
        scaled-down experiments shrink workloads in proportion to their
        caches while preserving the paper's shapes.
        """
        if scale <= 0:
            raise ConfigurationError(f"scale must be positive, got {scale}")
        # zlib.crc32 is deterministic across processes (str.hash is not).
        salt = zlib.crc32(self.name.encode("utf-8")) & 0xFFFF
        return StackDistanceGenerator(
            self._profile_factory(scale), mean_gap=self.mean_gap,
            addr_base=addr_base, seed=seed * 65_537 + salt, name=self.name)

    def trace(self, length: int, *, seed: int = 0, addr_base: int = 0,
              scale: float = 1.0) -> Trace:
        """A trace of ``length`` L2 accesses, synthesized once per process.

        The result is memoized under this profile and every argument, in an
        LRU bounded by :data:`TRACE_MEMO_BYTES`, so the cells of a sweep that
        replay one thread share one :class:`Trace` (and its cached
        ``next_use``).  The trace is shared: callers must not mutate it.
        """
        key = (self, length, seed, addr_base, scale)
        trace = _MEMO.get(key)
        if trace is None:
            trace = self.generator(seed=seed, addr_base=addr_base,
                                   scale=scale).generate(length)
            _MEMO.put(key, trace)
        return trace


def _depth(base: int, scale: float) -> int:
    """Scale a working-set depth parameter, keeping it at least 1."""
    return max(1, int(round(base * scale)))


def _mcf(scale: float) -> ReuseProfile:
    return ReuseProfile([
        loguniform(0.30, _depth(8, scale), _depth(2_000, scale)),
        loguniform(0.45, _depth(2_000, scale), _depth(160_000, scale)),
        uniform(0.15, 0, _depth(512, scale)),
    ], new_fraction=0.10)


def _omnetpp(scale: float) -> ReuseProfile:
    return ReuseProfile([
        geometric(0.35, 300.0 * scale),
        loguniform(0.45, _depth(500, scale), _depth(60_000, scale)),
    ], new_fraction=0.20)


def _gromacs(scale: float) -> ReuseProfile:
    # Skewed (geometric) reuse: hot lines reused tightly, warm lines at
    # distances around the 256KB working set.  The skew is what makes
    # eviction *quality* matter (the associativity sensitivity the paper
    # measures in Fig. 6a and exploits in the Fig. 7 QoS experiment); a
    # flat reuse distribution would make any resident line equally likely
    # to be reused and hide the difference between schemes.
    return ReuseProfile([
        geometric(0.50, 600.0 * scale),
        geometric(0.32, 2_500.0 * scale),
        loguniform(0.10, _depth(4_096, scale), _depth(40_000, scale)),
    ], new_fraction=0.02)


def _h264ref(scale: float) -> ReuseProfile:
    return ReuseProfile([
        geometric(0.55, 200.0 * scale),
        uniform(0.35, 0, _depth(8_192, scale)),
        loguniform(0.05, _depth(8_192, scale), _depth(30_000, scale)),
    ], new_fraction=0.05)


def _astar(scale: float) -> ReuseProfile:
    return ReuseProfile([
        geometric(0.30, 500.0 * scale),
        loguniform(0.55, _depth(64, scale), _depth(30_000, scale)),
    ], new_fraction=0.15)


def _cactusadm(scale: float) -> ReuseProfile:
    return ReuseProfile([
        fixed(0.45, _depth(66_000, scale)),   # LRU-pathological loop, ~4MB
        geometric(0.45, 600.0 * scale),
    ], new_fraction=0.10)


def _libquantum(scale: float) -> ReuseProfile:
    return ReuseProfile([
        fixed(0.97, _depth(400_000, scale)),  # repeated scan over ~24MB
    ], new_fraction=0.03)


def _lbm(scale: float) -> ReuseProfile:
    # Reuse distance ~100MB: even an 8MB LLC (or OPT ranking) cannot
    # exploit it, giving the near-zero reuse the paper attributes to lbm.
    return ReuseProfile([
        fixed(0.15, _depth(1_500_000, scale)),
    ], new_fraction=0.85)


BENCHMARKS: Dict[str, BenchmarkProfile] = {
    profile.name: profile for profile in [
        BenchmarkProfile("mcf", _mcf, 25.0,
                         "pointer-chasing; most associativity-sensitive"),
        BenchmarkProfile("omnetpp", _omnetpp, 55.0,
                         "discrete-event simulation; moderately sensitive"),
        BenchmarkProfile("gromacs", _gromacs, 150.0,
                         "molecular dynamics; ~256KB working set"),
        BenchmarkProfile("h264ref", _h264ref, 220.0,
                         "video encoding; compute-bound"),
        BenchmarkProfile("astar", _astar, 90.0,
                         "path-finding; moderate"),
        BenchmarkProfile("cactusadm", _cactusadm, 110.0,
                         "stencil; LRU-pathological scan"),
        BenchmarkProfile("libquantum", _libquantum, 18.0,
                         "streaming over a huge array",
                         write_fraction=0.25),
        BenchmarkProfile("lbm", _lbm, 12.0,
                         "streaming; highest miss rate (QoS background)",
                         write_fraction=0.55),
    ]
}


def benchmark_names() -> List[str]:
    """All modeled benchmark names."""
    return sorted(BENCHMARKS)


def get_profile(name: str) -> BenchmarkProfile:
    """Profile lookup with a helpful error."""
    try:
        return BENCHMARKS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown benchmark {name!r}; expected one of {benchmark_names()}")


def benchmark_trace(name: str, length: int, *, seed: int = 0,
                    addr_base: int = 0, scale: float = 1.0) -> Trace:
    """Generate a trace for benchmark ``name`` (see :class:`BenchmarkProfile`)."""
    return get_profile(name).trace(length, seed=seed, addr_base=addr_base,
                                   scale=scale)
