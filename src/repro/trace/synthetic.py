"""Synthetic workload generators (the SPEC-trace substitution substrate).

The paper drives its simulator with L2 access traces of SPEC CPU2006
SimPoint regions.  Those are unavailable offline, so this module provides
*stack-distance workload models*: seeded generators that emit address
streams whose LRU stack-distance (reuse-distance) distribution is
controlled by a :class:`ReuseProfile`.  Reuse-distance structure is the
only workload property the paper's experiments exercise — it determines
both the miss-ratio-vs-size curve and associativity sensitivity — so the
substitution preserves the behaviours under study (see DESIGN.md).

Mechanics: the generator keeps an LRU stack of previously touched line
addresses.  Each access either touches a *new* address (with the profile's
``new_fraction`` — the compulsory/streaming component) or re-touches the
address at a sampled stack depth, moving it to the top.  By construction
the emitted trace's reuse-distance distribution matches the sampled one.
The stack is a list whose *end* is the top (depth ``d`` is index
``len - 1 - d``), so a new address is an append and a reuse at depth ``d``
shifts only the ``d`` entries above it.  With the top at the front, every
access would shift the whole stack, and synthesis would grow with the
square of the footprint.

Components available for profiles:

* ``uniform(lo, hi)`` — flat reuse mass across a depth range;
* ``loguniform(lo, hi)`` — heavy-tailed mass spread over scales (mcf-like);
* ``geometric(mean)`` — concentrated short-distance reuse (tight loops);
* ``fixed(depth)`` — a cyclic-scan component: constant re-reference depth,
  the classic LRU-pathological pattern (cactusADM-like).

Also included: :class:`SequentialStreamGenerator` (pure streaming, lbm /
libquantum-like) and :class:`CyclicScanGenerator` (a loop over a fixed
working set, maximal LRU pathology).
"""

from __future__ import annotations

import math
import random
from array import array
from typing import Callable, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, TraceError
from .access import Trace

__all__ = [
    "ReuseComponent",
    "uniform",
    "loguniform",
    "geometric",
    "fixed",
    "ReuseProfile",
    "StackDistanceGenerator",
    "SequentialStreamGenerator",
    "CyclicScanGenerator",
    "PhasedGenerator",
]


class ReuseComponent:
    """One mixture component of a reuse-distance distribution."""

    __slots__ = ("weight", "_sampler", "label")

    def __init__(self, weight: float, sampler: Callable[[random.Random], int],
                 label: str) -> None:
        if weight <= 0:
            raise ConfigurationError(f"component weight must be positive, got {weight}")
        self.weight = float(weight)
        self._sampler = sampler
        self.label = label

    def sample(self, rng: random.Random) -> int:
        return self._sampler(rng)


def uniform(weight: float, lo: int, hi: int) -> ReuseComponent:
    """Reuse depths uniform over ``[lo, hi)``."""
    if not 0 <= lo < hi:
        raise ConfigurationError(f"need 0 <= lo < hi, got [{lo}, {hi})")
    return ReuseComponent(weight, lambda rng: rng.randrange(lo, hi),
                          f"uniform[{lo},{hi})")


def loguniform(weight: float, lo: int, hi: int) -> ReuseComponent:
    """Reuse depths log-uniform over ``[lo, hi)`` (heavy-tailed, mcf-like)."""
    if not 1 <= lo < hi:
        raise ConfigurationError(f"need 1 <= lo < hi, got [{lo}, {hi})")
    log_lo, log_hi = math.log(lo), math.log(hi)
    span = log_hi - log_lo

    def sampler(rng: random.Random) -> int:
        return min(hi - 1, int(math.exp(log_lo + rng.random() * span)))

    return ReuseComponent(weight, sampler, f"loguniform[{lo},{hi})")


def geometric(weight: float, mean: float) -> ReuseComponent:
    """Geometric reuse depths with the given mean (tight-loop reuse)."""
    if mean <= 0:
        raise ConfigurationError(f"mean must be positive, got {mean}")
    p = 1.0 / (1.0 + mean)
    log1mp = math.log(1.0 - p)

    def sampler(rng: random.Random) -> int:
        return int(math.log(max(rng.random(), 1e-300)) / log1mp)

    return ReuseComponent(weight, sampler, f"geometric(mean={mean})")


def fixed(weight: float, depth: int) -> ReuseComponent:
    """Constant reuse depth (cyclic-scan / LRU-pathological component)."""
    if depth < 0:
        raise ConfigurationError(f"depth must be >= 0, got {depth}")
    return ReuseComponent(weight, lambda rng: depth, f"fixed({depth})")


class ReuseProfile:
    """A reuse-distance mixture plus a compulsory (new-address) fraction.

    ``new_fraction`` of accesses touch a never-seen address; the rest draw a
    stack depth from the weighted mixture of components.  A sampled depth
    beyond the current stack also degenerates to a new address (cold start).
    """

    def __init__(self, components: Sequence[ReuseComponent],
                 new_fraction: float = 0.01) -> None:
        if not components and new_fraction < 1.0:
            raise ConfigurationError(
                "a profile with no components must have new_fraction = 1")
        if not 0 <= new_fraction <= 1:
            raise ConfigurationError(
                f"new_fraction must be in [0, 1], got {new_fraction}")
        self.components = list(components)
        self.new_fraction = float(new_fraction)
        total = sum(c.weight for c in self.components)
        self._cumulative: List[Tuple[float, ReuseComponent]] = []
        acc = 0.0
        for c in self.components:
            acc += c.weight / total if total else 0.0
            self._cumulative.append((acc, c))

    def sample_depth(self, rng: random.Random) -> Optional[int]:
        """A stack depth to re-touch, or ``None`` for a new address."""
        if rng.random() < self.new_fraction:
            return None
        x = rng.random()
        for threshold, component in self._cumulative:
            if x <= threshold:
                return component.sample(rng)
        return self._cumulative[-1][1].sample(rng)  # pragma: no cover


class _GapModel:
    """Instruction-gap sampling shared by all generators.

    ``mean_gap`` is the average number of instructions per L2 access (the
    inverse of the thread's L2 APKI / 1000); gaps vary geometrically around
    it so the timing model sees realistic burstiness.
    """

    def __init__(self, mean_gap: float, rng: random.Random) -> None:
        if mean_gap < 1:
            raise ConfigurationError(f"mean_gap must be >= 1, got {mean_gap}")
        self._mean = float(mean_gap)
        self._rng = rng

    def sample(self) -> int:
        if self._mean <= 1.0:
            return 1
        # Geometric with the requested mean, shifted to be >= 1.
        u = max(self._rng.random(), 1e-300)
        return 1 + int(-math.log(u) * (self._mean - 1.0))


class StackDistanceGenerator:
    """Generate a trace whose reuse distances follow a :class:`ReuseProfile`."""

    def __init__(self, profile: ReuseProfile, *, mean_gap: float = 30.0,
                 addr_base: int = 0, seed: int = 0, name: str = "synthetic") -> None:
        self.profile = profile
        self.mean_gap = float(mean_gap)
        self.addr_base = int(addr_base)
        self.seed = int(seed)
        self.name = name

    def generate(self, length: int) -> Trace:
        """Emit ``length`` accesses."""
        if length < 0:
            raise TraceError(f"length must be >= 0, got {length}")
        rng = random.Random(self.seed)
        gaps_model = _GapModel(self.mean_gap, rng)
        stack: List[int] = []
        next_addr = self.addr_base
        addresses = array("q")
        gaps = array("l")
        profile = self.profile
        for _ in range(length):
            depth = profile.sample_depth(rng)
            if depth is None or depth >= len(stack):
                addr = next_addr
                next_addr += 1
            else:
                addr = stack.pop(len(stack) - 1 - depth)
            stack.append(addr)
            addresses.append(addr)
            gaps.append(gaps_model.sample())
        return Trace(addresses, gaps, name=self.name)


class SequentialStreamGenerator:
    """Pure streaming: every access touches a new line (lbm-like).

    With ``wrap`` set, the stream cycles through a working set of ``wrap``
    lines instead of growing forever — reuse exists but at a distance equal
    to the working-set size, so any cache smaller than it sees ~100% misses.
    """

    def __init__(self, *, mean_gap: float = 10.0, addr_base: int = 0,
                 wrap: Optional[int] = None, seed: int = 0,
                 name: str = "stream") -> None:
        if wrap is not None and wrap <= 0:
            raise ConfigurationError(f"wrap must be positive, got {wrap}")
        self.mean_gap = float(mean_gap)
        self.addr_base = int(addr_base)
        self.wrap = wrap
        self.seed = int(seed)
        self.name = name

    def generate(self, length: int) -> Trace:
        rng = random.Random(self.seed)
        gaps_model = _GapModel(self.mean_gap, rng)
        addresses = array("q")
        gaps = array("l")
        for i in range(length):
            offset = i % self.wrap if self.wrap is not None else i
            addresses.append(self.addr_base + offset)
            gaps.append(gaps_model.sample())
        return Trace(addresses, gaps, name=self.name)


class PhasedGenerator:
    """Concatenate generators into a multi-phase workload.

    Real programs move through phases with different reuse behaviour —
    the property SimPoint exploits (Section VII-C's 250M-instruction
    representative regions).  A :class:`PhasedGenerator` strings together
    ``(generator, fraction)`` phases into one trace so the SimPoint
    machinery (and phase-aware allocation studies) have something real to
    find.  Each phase's generator keeps its own address space unless the
    caller gives them a shared ``addr_base``.
    """

    def __init__(self, phases: Sequence[Tuple[object, float]],
                 name: str = "phased") -> None:
        if not phases:
            raise ConfigurationError("at least one phase is required")
        total = sum(fraction for _, fraction in phases)
        if total <= 0:
            raise ConfigurationError("phase fractions must sum to > 0")
        for _, fraction in phases:
            if fraction <= 0:
                raise ConfigurationError(
                    f"phase fractions must be positive, got {fraction}")
        self.phases = [(gen, fraction / total) for gen, fraction in phases]
        self.name = name

    def generate(self, length: int) -> Trace:
        """Emit ``length`` accesses split across the phases by fraction."""
        if length < 0:
            raise TraceError(f"length must be >= 0, got {length}")
        pieces: List[Trace] = []
        remaining = length
        for i, (generator, fraction) in enumerate(self.phases):
            count = (remaining if i == len(self.phases) - 1
                     else min(remaining, int(round(length * fraction))))
            pieces.append(generator.generate(count))
            remaining -= count
        out = pieces[0]
        for piece in pieces[1:]:
            out = out.concatenate(piece)
        return Trace(out.addresses, out.gaps, name=self.name)


class CyclicScanGenerator(SequentialStreamGenerator):
    """A repeated scan over a fixed working set (maximal LRU pathology).

    Equivalent to :class:`SequentialStreamGenerator` with ``wrap`` set to
    the working-set size; named separately because it models a distinct
    behaviour (cactusADM-like loops slightly larger than the cache, where
    improving LRU eviction quality *hurts*: Fig. 6b).
    """

    def __init__(self, working_set: int, *, mean_gap: float = 20.0,
                 addr_base: int = 0, seed: int = 0, name: str = "scan") -> None:
        super().__init__(mean_gap=mean_gap, addr_base=addr_base,
                         wrap=working_set, seed=seed, name=name)
        self.working_set = int(working_set)
