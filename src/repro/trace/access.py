"""Trace containers and Belady (next-use) annotation.

A :class:`Trace` is a sequence of L2 line-address accesses from a single
thread, each carrying the number of instructions executed since the
previous L2 access (the *gap*, used by the timing model to reconstruct
per-thread virtual time exactly like the paper's trace-driven simulator,
Section VII-A).

:func:`annotate_next_use` performs the standard backward pass computing,
for each access, the position of the next reference to the same address —
the future knowledge the OPT futility ranking [14] requires.  Addresses
never referenced again get the sentinel ``len(trace) + position``, which is
strictly larger than every finite next-use position and unique per access.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, Optional, Sequence

from ..errors import TraceError

__all__ = ["Trace", "annotate_next_use"]


def annotate_next_use(addresses: Sequence[int]) -> array:
    """Next-use positions for every access (see module docstring)."""
    n = len(addresses)
    next_use = array("q", bytes(8 * n))
    last_seen: Dict[int, int] = {}
    for i in range(n - 1, -1, -1):
        addr = addresses[i]
        next_use[i] = last_seen.get(addr, n + i)
        last_seen[addr] = i
    return next_use


class Trace:
    """A single-thread L2 access trace.

    The arrays are plain (mutable) ``array.array`` objects, but a trace is
    treated as read-only: :meth:`repro.trace.spec.BenchmarkProfile.trace`
    hands one memoized object to every caller in a process, so no consumer
    may write to ``addresses``, ``gaps`` or ``next_use``.  Derive a new
    trace (:meth:`slice`, :meth:`with_offset`, :meth:`concatenate`)
    instead.

    Parameters
    ----------
    addresses:
        Line addresses, one per L2 access.
    gaps:
        Instructions executed since the previous L2 access (same length).
        Defaults to a constant gap of 1 when omitted.
    name:
        Label used in experiment reports (e.g. the benchmark name).
    """

    __slots__ = ("addresses", "gaps", "name", "_next_use")

    def __init__(self, addresses: Iterable[int],
                 gaps: Optional[Iterable[int]] = None,
                 name: str = "trace") -> None:
        self.addresses = array("q", addresses)
        if len(self.addresses) and min(self.addresses) < 0:
            raise TraceError("addresses must be non-negative")
        if gaps is None:
            self.gaps = array("l", [1]) * len(self.addresses)
        else:
            self.gaps = array("l", gaps)
        if len(self.gaps) != len(self.addresses):
            raise TraceError(
                f"gaps length {len(self.gaps)} != addresses length "
                f"{len(self.addresses)}")
        self.name = name
        self._next_use: Optional[array] = None

    def __len__(self) -> int:
        return len(self.addresses)

    def __getitem__(self, i: int) -> int:
        return self.addresses[i]

    @property
    def next_use(self) -> array:
        """Next-use positions (computed lazily and cached)."""
        if self._next_use is None:
            self._next_use = annotate_next_use(self.addresses)
        return self._next_use

    @property
    def instructions(self) -> int:
        """Total instructions the trace represents."""
        return sum(self.gaps)

    def footprint(self) -> int:
        """Number of distinct line addresses touched."""
        return len(set(self.addresses))

    def slice(self, start: int, stop: int, name: Optional[str] = None) -> "Trace":
        """A sub-trace over ``[start, stop)`` (next-use recomputed lazily)."""
        if not 0 <= start <= stop <= len(self):
            raise TraceError(f"invalid slice [{start}, {stop}) of {len(self)}")
        return Trace(self.addresses[start:stop], self.gaps[start:stop],
                     name=name or f"{self.name}[{start}:{stop}]")

    def with_offset(self, offset: int, name: Optional[str] = None) -> "Trace":
        """A copy with every address shifted by ``offset`` (a disjoint
        address space for another thread)."""
        shifted = array("q", (a + offset for a in self.addresses))
        return Trace(shifted, self.gaps, name=name or self.name)

    def concatenate(self, other: "Trace", name: Optional[str] = None) -> "Trace":
        """This trace followed by ``other``."""
        return Trace(self.addresses + other.addresses, self.gaps + other.gaps,
                     name=name or f"{self.name}+{other.name}")
