"""Way-partitioning (column caching [11]) — the placement-based baseline.

Each partition owns a disjoint subset of the ways of a set-associative
array; an incoming line may only replace a line in one of its own ways.
This enforces isolation by construction but has the two defects that
motivate replacement-based schemes (Section II-B):

* **Coarse granularity / associativity loss** — a partition's associativity
  equals its way count, so 16 ways cannot support more than 16 partitions
  and every partition of ``k`` ways behaves like a ``k``-way cache.
* **Resizing penalty** — changing the way assignment strands lines in ways
  they no longer own; this implementation flushes them (counted in
  ``flushes``) exactly like the data invalidation the paper attributes to
  placement-based schemes.

Victim priority within the set: own-way empty slot, then a stale foreign
line parked in an own way (left over from a resize), then the least useful
own-way line.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ...cache.arrays import SetAssociativeArray
from ...errors import ConfigurationError
from .base import PartitioningScheme, register_scheme

__all__ = ["WayPartitionScheme"]


@register_scheme
class WayPartitionScheme(PartitioningScheme):
    """Placement-based partitioning by cache ways."""

    name = "way-partition"

    def __init__(self) -> None:
        super().__init__()
        self._way_owner: List[int] = []
        #: Lines invalidated by resizes (the placement-scheme resize cost).
        self.flushes = 0

    def bind(self, cache) -> None:
        super().bind(cache)
        # Slots map to ways as slot % ways and set * ways + way: the
        # set-major layout of SetAssociativeArray alone (skew and zcache
        # arrays lay slots out way-major).
        if not isinstance(cache.array, SetAssociativeArray):
            raise ConfigurationError(
                f"way-partitioning needs a SetAssociativeArray, got "
                f"{type(cache.array).__name__}")
        if cache.array.ways < cache.num_partitions:
            raise ConfigurationError(
                f"way-partitioning needs a set-associative array with at "
                f"least one way per partition (ways={cache.array.ways}, "
                f"partitions={cache.num_partitions})")

    def way_assignment(self) -> List[int]:
        """Owner partition of each way."""
        return list(self._way_owner)

    def ways_of(self, part: int) -> List[int]:
        return [w for w, p in enumerate(self._way_owner) if p == part]

    def set_targets(self, targets: Sequence[int]) -> None:
        cache = self.cache
        ways = cache.array.ways
        num_sets = cache.array.num_sets
        total = sum(targets)
        if total <= 0:
            raise ConfigurationError("targets must not all be zero")
        # Largest-remainder apportionment with a one-way floor per partition.
        quotas = [t / total * ways for t in targets]
        counts = [max(1, int(q)) for q in quotas]
        while sum(counts) > ways:
            # Shrink the partition with the most ways above its quota.
            candidates = [i for i, c in enumerate(counts) if c > 1]
            if not candidates:
                raise ConfigurationError(
                    f"{len(targets)} partitions cannot share {ways} ways")
            victim = max(candidates, key=lambda i: counts[i] - quotas[i])
            counts[victim] -= 1
        remainders = sorted(range(len(targets)),
                            key=lambda i: quotas[i] - counts[i], reverse=True)
        i = 0
        while sum(counts) < ways:
            counts[remainders[i % len(remainders)]] += 1
            i += 1
        new_owner: List[int] = []
        for part, c in enumerate(counts):
            new_owner.extend([part] * c)
        if self._way_owner and new_owner != self._way_owner:
            self._flush_transferred_ways(new_owner)
        self._way_owner = new_owner

    def _flush_transferred_ways(self, new_owner: List[int]) -> None:
        """Invalidate lines stranded in ways that changed hands."""
        cache = self.cache
        ways = cache.array.ways
        num_sets = cache.array.num_sets
        for way, (old, new) in enumerate(zip(self._way_owner, new_owner)):
            if old == new:
                continue
            for s in range(num_sets):
                idx = s * ways + way
                if cache.array.addr_at(idx) >= 0 and cache.owner[idx] != new:
                    cache.invalidate_index(idx)
                    self.flushes += 1

    def _way_of_index(self, idx: int) -> int:
        return idx % self.cache.array.ways

    def choose_victim(self, candidates: List[int], incoming_part: int) -> int:
        cache = self.cache
        owner = cache.owner
        tag = cache.lines.tag
        ways = cache.array.ways
        way_owner = self._way_owner
        # Filter down to the inserting partition's own ways, taking the
        # first empty own-way slot outright.
        own_ways: List[int] = []
        for c in candidates:
            if way_owner[c % ways] != incoming_part:
                continue
            if tag[c] < 0:
                return c
            own_ways.append(c)
        if not own_ways:
            raise ConfigurationError(  # pragma: no cover - 1-way floor
                f"partition {incoming_part} owns no way in the candidate set")
        # Foreign lines parked in our ways by a resize outrank our own
        # lines; futility breaks ties within each class.
        ranking = cache.ranking
        if ranking.key_ordered:
            # Group by partition on raw keys and rank only per-partition
            # winners (positional tie-breaks reproduce the flat
            # first-strict-max loop; see kernels.choose_scaled).
            key = ranking._key
            asc = ranking._ascending_futility
            parts: List[int] = []
            best_c: List[int] = []
            best_k: List = []
            best_pos: List[int] = []
            slot_of = {}
            pos = 0
            for c in own_ways:
                p = owner[c]
                k = key[c]
                s = slot_of.get(p)
                if s is None:
                    slot_of[p] = len(parts)
                    parts.append(p)
                    best_c.append(c)
                    best_k.append(k)
                    best_pos.append(pos)
                elif (k > best_k[s]) if asc else (k < best_k[s]):
                    best_k[s] = k
                    best_c[s] = c
                    best_pos[s] = pos
                pos += 1
            s_own = slot_of.get(incoming_part)
            foreign = [s for s in range(len(parts))
                       if parts[s] != incoming_part]
            if not foreign:
                return best_c[s_own]
            if len(foreign) == 1:
                return best_c[foreign[0]]
            fut = ranking.futility  # == raw_futility for key-ordered
            best = best_c[foreign[0]]
            bf = fut(best)
            bp = best_pos[foreign[0]]
            for s in foreign[1:]:
                f = fut(best_c[s])
                if f > bf or (f == bf and best_pos[s] < bp):
                    bf = f
                    best = best_c[s]
                    bp = best_pos[s]
            return best
        raws = ranking.raw_futilities(own_ways)
        best_own: Optional[int] = None
        best_own_f = None
        best_foreign: Optional[int] = None
        best_foreign_f = None
        for c, f in zip(own_ways, raws):
            if owner[c] != incoming_part:
                if best_foreign_f is None or f > best_foreign_f:
                    best_foreign_f = f
                    best_foreign = c
            elif best_own_f is None or f > best_own_f:
                best_own_f = f
                best_own = c
        if best_foreign is not None:
            return best_foreign
        return best_own
