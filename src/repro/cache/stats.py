"""Per-partition cache statistics.

Collects exactly the measurements the paper's evaluation reports:

* hit/miss/insertion/eviction counts (per partition) — Fig. 2b, I_i / E_i;
* eviction futility samples — associativity distributions and AEF
  (Figs. 2a, 4, 7b);
* size deviation samples at every eviction — sizing distributions and MAD
  (Fig. 5);
* periodically sampled occupancy — average occupancy (Fig. 7a).

Futility samples are stored in compact ``array('f')`` buffers; deviation
tracking is opt-in per partition because Fig. 5-style sampling at every
eviction is expensive at 32 partitions.

:class:`CacheStats` is a :class:`~repro.cache.events.CacheObserver`: the
cache no longer calls ``record_*`` from its access kernel but publishes
typed events that the stats object subscribes to (after :meth:`attach`
binds it to the cache whose occupancies it samples).  The ``record_*``
methods remain the public recording API — the observer handlers are thin
adapters over them — so standalone use in tests keeps working.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Optional, Sequence

from ..errors import ConfigurationError
from .events import CacheObserver

__all__ = ["CacheStats"]


class CacheStats(CacheObserver):
    """Counters and sample buffers for a partitioned cache."""

    def __init__(self, num_partitions: int, *,
                 track_eviction_futility: bool = True,
                 deviation_partitions: Iterable[int] = (),
                 occupancy_sample_period: int = 64) -> None:
        if num_partitions <= 0:
            raise ConfigurationError("num_partitions must be positive")
        if occupancy_sample_period <= 0:
            raise ConfigurationError("occupancy_sample_period must be positive")
        self.num_partitions = num_partitions
        self.track_eviction_futility = bool(track_eviction_futility)
        self.deviation_partitions = tuple(sorted(set(deviation_partitions)))
        for p in self.deviation_partitions:
            if not 0 <= p < num_partitions:
                raise ConfigurationError(f"deviation partition {p} out of range")
        self.occupancy_sample_period = int(occupancy_sample_period)
        self._cache = None
        self.reset()

    # -- observer wiring -----------------------------------------------------
    def attach(self, cache) -> "CacheStats":
        """Bind to the cache whose occupancy/targets the samples read.

        Must be called before subscribing to the cache's event bus; returns
        ``self`` for chaining.
        """
        self._cache = cache
        return self

    def on_cache_hit(self, idx: int, part: int,
                     next_use: Optional[int]) -> None:
        self.record_access(part, True, self._cache.actual_sizes)

    def on_cache_miss(self, addr: int, part: int) -> None:
        self.record_access(part, False, self._cache.actual_sizes)

    def on_cache_evict(self, idx: int, part: int,
                       futility: Optional[float], dirty: int) -> None:
        self.record_eviction(part, futility)
        if dirty:
            self.record_writeback(part)

    def on_cache_insert(self, idx: int, part: int, next_use: Optional[int],
                        evicted: bool) -> None:
        self.record_insertion(part)
        if evicted and self.size_deviations:
            cache = self._cache
            self.record_deviations(cache.actual_sizes, cache.targets)

    def on_cache_flush(self, idx: int, part: int, dirty: int) -> None:
        if dirty:
            self.record_writeback(part)
        self.record_flush()

    def reset(self) -> None:
        """Zero all counters and clear all sample buffers."""
        n = self.num_partitions
        self.accesses = 0
        self.hits: List[int] = [0] * n
        self.misses: List[int] = [0] * n
        self.insertions: List[int] = [0] * n
        self.evictions: List[int] = [0] * n
        self.writebacks: List[int] = [0] * n
        self.flushes = 0
        self.eviction_futilities: Optional[List[array]] = (
            [array("f") for _ in range(n)] if self.track_eviction_futility
            else None)
        self.size_deviations: Dict[int, array] = {
            p: array("l") for p in self.deviation_partitions}
        self._occupancy_sum: List[int] = [0] * n
        self._occupancy_samples = 0
        self._since_occupancy_sample = 0

    # -- recording (called by the cache hot path) ---------------------------
    def record_access(self, part: int, hit: bool,
                      actual_sizes: Sequence[int]) -> None:
        """Count one access (and periodically sample occupancies)."""
        self.accesses += 1
        if hit:
            self.hits[part] += 1
        else:
            self.misses[part] += 1
        self._since_occupancy_sample += 1
        if self._since_occupancy_sample >= self.occupancy_sample_period:
            self._since_occupancy_sample = 0
            self._occupancy_samples += 1
            acc = self._occupancy_sum
            for p in range(self.num_partitions):
                acc[p] += actual_sizes[p]

    def record_eviction(self, part: int, futility: Optional[float]) -> None:
        """Count an eviction from ``part`` with its normalized futility."""
        self.evictions[part] += 1
        if futility is not None and self.eviction_futilities is not None:
            self.eviction_futilities[part].append(futility)

    def record_insertion(self, part: int) -> None:
        """Count a line fill into ``part``."""
        self.insertions[part] += 1

    def record_writeback(self, part: int) -> None:
        """Count a dirty-line writeback attributed to ``part``."""
        self.writebacks[part] += 1

    def record_deviations(self, actual_sizes: Sequence[int],
                          targets: Sequence[int]) -> None:
        """Sample ``actual - target`` for every tracked partition."""
        for p, buf in self.size_deviations.items():
            buf.append(actual_sizes[p] - targets[p])

    def record_flush(self) -> None:
        """Count a forced invalidation (placement-scheme resize cost)."""
        self.flushes += 1

    # -- derived metrics -----------------------------------------------------
    def total_hits(self) -> int:
        """Hits summed over partitions."""
        return sum(self.hits)

    def total_misses(self) -> int:
        """Misses summed over partitions."""
        return sum(self.misses)

    def hit_rate(self, part: Optional[int] = None) -> float:
        """Hit fraction for one partition (or overall)."""
        if part is None:
            total = self.total_hits() + self.total_misses()
            return self.total_hits() / total if total else 0.0
        total = self.hits[part] + self.misses[part]
        return self.hits[part] / total if total else 0.0

    def miss_rate(self, part: Optional[int] = None) -> float:
        """Miss fraction for one partition (or overall)."""
        total = ((self.hits[part] + self.misses[part]) if part is not None
                 else self.total_hits() + self.total_misses())
        misses = self.misses[part] if part is not None else self.total_misses()
        return misses / total if total else 0.0

    def insertion_fractions(self) -> List[float]:
        """Measured I_i — each partition's share of total insertions."""
        total = sum(self.insertions)
        if total == 0:
            return [0.0] * self.num_partitions
        return [i / total for i in self.insertions]

    def eviction_fractions(self) -> List[float]:
        """Measured E_i — each partition's share of total evictions."""
        total = sum(self.evictions)
        if total == 0:
            return [0.0] * self.num_partitions
        return [e / total for e in self.evictions]

    def aef(self, part: int) -> float:
        """Average Eviction Futility of ``part`` (NaN when unobserved)."""
        if self.eviction_futilities is None:
            raise ConfigurationError("eviction futility tracking is disabled")
        buf = self.eviction_futilities[part]
        if not buf:
            return float("nan")
        return sum(buf) / len(buf)

    def eviction_futility_samples(self, part: int) -> array:
        """Raw eviction-futility sample buffer of ``part``."""
        if self.eviction_futilities is None:
            raise ConfigurationError("eviction futility tracking is disabled")
        return self.eviction_futilities[part]

    def mean_occupancy(self, part: int) -> float:
        """Time-averaged occupancy (lines) of ``part``."""
        if self._occupancy_samples == 0:
            return float("nan")
        return self._occupancy_sum[part] / self._occupancy_samples

    def deviation_samples(self, part: int) -> array:
        """Size-deviation samples of ``part`` (must be tracked)."""
        try:
            return self.size_deviations[part]
        except KeyError:
            raise ConfigurationError(
                f"size-deviation tracking was not enabled for partition {part}")

    def summary(self) -> Dict[str, object]:
        """A plain-dict snapshot convenient for reports and tests."""
        out: Dict[str, object] = {
            "accesses": self.accesses,
            "hits": list(self.hits),
            "misses": list(self.misses),
            "insertions": list(self.insertions),
            "evictions": list(self.evictions),
            "writebacks": list(self.writebacks),
            "flushes": self.flushes,
            "hit_rate": self.hit_rate(),
        }
        if self.eviction_futilities is not None:
            out["aef"] = [self.aef(p) if self.eviction_futilities[p] else None
                          for p in range(self.num_partitions)]
        return out
