"""Per-partition time series sampled on a deterministic access window.

:class:`TimeSeriesRecorder` is a
:class:`~repro.cache.events.CacheObserver` that snapshots, every
``interval`` cache accesses, one row per partition:

``access``
    The absolute access index of the sample (``samples * interval``).
``part`` / ``occupancy`` / ``target``
    Partition id, its current valid-line count and its target size.
``alpha``
    The partition's scaling factor: feedback FS reports
    ``changing_ratio ** level`` (the Section V-B register state),
    analytical FS its solved/configured alpha, every other scheme
    ``null``.
``miss_rate``
    Misses over accesses *within the window* (``null`` when the
    partition issued no accesses in the window).
``insertions`` / ``evictions``
    Fills into / evictions out of the partition within the window —
    together the partition's eviction demand and supply, whose
    imbalance is what Algorithm 2's feedback corrects.

The window is driven off the recorder's own event counter — never
wall-clock — so two identical runs produce byte-identical series files,
and the rows are valid evidence for the paper's dynamic claims (target
tracking, alpha_i convergence).

Cost model: subscribing the recorder triggers the cache's kernel
recompilation (:meth:`~repro.cache.cache.PartitionedCache._build_access`),
which recognizes the exact :class:`TimeSeriesRecorder` type and inlines
its window counters as straight array arithmetic; an unsubscribed
recorder contributes *nothing* to the generated kernel.  Subclasses are
dispatched through the event-handler tuples instead and must produce
identical rows (the test suite holds the two paths byte-equal).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..cache.events import CacheObserver
from ..errors import ConfigurationError

__all__ = ["TimeSeriesRecorder"]


class TimeSeriesRecorder(CacheObserver):
    """Sample per-partition cache state every ``interval`` accesses."""

    def __init__(self, interval: int = 1024) -> None:
        if interval < 1:
            raise ConfigurationError(
                f"sampling interval must be >= 1, got {interval}")
        self.interval = int(interval)
        self._cache = None
        self._rows: List[Dict[str, object]] = []
        self._samples = 0
        self._since = 0
        self._win_acc: List[int] = []
        self._win_miss: List[int] = []
        self._win_ins: List[int] = []
        self._win_evi: List[int] = []

    # -- wiring ---------------------------------------------------------------
    def attach(self, cache) -> "TimeSeriesRecorder":
        """Bind to the cache whose state the samples read; returns self.

        Must be called before subscribing to ``cache.events`` (the
        compiled kernel only inlines a recorder attached to its own
        cache).
        """
        self._cache = cache
        n = cache.num_partitions
        self._win_acc = [0] * n
        self._win_miss = [0] * n
        self._win_ins = [0] * n
        self._win_evi = [0] * n
        return self

    def reset(self) -> None:
        """Drop all rows and window state (e.g. after cache warm-up)."""
        self._rows = []
        self._samples = 0
        self._since = 0
        for buf in (self._win_acc, self._win_miss, self._win_ins,
                    self._win_evi):
            for i in range(len(buf)):
                buf[i] = 0

    # -- event handlers (the compiled kernel inlines these bodies) ------------
    def _tick(self) -> None:
        n = self._since + 1
        if n >= self.interval:
            self._since = 0
            self._sample()
        else:
            self._since = n

    def on_cache_hit(self, idx: int, part: int,
                     next_use: Optional[int]) -> None:
        self._win_acc[part] += 1
        self._tick()

    def on_cache_miss(self, addr: int, part: int) -> None:
        # Fired before victim selection: a sample landing on a miss sees
        # pre-eviction occupancies, exactly like the inlined kernel code.
        self._win_acc[part] += 1
        self._win_miss[part] += 1
        self._tick()

    def on_cache_evict(self, idx: int, part: int,
                       futility: Optional[float], dirty: int) -> None:
        self._win_evi[part] += 1

    def on_cache_insert(self, idx: int, part: int, next_use: Optional[int],
                        evicted: bool) -> None:
        self._win_ins[part] += 1

    # -- sampling -------------------------------------------------------------
    def _alphas(self) -> Optional[List[float]]:
        """Current per-partition scaling factors, or None for schemes
        that have no such notion (PF, Vantage, PriSM, ...)."""
        scheme = self._cache.scheme
        factors = getattr(scheme, "scaling_factors", None)
        if callable(factors):  # feedback FS: ratio ** level registers
            return [float(a) for a in factors()]
        try:
            alphas = scheme.alphas  # analytical FS: solved property
        except (AttributeError, ConfigurationError):
            return None
        if callable(alphas):
            return None
        return [float(a) for a in alphas]

    def _sample(self) -> None:
        cache = self._cache
        if cache is None:
            raise ConfigurationError(
                "TimeSeriesRecorder must be attach()ed to a cache before "
                "it observes events")
        self._samples += 1
        access = self._samples * self.interval
        alphas = self._alphas()
        sizes = cache.actual_sizes
        targets = cache.targets
        acc, miss = self._win_acc, self._win_miss
        ins, evi = self._win_ins, self._win_evi
        for p in range(cache.num_partitions):
            self._rows.append({
                "access": access,
                "part": p,
                "occupancy": sizes[p],
                "target": targets[p],
                "alpha": None if alphas is None else alphas[p],
                "miss_rate": (miss[p] / acc[p]) if acc[p] else None,
                "insertions": ins[p],
                "evictions": evi[p],
            })
            acc[p] = 0
            miss[p] = 0
            ins[p] = 0
            evi[p] = 0

    # -- export ---------------------------------------------------------------
    def rows(self) -> List[Dict[str, object]]:
        """All sample rows recorded so far (oldest first)."""
        return list(self._rows)

    def series(self, field: str, part: int) -> List[object]:
        """One column of one partition's samples, in access order."""
        return [row[field] for row in self._rows if row["part"] == part]

    def write_jsonl(self, path: Union[str, Path]) -> Path:
        """Write one JSON object per sample row; byte-stable across runs."""
        from .schema import header_line
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header_line("series") + "\n")
            for row in self._rows:
                fh.write(json.dumps(row, sort_keys=True,
                                    separators=(",", ":")) + "\n")
        return path
