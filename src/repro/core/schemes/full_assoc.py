"""FullAssoc: the paper's ideal partitioning scheme (Section VII-B).

"PF on a fully-associative cache": every resident line is a replacement
candidate, so the Partition-Selection step sees all partitions and the
Victim-Identification step always evicts the *globally* least useful line
of the most oversized partition.  This yields exact sizing **and** full
associativity (AEF = 1 by construction when measured against the decision
ranking) — an upper bound no practical array can reach.

The naive formulation scans every line per miss; this implementation gets
the same victim in O(num_partitions + log M) using the ranking's
per-partition order statistics, and therefore requires an *exact* ranking
(LRU, LFU, OPT, random) and an array exposing ``free_slot`` (the
:class:`~repro.cache.arrays.FullyAssociativeArray`).
"""

from __future__ import annotations

from typing import List

from ...errors import ConfigurationError
from .base import PartitioningScheme, register_scheme

__all__ = ["FullAssocScheme"]


@register_scheme
class FullAssocScheme(PartitioningScheme):
    """Ideal scheme: exact sizing with full associativity."""

    name = "full-assoc"
    uses_candidates = False

    def bind(self, cache) -> None:
        super().bind(cache)
        if not cache.ranking.exact:
            raise ConfigurationError(
                "FullAssocScheme requires an exact futility ranking "
                f"(got {cache.ranking.name!r})")
        if not hasattr(cache.ranking, "most_futile"):
            raise ConfigurationError(
                f"ranking {cache.ranking.name!r} does not support "
                "most-futile queries")
        # Ask the ranking to maintain its most-futile index eagerly from
        # here on; rankings without a FullAssoc consumer skip that work.
        # A compiled kernel that reads no rank drops it again and takes
        # the victim from a heap (PartitionedCache._build_access).
        ensure = getattr(cache.ranking, "ensure_index", None)
        if ensure is not None:
            ensure()

    def choose_victim(self, candidates: List[int], incoming_part: int) -> int:
        cache = self.cache
        actual = cache.actual_sizes
        targets = cache.targets
        best_part = -1
        best_over = None
        for p in range(cache.num_partitions):
            if actual[p] == 0:
                continue
            over = actual[p] - targets[p]
            if best_over is None or over > best_over:
                best_over = over
                best_part = p
        if best_part < 0:  # pragma: no cover - cache is full when called
            raise ConfigurationError("no non-empty partition to evict from")
        return cache.ranking.most_futile(best_part)
