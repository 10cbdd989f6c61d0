"""PriSM: Probabilistic Shared-cache Management (Manikantan, Rajan &
Govindarajan, ISCA 2012) — the second baseline the paper compares against.

PriSM controls partition sizes by choosing, on each miss, *which partition
to evict from* according to a pre-computed eviction probability
distribution, then evicting the least useful candidate of that partition.
The distribution is refreshed every ``window`` evictions from the partitions'
measured insertion fractions and size deviations::

    E_i = I_i + (N_i_actual - N_i_target) / W

(clamped to [0, 1] and renormalized), which steers each partition back to
its target over the next window of W evictions.

The failure mode the paper highlights (Section VIII-A): the selected
partition may have *no line* in the candidate list at all.  With N = 32
partitions and R = 16 candidates this "abnormality" happens most of the
time (> 70% in the paper's QoS experiment), and PriSM then falls back to a
partition present among the candidates — losing both sizing precision and
associativity.  The abnormality count is exposed for measurement.
"""

from __future__ import annotations

import random
from typing import List

from ...errors import ConfigurationError
from . import kernels
from .base import PartitioningScheme, register_scheme

__all__ = ["PriSMScheme"]


@register_scheme
class PriSMScheme(PartitioningScheme):
    """PriSM eviction-probability-distribution partitioning."""

    name = "prism"

    def __init__(self, window: int = 128, seed: int = 0) -> None:
        super().__init__()
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        self.window = int(window)
        self._rng = random.Random(seed)
        self._probabilities: List[float] = []
        self._cumulative: List[float] = []
        self._window_insertions: List[int] = []
        self._evictions_in_window = 0
        #: Victim-identification abnormalities: selected partition had no
        #: candidate line.
        self.abnormalities = 0
        #: Total victim selections (for the abnormality rate).
        self.selections = 0

    def bind(self, cache) -> None:
        super().bind(cache)
        n = cache.num_partitions
        self._probabilities = [1.0 / n] * n
        self._window_insertions = [0] * n
        self._rebuild_cumulative()

    def _rebuild_cumulative(self) -> None:
        acc = 0.0
        cumulative = []
        for p in self._probabilities:
            acc += p
            cumulative.append(acc)
        if cumulative:
            cumulative[-1] = 1.0  # guard against rounding
        self._cumulative = cumulative

    def eviction_probabilities(self) -> List[float]:
        """The current per-partition eviction probability distribution."""
        return list(self._probabilities)

    def abnormality_rate(self) -> float:
        """Fraction of victim selections where the chosen partition had no
        candidate (0.0 when nothing has been selected yet)."""
        if self.selections == 0:
            return 0.0
        return self.abnormalities / self.selections

    def _refresh_distribution(self) -> None:
        cache = self.cache
        total_ins = sum(self._window_insertions)
        n = cache.num_partitions
        w = float(self.window)
        probs = []
        for i in range(n):
            ins_frac = (self._window_insertions[i] / total_ins
                        if total_ins else 1.0 / n)
            drift = (cache.actual_sizes[i] - cache.targets[i]) / w
            probs.append(min(1.0, max(0.0, ins_frac + drift)))
        total = sum(probs)
        if total <= 0:
            probs = [1.0 / n] * n
        else:
            probs = [p / total for p in probs]
        self._probabilities = probs
        self._rebuild_cumulative()
        self._window_insertions = [0] * n
        self._evictions_in_window = 0

    def _sample_partition(self) -> int:
        x = self._rng.random()
        cumulative = self._cumulative
        lo, hi = 0, len(cumulative) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cumulative[mid] < x:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def choose_victim(self, candidates: List[int], incoming_part: int) -> int:
        # NB: the empty-slot probe must run *before* sampling so that
        # warm-up fills consume no RNG draws (replay determinism).
        cache = self.cache
        if cache._resident != cache.num_lines:
            invalid = kernels.first_invalid(cache, candidates)
            if invalid is not None:
                return invalid
        self.selections += 1
        wanted = self._sample_partition()
        best = kernels.max_raw_in(self.cache, candidates, wanted)
        if best >= 0:
            return best
        # Abnormality: the sampled partition is absent from the candidate
        # list; evict the least useful candidate regardless of partition.
        self.abnormalities += 1
        return kernels.choose_scaled(self.cache, candidates)

    def on_insert(self, idx: int, part: int) -> None:
        self._window_insertions[part] += 1

    def on_evict(self, idx: int, part: int) -> None:
        self._evictions_in_window += 1
        if self._evictions_in_window >= self.window:
            self._refresh_distribution()
