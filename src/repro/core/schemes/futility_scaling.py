"""Futility Scaling schemes (Sections IV and V of the paper).

Two variants:

* :class:`FutilityScalingScheme` — the *analytical* form (Section IV):
  fixed per-partition scaling factors (either supplied directly or solved
  from target sizes and expected insertion rates via
  :func:`repro.core.scaling.solve_scaling_factors`).  On every eviction the
  candidate with the largest ``alpha_i * futility`` is evicted, over the
  **full** candidate list — this is what preserves associativity.

* :class:`FeedbackFutilityScalingScheme` — the practical feedback-based
  design (Section V, Algorithm 2).  No exact futility, no closed form: the
  scaling factor of each partition is a power of the ``changing_ratio``
  (2 by default, so scaling is a bit shift of the 8-bit coarse-timestamp
  futility in hardware) and is nudged up/down every ``interval_length = 16``
  insertions-or-evictions based on the partition's size error and trend.

  The hardware register file (Section V-B) is modeled faithfully:
  per-partition 16-bit ActualSize/TargetSize, 4-bit Insertion/Eviction
  counters, and a 3-bit saturating ScalingShiftWidth (levels 0..7).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from ...errors import ConfigurationError
from ..futility import CoarseTimestampLRURanking
from ..scaling import solve_scaling_factors
from . import kernels
from .base import PartitioningScheme, register_scheme

__all__ = ["FutilityScalingScheme", "FeedbackFutilityScalingScheme"]


def _checked_alphas(alphas: Sequence[float]) -> List[float]:
    """``alphas`` as floats, each refused unless positive and finite
    (a NaN factor would make every comparison in the victim scan
    false)."""
    checked = list(map(float, alphas))
    for i, a in enumerate(checked):
        if not 0.0 < a < math.inf:
            raise ConfigurationError(
                f"alphas[{i}] must be positive and finite, got {a}")
    return checked


@register_scheme
class FutilityScalingScheme(PartitioningScheme):
    """Analytical FS: evict the candidate with the largest scaled futility.

    Parameters
    ----------
    alphas:
        Fixed scaling factors, one per partition.  If omitted they are
        solved from the targets and ``insertion_rates`` when
        :meth:`set_targets` is called.
    insertion_rates:
        Expected per-partition insertion-rate fractions used to solve for
        the scaling factors when ``alphas`` is not given.
    """

    name = "fs"

    def __init__(self, alphas: Optional[Sequence[float]] = None,
                 insertion_rates: Optional[Sequence[float]] = None) -> None:
        super().__init__()
        if alphas is not None and insertion_rates is not None:
            raise ConfigurationError(
                "pass either alphas or insertion_rates, not both")
        self._alphas: Optional[List[float]] = (
            _checked_alphas(alphas) if alphas is not None else None)
        self._insertion_rates = (list(map(float, insertion_rates))
                                 if insertion_rates is not None else None)

    @property
    def alphas(self) -> List[float]:
        if self._alphas is None:
            raise ConfigurationError(
                "scaling factors are not set; call set_targets or pass alphas")
        return list(self._alphas)

    def set_alphas(self, alphas: Sequence[float]) -> None:
        """Replace the scaling factors (one per partition)."""
        alphas = _checked_alphas(alphas)
        if self.cache is not None and len(alphas) != self.cache.num_partitions:
            raise ConfigurationError(
                f"expected {self.cache.num_partitions} alphas, got {len(alphas)}")
        self._alphas = alphas

    def set_targets(self, targets: Sequence[int]) -> None:
        if self._insertion_rates is not None:
            total = float(sum(targets))
            sizes = [t / total for t in targets]
            r = self.cache.array.candidate_count
            self._alphas = _checked_alphas(solve_scaling_factors(
                sizes, self._insertion_rates, r))
        elif self._alphas is None:
            # No information about insertion rates: start neutral.
            self._alphas = [1.0] * len(targets)
        elif len(self._alphas) != len(targets):
            raise ConfigurationError(
                f"{len(self._alphas)} alphas configured for "
                f"{len(targets)} partitions")

    def choose_victim(self, candidates: List[int], incoming_part: int) -> int:
        cache = self.cache
        if cache._resident != cache.num_lines:
            invalid = kernels.first_invalid(cache, candidates)
            if invalid is not None:
                return invalid
        # argmax of alpha_i * futility over the full candidate list — the
        # scaled-futility kernel groups by partition so exact rankings pay
        # one rank query per distinct candidate partition.
        return kernels.choose_scaled(cache, candidates, self._alphas)


@register_scheme
class FeedbackFutilityScalingScheme(PartitioningScheme):
    """Feedback-based FS (Algorithm 2) with the Section V-B register model.

    Parameters
    ----------
    interval_length:
        ``l`` — adjust a partition's scaling factor whenever its insertion
        *or* eviction counter reaches this value (paper default 16).
    changing_ratio:
        ``Delta alpha`` — multiplicative step of the scaling factor (paper
        default 2, making scaled futility a left-shift in hardware).
    max_level:
        Saturation of the scaling exponent (paper: 3-bit register, 0..7).
    """

    name = "fs-feedback"

    def __init__(self, interval_length: int = 16, changing_ratio: float = 2.0,
                 max_level: int = 7) -> None:
        super().__init__()
        if interval_length < 1:
            raise ConfigurationError(
                f"interval_length must be >= 1, got {interval_length}")
        if not 1.0 < changing_ratio < math.inf:
            raise ConfigurationError(
                f"changing_ratio must exceed 1 and be finite, got "
                f"{changing_ratio}")
        if max_level < 1:
            raise ConfigurationError(f"max_level must be >= 1, got {max_level}")
        self.interval_length = int(interval_length)
        self.changing_ratio = float(changing_ratio)
        self.max_level = int(max_level)
        self._levels: List[int] = []
        self._ins: List[int] = []
        self._evi: List[int] = []
        try:
            self._multipliers: List[float] = [
                self.changing_ratio ** k for k in range(self.max_level + 1)]
        except OverflowError:
            raise ConfigurationError(
                f"changing_ratio {changing_ratio} ** max_level {max_level} "
                f"overflows a float; lower the ratio or max_level") from None
        # Per-partition effective alpha (multipliers[level]), kept in step
        # with _levels so the victim kernel can index it directly.
        self._weights: List[float] = []
        #: History of (partition, new_level) adjustments, for analysis.
        self.adjustments: List = []
        self.record_adjustments = False

    def bind(self, cache) -> None:
        super().bind(cache)
        n = cache.num_partitions
        self._levels = [0] * n
        self._ins = [0] * n
        self._evi = [0] * n
        self._weights = [self._multipliers[0]] * n
        # The hardware pairing (coarse 8-bit timestamps) gets an inlined
        # victim scan — the raw futility is a masked subtract, and going
        # through the method call per candidate dominates the hot path.
        self._coarse_ranking = (cache.ranking
                                if isinstance(cache.ranking,
                                              CoarseTimestampLRURanking)
                                else None)
        # Exact comparison on purpose: the shift fast path is only valid
        # when the ratio is *exactly* two (scaling degenerates to `<< level`).
        self._shift_scan = (
            self.changing_ratio == 2.0)  # reprolint: disable=COR001

    def scaling_levels(self) -> List[int]:
        """Current ScalingShiftWidth (exponent) per partition."""
        return list(self._levels)

    def scaling_factors(self) -> List[float]:
        """Current effective alpha per partition (ratio ** level)."""
        return [self._multipliers[k] for k in self._levels]

    def choose_victim(self, candidates: List[int], incoming_part: int) -> int:
        cache = self.cache
        if cache._resident != cache.num_lines:
            invalid = kernels.first_invalid(cache, candidates)
            if invalid is not None:
                return invalid
        owner = cache.owner
        coarse = self._coarse_ranking
        if coarse is not None:
            line_ts = coarse._ts
            cur_ts = coarse._cur_ts
            if self._shift_scan:
                # changing_ratio == 2: scaling is a left shift of the 8-bit
                # distance (exactly the hardware's barrel shifter), and both
                # operands are exact small integers, so the argmax matches
                # the float-weighted scan bit for bit.
                levels = self._levels
                best = candidates[0]
                p = owner[best]
                best_f = ((cur_ts[p] - line_ts[best]) & 0xFF) << levels[p]
                for c in candidates[1:]:
                    p = owner[c]
                    f = ((cur_ts[p] - line_ts[c]) & 0xFF) << levels[p]
                    if f > best_f:
                        best_f = f
                        best = c
                return best
            weights = self._weights
            best = candidates[0]
            p = owner[best]
            best_f = ((cur_ts[p] - line_ts[best]) & 0xFF) * weights[p]
            for c in candidates[1:]:
                p = owner[c]
                f = ((cur_ts[p] - line_ts[c]) & 0xFF) * weights[p]
                if f > best_f:
                    best_f = f
                    best = c
            return best
        return kernels.choose_scaled(cache, candidates, self._weights,
                                     raw=True)

    def _interval_elapsed(self, part: int) -> None:
        """Algorithm 2 body: nudge the scaling factor and reset counters."""
        cache = self.cache
        actual = cache.actual_sizes[part]
        target = cache.targets[part]
        ins = self._ins[part]
        evi = self._evi[part]
        if actual > target and ins >= evi:
            if self._levels[part] < self.max_level:
                self._levels[part] += 1
                self._weights[part] = self._multipliers[self._levels[part]]
                if self.record_adjustments:
                    self.adjustments.append((part, self._levels[part]))
        elif actual < target and ins <= evi:
            if self._levels[part] > 0:
                self._levels[part] -= 1
                self._weights[part] = self._multipliers[self._levels[part]]
                if self.record_adjustments:
                    self.adjustments.append((part, self._levels[part]))
        self._ins[part] = 0
        self._evi[part] = 0

    def on_insert(self, idx: int, part: int) -> None:
        self._ins[part] += 1
        if self._ins[part] >= self.interval_length:
            self._interval_elapsed(part)

    def on_evict(self, idx: int, part: int) -> None:
        self._evi[part] += 1
        if self._evi[part] >= self.interval_length:
            self._interval_elapsed(part)
