"""Vantage cache partitioning (Sanchez & Kozyrakis, ISCA 2011) — the
strongest prior replacement-based scheme the paper compares against.

Vantage divides the cache into a *managed* region (fraction ``1 - u``) that
is partitioned, and an *unmanaged* region (fraction ``u``) that absorbs
evictions.  Lines are inserted into their partition's managed region; a
partition sheds capacity by *demoting* lines to the unmanaged region rather
than evicting them directly, and actual evictions take the least useful
unmanaged candidate.  Each partition's demotion rate is controlled by its
*aperture* ``A_i``: a candidate from partition ``i`` whose futility lies in
the top ``A_i`` fraction is demoted.  The aperture grows linearly from 0 (at
the scaled target size) to ``A_max`` (at ``slack`` beyond it), as in
Vantage's feedback-based practical design.

If none of the R candidates is unmanaged, the scheme is *forced* to evict a
managed line (probability ``(1-u)**R``, about 18.5% at u=0.1 and R=16 on
the paper's 16-way L2) — the cause of Vantage's weakened isolation and
slight associativity loss reported in Figs. 7a/7b.

Configuration matches the paper's evaluation: ``u = 0.1``,
``A_max = 0.5``, ``slack = 0.1``.  Targets passed to the cache refer to the
full cache; Vantage scales them by ``1 - u`` internally because it can only
manage that fraction.
"""

from __future__ import annotations

from typing import List, Sequence

from ...errors import ConfigurationError
from . import kernels
from .base import PartitioningScheme, register_scheme

__all__ = ["VantageScheme"]


@register_scheme
class VantageScheme(PartitioningScheme):
    """Vantage: managed/unmanaged regions with aperture-controlled demotion."""

    name = "vantage"

    def __init__(self, unmanaged_fraction: float = 0.1,
                 max_aperture: float = 0.5, slack: float = 0.1) -> None:
        super().__init__()
        if not 0 < unmanaged_fraction < 1:
            raise ConfigurationError(
                f"unmanaged_fraction must be in (0, 1), got {unmanaged_fraction}")
        if not 0 < max_aperture <= 1:
            raise ConfigurationError(
                f"max_aperture must be in (0, 1], got {max_aperture}")
        if slack <= 0:
            raise ConfigurationError(f"slack must be positive, got {slack}")
        self.unmanaged_fraction = float(unmanaged_fraction)
        self.max_aperture = float(max_aperture)
        self.slack = float(slack)
        self._managed: List[bool] = []
        self._managed_sizes: List[int] = []
        self._scaled_targets: List[float] = []
        #: Forced evictions from the managed region (isolation failures).
        self.forced_evictions = 0
        #: Total demotions performed.
        self.demotions = 0

    def bind(self, cache) -> None:
        super().bind(cache)
        self._managed = [False] * cache.num_lines
        self._managed_sizes = [0] * cache.num_partitions
        self._scaled_targets = [0.0] * cache.num_partitions

    def set_targets(self, targets: Sequence[int]) -> None:
        total = sum(targets)
        capacity = self.cache.num_lines
        if total > capacity:
            raise ConfigurationError(
                f"targets sum to {total} > cache capacity {capacity}")
        scale = 1.0 - self.unmanaged_fraction
        self._scaled_targets = [t * scale for t in targets]

    def managed_sizes(self) -> List[int]:
        """Current managed-region occupancy per partition."""
        return list(self._managed_sizes)

    def aperture(self, part: int) -> float:
        """Current demotion aperture of ``part`` (0 .. max_aperture)."""
        target = self._scaled_targets[part]
        if target <= 0:
            return self.max_aperture
        over = (self._managed_sizes[part] - target) / (self.slack * target)
        if over <= 0:
            return 0.0
        if over >= 1:
            return self.max_aperture
        return over * self.max_aperture

    def _demotion_threshold_key(self, part: int, ks, asc: bool):
        """Ranking key bounding the demotion region of ``part``, or ``None``.

        Reproduces the per-candidate aperture test bit for bit: futility is
        monotone in rank, so the boundary rank is binary-searched with the
        *exact* float expressions of the per-candidate comparison
        (``futility(c) >= 1.0 - aperture``), and a candidate is demoted iff
        its key is on the futile side of the returned key (inclusive).
        """
        a = self.aperture(part)
        if a <= 0.0:
            return None
        size = len(ks)
        thr = 1.0 - a
        if asc:
            # futility = (rank + 1) / size, increasing: find the smallest
            # rank inside the aperture.
            lo, hi = 0, size
            while lo < hi:
                mid = (lo + hi) // 2
                if (mid + 1) / size >= thr:
                    hi = mid
                else:
                    lo = mid + 1
            return ks[lo] if lo < size else None
        # futility = (size - rank) / size, decreasing: find the largest
        # rank inside the aperture (-1 when even rank 0 falls short).
        lo, hi = -1, size - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if (size - mid) / size >= thr:
                lo = mid
            else:
                hi = mid - 1
        return ks[lo] if lo >= 0 else None

    def _choose_victim_keyed(self, candidates: List[int],
                             ranking) -> int:
        """Key-ordered fast path: no per-candidate rank queries.

        Demotion membership becomes a key comparison against a
        per-partition threshold; the eviction argmax groups candidates by
        partition on raw keys and ranks only per-partition winners, with
        positional tie-breaks reproducing the flat first-strict-max loops
        (see kernels.choose_scaled for the soundness argument).
        """
        cache = self.cache
        owner = cache.owner
        managed = self._managed
        key = ranking._key
        all_keys = ranking._keys
        asc = ranking._ascending_futility
        msizes = self._managed_sizes
        thr_key = self._demotion_threshold_key
        num_partitions = cache.num_partitions
        missing = object()
        # Partition-indexed scratch lists instead of dicts: candidate lists
        # are hot (one pass per miss) and partition counts are small.
        thresholds: List = [missing] * num_partitions
        slot_of = [-1] * num_partitions
        # Demotion and unmanaged-winner grouping fused into one pass: a
        # candidate's demotion depends only on its own key and its
        # partition's threshold (snapshotted on first managed encounter,
        # exactly like the two-pass form), so processing candidates
        # sequentially is equivalent to demote-all-then-group.
        parts: List[int] = []
        best_c: List[int] = []
        best_k: List = []
        best_pos: List[int] = []
        pos = 0
        for c in candidates:
            p = owner[c]
            k = key[c]
            if managed[c]:
                kt = thresholds[p]
                if kt is missing:
                    kt = thresholds[p] = thr_key(p, all_keys[p], asc)
                if kt is None or ((k < kt) if asc else (k > kt)):
                    pos += 1
                    continue
                managed[c] = False
                msizes[p] -= 1
                self.demotions += 1
            s = slot_of[p]
            if s < 0:
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
        if not parts:
            # Forced eviction: every candidate is managed.
            self.forced_evictions += 1
            pos = 0
            for c in candidates:
                p = owner[c]
                k = key[c]
                s = slot_of[p]
                if s < 0:
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
        best = best_c[0]
        if len(parts) > 1:
            fut = ranking.futility
            bf = fut(best)
            bp = best_pos[0]
            for s in range(1, len(parts)):
                f = fut(best_c[s])
                if f > bf or (f == bf and best_pos[s] < bp):
                    bf = f
                    best = best_c[s]
                    bp = best_pos[s]
        return best

    def choose_victim(self, candidates: List[int], incoming_part: int) -> int:
        cache = self.cache
        if cache._resident != cache.num_lines:
            invalid = kernels.first_invalid(cache, candidates)
            if invalid is not None:
                return invalid
        ranking = cache.ranking
        if ranking.key_ordered:
            return self._choose_victim_keyed(candidates, ranking)
        owner = cache.owner
        managed = self._managed
        # One batched rank query serves all three passes below: demotion
        # only toggles managed bits, never the ranking, so the futilities
        # cannot change while a candidate list is processed.
        futs = ranking.futilities(candidates)
        # Demotion pass: push over-aperture managed candidates to the
        # unmanaged region (this is how partitions shrink smoothly).
        # Apertures are snapshotted per partition on first encounter, so a
        # demotion does not re-open the aperture question mid-list.
        apertures = {}
        i = 0
        for c in candidates:
            f = futs[i]
            i += 1
            if not managed[c]:
                continue
            p = owner[c]
            a = apertures.get(p)
            if a is None:
                a = apertures[p] = self.aperture(p)
            if a > 0.0 and f >= 1.0 - a:
                managed[c] = False
                self._managed_sizes[p] -= 1
                self.demotions += 1
        # Eviction pass: least useful unmanaged candidate.
        best = -1
        best_f = None
        i = 0
        for c in candidates:
            f = futs[i]
            i += 1
            if managed[c]:
                continue
            if best_f is None or f > best_f:
                best_f = f
                best = c
        if best >= 0:
            return best
        # Forced eviction: every candidate is managed.
        self.forced_evictions += 1
        best = candidates[0]
        best_f = futs[0]
        i = 1
        for c in candidates[1:]:
            f = futs[i]
            i += 1
            if f > best_f:
                best_f = f
                best = c
        return best

    def on_insert(self, idx: int, part: int) -> None:
        self._managed[idx] = True
        self._managed_sizes[part] += 1

    def on_evict(self, idx: int, part: int) -> None:
        if self._managed[idx]:
            self._managed_sizes[part] -= 1
            self._managed[idx] = False

    def on_move(self, src: int, dst: int) -> None:
        self._managed[dst] = self._managed[src]
        self._managed[src] = False
