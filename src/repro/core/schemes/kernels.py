"""Batched victim-selection kernels over candidate index arrays.

Every replacement-based scheme reduces to an argmax over the candidate
list; historically each scheme ran its own per-candidate Python loop with a
``ranking.futility(c)`` method call (a bisect) per element.  These kernels
restructure that inner loop into a single pass that the schemes share:

* With a *key-ordered* ranking (``ranking.key_ordered``), candidates are
  first grouped by partition on their **raw keys** — within one partition,
  normalized futility is strictly monotone in the key, so the per-partition
  winner is found with plain comparisons and only one rank query (bisect)
  per *distinct partition* is ever issued.
* Otherwise, the rank/raw queries are batched through
  ``ranking.futilities`` / ``ranking.raw_futilities`` (one call for the
  whole candidate array) and the argmax runs over the resulting flat list.

Byte-identity contract: each kernel reproduces the historical per-candidate
loops *exactly* — same float expressions, same first-strict-max tie
handling (a tie between partitions resolves to the candidate earliest in
the list), no extra RNG draws, no ranking mutation.  The grouped path is
sound because within one partition scaled futilities are distinct (keys are
unique, partition sizes are far below 2**52, and scaling by a positive
per-partition weight preserves strict float order at these magnitudes), so
only per-partition winners can achieve the global maximum.

Where these functions still run: the compiled access kernel
(:meth:`repro.cache.cache.PartitionedCache._build_access`) emits the
key-ordered paths of :func:`choose_scaled` and :func:`choose_pf` inline
for the exact ``FutilityScalingScheme``, ``FeedbackFutilityScalingScheme``,
``UnpartitionedScheme`` and ``PartitioningFirstScheme`` over exact
``LRURanking``/``OPTRanking``.  This module remains the dispatched path
for everything else: subclasses of those types, the LFU, random and
coarse-timestamp rankings, and the other schemes (PriSM's
:func:`max_raw_in`).  It is also the reference that
``tests/cache/test_kernel_inlining.py`` compares the inlined scan with,
through trivial subclasses that compile the dispatched path.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

__all__ = ["first_invalid", "choose_scaled", "choose_pf", "max_raw_in"]


def first_invalid(cache, candidates: Sequence[int]) -> Optional[int]:
    """First empty slot among ``candidates``, or ``None``.

    Skips the scan entirely once the cache is full — the common case in
    steady state — so the hot path pays for it only during warm-up.
    """
    if cache._resident == cache.num_lines:
        return None
    tag = cache.lines.tag
    for c in candidates:
        if tag[c] < 0:
            return c
    return None


def choose_scaled(cache, candidates: Sequence[int],
                  weights: Optional[Sequence[float]] = None,
                  *, raw: bool = False) -> int:
    """Argmax of ``weights[owner[c]] * futility(c)`` over valid candidates.

    ``weights=None`` means unscaled (plain most-futile).  ``raw=True``
    compares ``raw_futility`` instead of the normalized rank (only
    observable for non-exact rankings, where the two differ).
    """
    ranking = cache.ranking
    owner = cache.owner
    if ranking.key_ordered:
        key = ranking._key
        asc = ranking._ascending_futility
        # Group by partition: parallel lists of (partition, winning
        # candidate, winning key, original position), slot_of maps the
        # partition id to its row.
        parts: List[int] = []
        best_c: List[int] = []
        best_k: List = []
        best_pos: List[int] = []
        slot_of = {}
        pos = 0
        if asc:
            for c in candidates:
                p = owner[c]
                k = key[c]
                s = slot_of.get(p)
                if s is None:
                    slot_of[p] = len(parts)
                    parts.append(p)
                    best_c.append(c)
                    best_k.append(k)
                    best_pos.append(pos)
                elif k > best_k[s]:
                    best_k[s] = k
                    best_c[s] = c
                    best_pos[s] = pos
                pos += 1
        else:
            for c in candidates:
                p = owner[c]
                k = key[c]
                s = slot_of.get(p)
                if s is None:
                    slot_of[p] = len(parts)
                    parts.append(p)
                    best_c.append(c)
                    best_k.append(k)
                    best_pos.append(pos)
                elif k < best_k[s]:
                    best_k[s] = k
                    best_c[s] = c
                    best_pos[s] = pos
                pos += 1
        fut = ranking.futility  # == raw_futility for key-ordered rankings
        best = best_c[0]
        bp = best_pos[0]
        if weights is None:
            bv = fut(best)
            for s in range(1, len(parts)):
                v = fut(best_c[s])
                if v > bv or (v == bv and best_pos[s] < bp):
                    bv = v
                    best = best_c[s]
                    bp = best_pos[s]
        else:
            bv = weights[parts[0]] * fut(best)
            for s in range(1, len(parts)):
                v = weights[parts[s]] * fut(best_c[s])
                if v > bv or (v == bv and best_pos[s] < bp):
                    bv = v
                    best = best_c[s]
                    bp = best_pos[s]
        return best
    # Generic ranking: one batch rank query, flat first-strict-max.
    futs = (ranking.raw_futilities(candidates) if raw
            else ranking.futilities(candidates))
    best = candidates[0]
    if weights is None:
        bv = futs[0]
        i = 1
        for c in candidates[1:]:
            v = futs[i]
            i += 1
            if v > bv:
                bv = v
                best = c
    else:
        bv = weights[owner[best]] * futs[0]
        i = 1
        for c in candidates[1:]:
            v = weights[owner[c]] * futs[i]
            i += 1
            if v > bv:
                bv = v
                best = c
    return best


def choose_pf(cache, candidates: Sequence[int]) -> int:
    """Fused Partitioning-First pass: Partition-Selection (most oversized
    candidate partition, first-strict-max in candidate order) and
    Victim-Identification (most futile candidate of that partition) in one
    scan.  The fusion is exact because partition overshoot is constant
    while a candidate list is scanned.
    """
    owner = cache.owner
    actual = cache.actual_sizes
    target = cache.targets
    ranking = cache.ranking
    if ranking.key_ordered:
        # Zero rank queries: the VI winner within a partition is decided by
        # raw keys alone, and PS never needs futility at all.
        key = ranking._key
        asc = ranking._ascending_futility
        slot_of = {}
        best_k: List = []
        best_c: List[int] = []
        best_over = None
        best_s = 0
        for c in candidates:
            p = owner[c]
            k = key[c]
            s = slot_of.get(p)
            if s is None:
                s = slot_of[p] = len(best_k)
                best_k.append(k)
                best_c.append(c)
                over = actual[p] - target[p]
                if best_over is None or over > best_over:
                    best_over = over
                    best_s = s
            elif (k > best_k[s]) if asc else (k < best_k[s]):
                best_k[s] = k
                best_c[s] = c
        return best_c[best_s]
    raws = ranking.raw_futilities(candidates)
    best_over = None
    best_part = -1
    for c in candidates:
        p = owner[c]
        over = actual[p] - target[p]
        if best_over is None or over > best_over:
            best_over = over
            best_part = p
    best = -1
    best_f = None
    i = 0
    for c in candidates:
        f = raws[i]
        i += 1
        if owner[c] != best_part:
            continue
        if best_f is None or f > best_f:
            best_f = f
            best = c
    return best


def max_raw_in(cache, candidates: Sequence[int], part: int) -> int:
    """Most raw-futile candidate owned by ``part``; ``-1`` when the
    partition has no line in the list (PriSM's abnormality probe)."""
    owner = cache.owner
    ranking = cache.ranking
    if ranking.key_ordered:
        key = ranking._key
        asc = ranking._ascending_futility
        best = -1
        bk = None
        for c in candidates:
            if owner[c] != part:
                continue
            k = key[c]
            if best < 0 or ((k > bk) if asc else (k < bk)):
                bk = k
                best = c
        return best
    raw = ranking.raw_futility
    best = -1
    best_f = None
    for c in candidates:
        if owner[c] != part:
            continue
        f = raw(c)
        if best_f is None or f > best_f:
            best_f = f
            best = c
    return best
