"""Futility ranking schemes (Section III-A of the paper).

The *futility* of a cache line measures how useless keeping the line would
be.  Within each partition, lines are strictly totally ordered by a ranking
scheme; a line ranked ``r``-th (1-based) in a partition of ``M`` lines has
normalized futility ``f = r / M``, ``f in (0, 1]`` — higher is more useless.

Rankings implemented:

* :class:`LRURanking` — rank by time of last access (exact recency order).
* :class:`LFURanking` — rank by access frequency (ties broken by recency).
* :class:`OPTRanking` — Belady's OPT [14]: rank by time to next reference,
  using future knowledge supplied with each access (``next_use``).
* :class:`CoarseTimestampLRURanking` — the practical 8-bit coarse-grain
  timestamp LRU of [17] used by the paper's feedback-based FS hardware
  design (Section V): each partition keeps an 8-bit current timestamp that
  increments every ``K = partition_size / 16`` accesses; a line's raw
  futility is the unsigned 8-bit distance from the current timestamp.
* :class:`RandomRanking` — control for tests and ablations.

Every ranking exposes two views:

* ``futility(idx)`` — normalized rank-based futility in ``(0, 1]``, the
  quantity the paper's analytical framework and associativity statistics are
  defined over (for the coarse-timestamp ranking this is the timestamp
  distance normalized by 255, an approximation).
* ``raw_futility(idx)`` — the scheme-facing magnitude the replacement
  hardware would compare (the 8-bit distance for coarse timestamps; equal to
  ``futility`` for the exact rankings).

Layout note (the access-kernel contract): the keyed exact rankings are
struct-of-arrays — a flat per-line key array plus one plain sorted key list
per partition — and advertise ``key_ordered = True``.  Within a partition,
normalized futility is strictly monotone in the key (direction given by
``_ascending_futility``), so the victim-selection kernels in
:mod:`repro.core.schemes.kernels` compare raw keys instead of issuing a
rank query (a bisect) per candidate, and batch the few rank queries that
remain via :meth:`FutilityRanking.futilities`.  The per-partition
``most_futile`` index (a key -> line dict) is maintained only once
:meth:`_KeyedRanking.ensure_index` has been called — the FullAssoc scheme
is its lone hot-path consumer, so everyone else skips two dict writes per
event.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left, insort
from typing import List, Optional, Sequence

from ..errors import ConfigurationError

__all__ = [
    "FutilityRanking",
    "LRURanking",
    "LFURanking",
    "OPTRanking",
    "CoarseTimestampLRURanking",
    "RandomRanking",
    "make_ranking",
    "TIMESTAMP_BITS",
    "TIMESTAMP_MOD",
]

TIMESTAMP_BITS = 8
TIMESTAMP_MOD = 1 << TIMESTAMP_BITS


class FutilityRanking:
    """Base class for per-partition futility rankings.

    Lifecycle: the owning cache calls :meth:`bind` once, then notifies the
    ranking of every insertion, hit, eviction and block move.  Rank queries
    are only valid for currently resident line indices.
    """

    #: Human-readable scheme name (used in experiment reports).
    name = "abstract"
    #: Whether ``futility`` returns the exact normalized rank.
    exact = False
    #: Whether accesses must carry Belady next-use information.
    needs_future = False
    #: Whether resident lines of one partition may be *compared* by their
    #: raw keys (``_key``/``_keys``/``_ascending_futility``), letting victim
    #: kernels avoid per-candidate rank queries.
    key_ordered = False

    def __init__(self) -> None:
        self._num_lines = 0
        self._num_partitions = 0

    def bind(self, num_lines: int, num_partitions: int) -> None:
        """Allocate per-line and per-partition state."""
        if num_lines <= 0 or num_partitions <= 0:
            raise ConfigurationError("num_lines and num_partitions must be positive")
        self._num_lines = num_lines
        self._num_partitions = num_partitions

    def set_targets(self, targets: Sequence[int]) -> None:
        """Notify the ranking of partition target sizes (coarse-TS uses this
        to derive its timestamp increment period)."""

    def partition_size(self, part: int) -> int:
        """Number of resident lines currently ranked in ``part``."""
        raise NotImplementedError

    # -- event hooks -------------------------------------------------------
    def on_insert(self, idx: int, part: int, *, next_use: Optional[int] = None) -> None:
        raise NotImplementedError

    def on_hit(self, idx: int, part: int, *, next_use: Optional[int] = None) -> None:
        raise NotImplementedError

    def on_evict(self, idx: int, part: int) -> None:
        raise NotImplementedError

    def on_move(self, src: int, dst: int) -> None:
        """A block (and its ranking state) moved between slots (zcache)."""
        raise NotImplementedError

    # -- queries -----------------------------------------------------------
    def futility(self, idx: int) -> float:
        """Normalized futility of resident line ``idx`` in ``(0, 1]``."""
        raise NotImplementedError

    def raw_futility(self, idx: int) -> float:
        """Scheme-facing futility magnitude (larger = more useless)."""
        return self.futility(idx)

    # -- batch queries (the victim kernels' entry points) ------------------
    def futilities(self, indices: Sequence[int]) -> List[float]:
        """``futility`` over many lines in one call (subclasses inline)."""
        futility = self.futility
        return [futility(i) for i in indices]

    def raw_futilities(self, indices: Sequence[int]) -> List[float]:
        """``raw_futility`` over many lines in one call."""
        raw = self.raw_futility
        return [raw(i) for i in indices]


class _KeyedRanking(FutilityRanking):
    """Shared machinery for rankings backed by per-partition sorted keys.

    Subclasses define how keys are produced; this class maintains the flat
    per-line key/partition arrays and one plain sorted list of keys per
    partition (``_keys[part]``).  ``_ascending_futility`` selects the rank
    direction: ``True`` means larger keys are more futile (OPT next-use
    times), ``False`` means smaller keys are more futile (LRU last-access
    times, LFU counts).
    """

    _ascending_futility = True
    key_ordered = True

    def bind(self, num_lines: int, num_partitions: int) -> None:
        super().bind(num_lines, num_partitions)
        self._key: List = [None] * num_lines
        self._part = array("i", [-1]) * num_lines
        self._keys: List[List] = [[] for _ in range(num_partitions)]
        # key -> line index per partition; built lazily by ensure_index()
        # because only most_futile() consumers (FullAssoc) need it.
        self._index_of: Optional[List[dict]] = None

    def partition_size(self, part: int) -> int:
        return len(self._keys[part])

    def ensure_index(self) -> None:
        """Build (and from then on maintain) the key -> line index used by
        :meth:`most_futile`.  Idempotent; callable at any point."""
        if self._index_of is not None:
            return
        index_of: List[dict] = [dict() for _ in range(self._num_partitions)]
        key = self._key
        part = self._part
        for idx in range(self._num_lines):
            p = part[idx]
            if p >= 0:
                index_of[p][key[idx]] = idx
        self._index_of = index_of

    def most_futile(self, part: int) -> int:
        """Line index of the most futile resident line in ``part``.

        Used by the FullAssoc ideal scheme; raises ``IndexError`` when the
        partition is empty.
        """
        if self._index_of is None:
            self.ensure_index()
        ks = self._keys[part]
        key = ks[-1] if self._ascending_futility else ks[0]
        return self._index_of[part][key]

    def _make_key(self, idx: int, part: int, next_use: Optional[int],
                  *, is_hit: bool):
        raise NotImplementedError

    def on_insert(self, idx: int, part: int, *, next_use: Optional[int] = None) -> None:
        key = self._make_key(idx, part, next_use, is_hit=False)
        self._key[idx] = key
        self._part[idx] = part
        ks = self._keys[part]
        if ks and key < ks[-1]:
            insort(ks, key)
        else:
            ks.append(key)
        if self._index_of is not None:
            self._index_of[part][key] = idx

    def on_hit(self, idx: int, part: int, *, next_use: Optional[int] = None) -> None:
        # The new key first: a _make_key that rejects its input must leave
        # the ranking untouched.
        key = self._make_key(idx, part, next_use, is_hit=True)
        ks = self._keys[part]
        old = self._key[idx]
        del ks[bisect_left(ks, old)]
        self._key[idx] = key
        if ks and key < ks[-1]:
            insort(ks, key)
        else:
            ks.append(key)
        if self._index_of is not None:
            index_of = self._index_of[part]
            del index_of[old]
            index_of[key] = idx

    def on_evict(self, idx: int, part: int) -> None:
        key = self._key[idx]
        ks = self._keys[part]
        del ks[bisect_left(ks, key)]
        if self._index_of is not None:
            del self._index_of[part][key]
        self._key[idx] = None
        self._part[idx] = -1

    def on_move(self, src: int, dst: int) -> None:
        key = self._key[src]
        part = self._part[src]
        self._key[dst] = key
        self._part[dst] = part
        if self._index_of is not None:
            self._index_of[part][key] = dst
        self._key[src] = None
        self._part[src] = -1

    def futility(self, idx: int) -> float:
        ks = self._keys[self._part[idx]]
        size = len(ks)
        rank = bisect_left(ks, self._key[idx])  # keys strictly smaller
        if self._ascending_futility:
            return (rank + 1) / size
        return (size - rank) / size

    def futilities(self, indices: Sequence[int]) -> List[float]:
        key = self._key
        part = self._part
        keys = self._keys
        asc = self._ascending_futility
        out: List[float] = []
        append = out.append
        for i in indices:
            ks = keys[part[i]]
            size = len(ks)
            rank = bisect_left(ks, key[i])
            append((rank + 1) / size if asc else (size - rank) / size)
        return out

    # Exact rankings: the raw magnitude *is* the normalized rank.
    def raw_futilities(self, indices: Sequence[int]) -> List[float]:
        return self.futilities(indices)


class LRURanking(_KeyedRanking):
    """Exact least-recently-used futility: oldest line has futility 1."""

    name = "lru"
    exact = True
    _ascending_futility = False  # smaller (older) access seq = more futile

    def bind(self, num_lines: int, num_partitions: int) -> None:
        super().bind(num_lines, num_partitions)
        self._seq = 0

    def _make_key(self, idx, part, next_use, *, is_hit):
        self._seq += 1
        return self._seq

    # Access-sequence keys are strictly increasing, so the sorted-position
    # search of the generic paths degenerates to an append; these overrides
    # keep the hottest ranking events free of _make_key dispatch too.
    def on_insert(self, idx: int, part: int, *, next_use: Optional[int] = None) -> None:
        key = self._seq + 1
        self._seq = key
        self._key[idx] = key
        self._part[idx] = part
        self._keys[part].append(key)
        if self._index_of is not None:
            self._index_of[part][key] = idx

    def on_hit(self, idx: int, part: int, *, next_use: Optional[int] = None) -> None:
        ks = self._keys[part]
        old = self._key[idx]
        del ks[bisect_left(ks, old)]
        key = self._seq + 1
        self._seq = key
        self._key[idx] = key
        ks.append(key)
        if self._index_of is not None:
            index_of = self._index_of[part]
            del index_of[old]
            index_of[key] = idx


class LFURanking(_KeyedRanking):
    """Exact least-frequently-used futility, recency-tie-broken.

    Keys are ``(access_count, last_access_seq)`` so the total order is
    strict; fewer accesses (and, at equal counts, older access) = more
    futile.
    """

    name = "lfu"
    exact = True
    _ascending_futility = False

    def bind(self, num_lines: int, num_partitions: int) -> None:
        super().bind(num_lines, num_partitions)
        self._seq = 0
        self._count: List[int] = [0] * num_lines

    def _make_key(self, idx, part, next_use, *, is_hit):
        self._seq += 1
        self._count[idx] = self._count[idx] + 1 if is_hit else 1
        return (self._count[idx], self._seq)

    def on_evict(self, idx: int, part: int) -> None:
        super().on_evict(idx, part)
        self._count[idx] = 0

    def on_move(self, src: int, dst: int) -> None:
        super().on_move(src, dst)
        self._count[dst] = self._count[src]
        self._count[src] = 0


class OPTRanking(_KeyedRanking):
    """Belady's OPT futility [14]: rank by time to next reference.

    Each access must supply ``next_use`` as an ``int`` — the (thread-local)
    position of the next reference to the same address, or any integer
    strictly larger than every finite position if the address is never
    referenced again.  Trace containers precompute this (see
    :func:`repro.trace.access.annotate_next_use`).

    A line's key is the integer ``next_use * num_lines + idx``.  Because
    ``0 <= idx < num_lines``, keys order exactly like ``(next_use, idx)``
    tuples, so every comparison, rank and victim is the tuple order's, at
    the cost of one integer compare.  ``None``, a float (``inf`` would
    swallow ``idx``; a large float would round it away) or any other
    non-``int`` raises :class:`~repro.errors.ConfigurationError` before the
    ranking changes.
    """

    name = "opt"
    exact = True
    needs_future = True
    _ascending_futility = True  # later next use = more futile

    @staticmethod
    def next_use_error(next_use) -> ConfigurationError:
        """The error for a ``next_use`` that is not an ``int`` (the
        compiled access kernel raises the same one)."""
        return ConfigurationError(
            f"OPTRanking requires an int next_use on every access, got "
            f"{next_use!r}; annotate the trace with next-use information "
            f"first")

    def _make_key(self, idx, part, next_use, *, is_hit):
        if type(next_use) is not int:
            raise self.next_use_error(next_use)
        # (next_use, idx) packed into one int: idx breaks ties, so keys
        # stay strict even if a caller reuses a sentinel next_use for many
        # never-referenced-again lines.
        return next_use * self._num_lines + idx


class RandomRanking(_KeyedRanking):
    """Uniformly random futility (control: associativity CDF is diagonal)."""

    name = "random"
    exact = True
    _ascending_futility = True

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self._rng = random.Random(seed)

    def _make_key(self, idx, part, next_use, *, is_hit):
        return (self._rng.random(), idx)


class CoarseTimestampLRURanking(FutilityRanking):
    """Coarse-grain 8-bit timestamp LRU [17] (the paper's hardware design).

    Per partition: an 8-bit ``current timestamp`` counter incremented once
    every ``K`` accesses to that partition, where ``K = max(1, target/16)``.
    Each resident line is tagged with its partition's current timestamp at
    insertion and on every hit.  The raw futility of a line is the unsigned
    8-bit distance ``(current - line_ts) mod 256`` — an O(1) operation, no
    rank structures needed (this is why the design is cheap: ~1.5% state
    overhead, Section V-B).

    ``futility`` (used only for *measurement*, never for the hardware
    decision path) returns the distance normalized by 255.

    Per-line state is a ``bytearray`` of timestamps plus a flat partition
    array — the modeled hardware's 8-bit tag store, laid out as such.
    """

    name = "coarse-ts-lru"
    exact = False

    def __init__(self, period_fraction: int = 16) -> None:
        super().__init__()
        if period_fraction <= 0:
            raise ConfigurationError("period_fraction must be positive")
        self.period_fraction = int(period_fraction)

    def bind(self, num_lines: int, num_partitions: int) -> None:
        super().bind(num_lines, num_partitions)
        self._ts = bytearray(num_lines)
        self._part = array("i", [-1]) * num_lines
        self._cur_ts: List[int] = [0] * num_partitions
        self._acc: List[int] = [0] * num_partitions
        self._period: List[int] = [1] * num_partitions
        self._sizes: List[int] = [0] * num_partitions

    def set_targets(self, targets: Sequence[int]) -> None:
        if len(targets) != self._num_partitions:
            raise ConfigurationError(
                f"expected {self._num_partitions} targets, got {len(targets)}")
        self._period = [max(1, int(t) // self.period_fraction) for t in targets]

    def partition_size(self, part: int) -> int:
        return self._sizes[part]

    def current_timestamp(self, part: int) -> int:
        return self._cur_ts[part]

    def _tick(self, part: int) -> None:
        acc = self._acc[part] + 1
        if acc >= self._period[part]:
            self._acc[part] = 0
            self._cur_ts[part] = (self._cur_ts[part] + 1) % TIMESTAMP_MOD
        else:
            self._acc[part] = acc

    def on_insert(self, idx: int, part: int, *, next_use: Optional[int] = None) -> None:
        self._tick(part)
        self._ts[idx] = self._cur_ts[part]
        self._part[idx] = part
        self._sizes[part] += 1

    def on_hit(self, idx: int, part: int, *, next_use: Optional[int] = None) -> None:
        self._tick(part)
        self._ts[idx] = self._cur_ts[part]

    def on_evict(self, idx: int, part: int) -> None:
        self._sizes[part] -= 1
        self._part[idx] = -1

    def on_move(self, src: int, dst: int) -> None:
        self._ts[dst] = self._ts[src]
        self._part[dst] = self._part[src]
        self._part[src] = -1

    def raw_futility(self, idx: int) -> int:
        part = self._part[idx]
        return (self._cur_ts[part] - self._ts[idx]) % TIMESTAMP_MOD

    def futility(self, idx: int) -> float:
        return self.raw_futility(idx) / (TIMESTAMP_MOD - 1)

    def raw_futilities(self, indices: Sequence[int]) -> List[int]:
        ts = self._ts
        part = self._part
        cur = self._cur_ts
        return [(cur[part[i]] - ts[i]) % TIMESTAMP_MOD for i in indices]

    def futilities(self, indices: Sequence[int]) -> List[float]:
        scale = TIMESTAMP_MOD - 1
        return [raw / scale for raw in self.raw_futilities(indices)]


_RANKING_KINDS = {
    "lru": LRURanking,
    "lfu": LFURanking,
    "opt": OPTRanking,
    "coarse-ts-lru": CoarseTimestampLRURanking,
    "random": RandomRanking,
}


def make_ranking(kind: str, **kwargs) -> FutilityRanking:
    """Construct a futility ranking by name."""
    try:
        cls = _RANKING_KINDS[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown ranking kind {kind!r}; expected one of {sorted(_RANKING_KINDS)}")
    return cls(**kwargs)
