"""Cache array organizations.

The paper's cache model (Section III-A) separates three concerns: the
*cache array* (associative lookup + a list of replacement candidates per
eviction), the *futility ranking*, and the *replacement policy*.  This
module implements the arrays:

* :class:`SetAssociativeArray` — the evaluated L2 (16-way, XOR indexing).
* :class:`DirectMappedArray` — 1-way special case (Fig. 6 baseline).
* :class:`FullyAssociativeArray` — every line is a candidate (Fig. 6 and the
  FullAssoc ideal scheme).
* :class:`RandomCandidatesArray` — R independent uniform candidates; the
  array that *exactly* satisfies the Uniformity Assumption and is used for
  the paper's analytical-property experiments (Figs. 4 and 5).
* :class:`SkewAssociativeArray` — one hash per way [18].
* :class:`ZCacheArray` — zcache [17]: a candidate walk over alternative
  locations plus block relocation on insert, giving R > W candidates with
  only W ways.

All arrays store *line addresses* (ints) in a shared struct-of-arrays
:class:`~repro.cache.linetable.LineTable`; the owning
:class:`~repro.cache.cache.PartitionedCache` adopts the *same* table for
its per-line metadata (owner partition, dirty bits), so there is exactly
one record of per-line state.  Arrays that relocate resident blocks report
the moves so the cache can keep metadata consistent.

A ``place`` call returns the list of ``(src_idx, dst_idx)`` relocations it
performed (empty for all arrays except the zcache).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ._util_arrays import check_geometry
from .hashing import H3Hash, IndexHash, make_hash
from .linetable import INVALID, LineTable

__all__ = [
    "CacheArray",
    "SetAssociativeArray",
    "DirectMappedArray",
    "FullyAssociativeArray",
    "RandomCandidatesArray",
    "SkewAssociativeArray",
    "ZCacheArray",
]


class CacheArray:
    """Base class: associative lookup plus replacement-candidate generation.

    Subclasses must set ``num_lines`` and ``candidate_count`` (the nominal
    number of replacement candidates R provided on an eviction).  Per-line
    state lives in :attr:`lines`, a :class:`LineTable`; ``_slots`` and
    ``_where`` are aliases of its ``tag`` array and ``where`` map.
    """

    def __init__(self, num_lines: int, candidate_count: int) -> None:
        if num_lines <= 0:
            raise ConfigurationError(f"num_lines must be positive, got {num_lines}")
        if candidate_count <= 0:
            raise ConfigurationError(
                f"candidate_count must be positive, got {candidate_count}")
        self.num_lines = int(num_lines)
        self.candidate_count = int(candidate_count)
        #: Struct-of-arrays per-line metadata, shared with the owning cache.
        self.lines = LineTable(self.num_lines)
        self._slots = self.lines.tag
        self._where = self.lines.where

    # -- lookup ----------------------------------------------------------
    def lookup(self, addr: int) -> Optional[int]:
        """Return the line index holding ``addr``, or ``None`` on a miss."""
        return self._where.get(addr)

    def addr_at(self, idx: int) -> int:
        """Resident address at ``idx`` (``INVALID`` if the slot is empty)."""
        return self._slots[idx]

    def resident_count(self) -> int:
        """Number of valid (occupied) lines."""
        return len(self._where)

    # -- replacement -----------------------------------------------------
    def candidates(self, addr: int) -> Sequence[int]:
        """Replacement candidate line indices for an insertion of ``addr``."""
        raise NotImplementedError

    def evict(self, idx: int) -> int:
        """Invalidate the line at ``idx``; returns the evicted address."""
        old = self._slots[idx]
        if old != INVALID:
            del self._where[old]
            self._slots[idx] = INVALID
        return old

    def place(self, addr: int, idx: int) -> List[Tuple[int, int]]:
        """Install ``addr`` at the (empty) slot ``idx``.

        Returns the block relocations performed, as ``(src, dst)`` line-index
        pairs, in the order they were applied.  Non-relocating arrays return
        an empty list.
        """
        if self._slots[idx] != INVALID:
            raise ConfigurationError(
                f"place() target slot {idx} is occupied; evict first")
        self._slots[idx] = addr
        self._where[addr] = idx
        return []


class SetAssociativeArray(CacheArray):
    """A ``ways``-way set-associative array.

    Candidates on an eviction are the ``ways`` lines of the indexed set, so
    R = ways.  The index hash defaults to XOR-based indexing as in the
    paper's simulated L2 (Table II); pass ``hash_kind='h3'`` or
    ``'identity'`` for the ablations.
    """

    def __init__(self, num_lines: int, ways: int, *,
                 hash_kind: str = "xor", hash_seed: int = 0) -> None:
        num_sets = check_geometry(num_lines, ways)
        super().__init__(num_lines, candidate_count=ways)
        self.ways = int(ways)
        self.num_sets = num_sets
        self._hash: IndexHash = make_hash(hash_kind, num_sets, seed=hash_seed)

    def set_of(self, addr: int) -> int:
        """Set index ``addr`` maps to."""
        return self._hash(addr)

    def candidates(self, addr: int) -> Sequence[int]:
        # A range object: candidate lists are consumed by index-array
        # kernels that only iterate, so there is no reason to materialize.
        base = self._hash(addr) * self.ways
        return range(base, base + self.ways)


class DirectMappedArray(SetAssociativeArray):
    """A direct-mapped array: one candidate per eviction (worst case)."""

    def __init__(self, num_lines: int, *, hash_kind: str = "xor",
                 hash_seed: int = 0) -> None:
        super().__init__(num_lines, ways=1, hash_kind=hash_kind,
                         hash_seed=hash_seed)


class FullyAssociativeArray(CacheArray):
    """Every resident line is a replacement candidate (R = num_lines).

    ``candidates`` is O(num_lines); schemes designed for this array (the
    FullAssoc ideal) pick victims from their own per-partition order
    statistics instead of scanning.
    """

    def __init__(self, num_lines: int) -> None:
        super().__init__(num_lines, candidate_count=num_lines)
        self._free: List[int] = list(range(num_lines - 1, -1, -1))

    def free_slot(self) -> Optional[int]:
        """An arbitrary empty slot, or ``None`` when the array is full."""
        return self._free[-1] if self._free else None

    def candidates(self, addr: int) -> List[int]:
        if self._free:
            return [self._free[-1]]
        return list(range(self.num_lines))

    def evict(self, idx: int) -> int:
        old = super().evict(idx)
        if old != INVALID:
            self._free.append(idx)
        return old

    def place(self, addr: int, idx: int) -> List[Tuple[int, int]]:
        moves = super().place(addr, idx)
        if self._free and self._free[-1] == idx:
            self._free.pop()
        elif idx in self._free:          # pragma: no cover - defensive
            self._free.remove(idx)
        return moves


class RandomCandidatesArray(CacheArray):
    """R candidates drawn independently and uniformly over all lines.

    This array realizes the paper's Uniformity Assumption *exactly* and is
    what Section IV's experiments run on ("a 2MB random candidates cache").
    Any line may hold any address.

    ``candidates`` returns the first R distinct values of
    ``randrange(num_lines)`` drawn from ``random.Random(seed)``, each call
    continuing the stream where the last one stopped.  ``randrange(n)``
    takes the top ``n.bit_length()`` bits of one Mersenne Twister word per
    try and rejects tries ``>= n``; one ``getrandbits(32 * B)`` call
    returns the next B words, lowest first.  So the array draws the words
    in blocks, shifts and filters them at once, and buffers the accepted
    values: the same stream, without a Python call per draw
    (``tests/cache/test_arrays.py`` pins it against ``randrange``).  The
    compiled access kernel takes the buffer's fast path inline and calls
    ``candidates`` only for a repeat or a refill.
    """

    #: Mersenne Twister words per buffer refill (16 KiB): at 4096 lines and
    #: R = 16, one refill serves about 128 calls.
    BLOCK_WORDS = 4096

    def __init__(self, num_lines: int, candidate_count: int, *,
                 seed: int = 0) -> None:
        if num_lines >= 1 << 32:
            raise ConfigurationError(
                f"num_lines {num_lines} needs more than one 32-bit random "
                f"word per draw (at most 2**32 - 1 lines)")
        if candidate_count > num_lines:
            raise ConfigurationError(
                f"candidate_count {candidate_count} exceeds num_lines {num_lines}")
        super().__init__(num_lines, candidate_count)
        self._rng = random.Random(seed)
        self._shift = 32 - self.num_lines.bit_length()
        #: Accepted draws; ``_buf[_pos:]`` are not yet handed out.
        self._buf: List[int] = []
        self._pos = 0

    def _refill(self) -> List[int]:
        """Replace the (used-up) buffer with one block's accepted draws."""
        words = self._rng.getrandbits(32 * self.BLOCK_WORDS).to_bytes(
            4 * self.BLOCK_WORDS, "little")
        drawn = np.frombuffer(words, "<u4") >> self._shift
        self._buf = drawn[drawn < self.num_lines].tolist()
        return self._buf

    def candidates(self, addr: int) -> List[int]:
        want = self.candidate_count
        buf = self._buf
        pos = self._pos
        end = pos + want
        if end <= len(buf):
            picked = buf[pos:end]
            if len(set(picked)) == want:
                self._pos = end
                return picked
        # A repeat among the next R draws, or too few buffered: dedup in
        # stream order, refilling when the buffer runs out.
        picked = []
        seen: set = set()
        while len(picked) < want:
            if pos == len(buf):
                buf = self._refill()
                pos = 0
            idx = buf[pos]
            pos += 1
            if idx not in seen:
                seen.add(idx)
                picked.append(idx)
        self._pos = pos
        return picked


class SkewAssociativeArray(CacheArray):
    """Skew-associative cache [18]: one H3 hash per way, R = ways."""

    def __init__(self, num_lines: int, ways: int, *, hash_seed: int = 0) -> None:
        num_sets = check_geometry(num_lines, ways)
        super().__init__(num_lines, candidate_count=ways)
        self.ways = int(ways)
        self.num_sets = num_sets
        self._hashes = [H3Hash(num_sets, seed=hash_seed + 7919 * w)
                        for w in range(ways)]

    def _slot_for(self, addr: int, way: int) -> int:
        return way * self.num_sets + self._hashes[way](addr)

    def candidates(self, addr: int) -> List[int]:
        return [self._slot_for(addr, w) for w in range(self.ways)]


class ZCacheArray(CacheArray):
    """zcache [17]: W ways but R > W replacement candidates via a walk.

    On a miss the first-level candidates are the W slots ``addr`` hashes to.
    Each resident candidate block can itself move to its W-1 alternative
    slots; walking this relocation graph breadth-first yields further
    candidates until ``candidate_count`` slots have been collected.  When a
    victim deeper than the first level is chosen, the blocks along the path
    from the victim back to a first-level slot are relocated so the incoming
    address lands at a slot it hashes to.

    ``place`` reports those relocations so the owning cache can move per-line
    metadata along with the blocks.
    """

    def __init__(self, num_lines: int, ways: int, candidate_count: int, *,
                 hash_seed: int = 0) -> None:
        num_sets = check_geometry(num_lines, ways)
        if candidate_count < ways:
            raise ConfigurationError(
                f"candidate_count {candidate_count} must be >= ways {ways}")
        super().__init__(num_lines, candidate_count)
        self.ways = int(ways)
        self.num_sets = num_sets
        self._hashes = [H3Hash(num_sets, seed=hash_seed + 104729 * w)
                        for w in range(ways)]
        # Walk state from the most recent candidates() call, consumed by the
        # next place() for the same address.
        self._walk_parent: Dict[int, int] = {}
        self._walk_addr: Optional[int] = None

    def _slot_for(self, addr: int, way: int) -> int:
        return way * self.num_sets + self._hashes[way](addr)

    def _slots_for(self, addr: int) -> List[int]:
        return [self._slot_for(addr, w) for w in range(self.ways)]

    def candidates(self, addr: int) -> List[int]:
        parent: Dict[int, int] = {}
        frontier: List[int] = []
        ordered: List[int] = []
        for slot in self._slots_for(addr):
            if slot not in parent:
                parent[slot] = -1  # first level: reachable by the new address
                frontier.append(slot)
                ordered.append(slot)
        i = 0
        while i < len(frontier) and len(ordered) < self.candidate_count:
            slot = frontier[i]
            i += 1
            resident = self._slots[slot]
            if resident == INVALID:
                continue
            for alt in self._slots_for(resident):
                if alt not in parent:
                    parent[alt] = slot
                    frontier.append(alt)
                    ordered.append(alt)
                    if len(ordered) >= self.candidate_count:
                        break
        self._walk_parent = parent
        self._walk_addr = addr
        return ordered

    def place(self, addr: int, idx: int) -> List[Tuple[int, int]]:
        if self._walk_addr != addr or idx not in self._walk_parent:
            # Direct placement without a walk (e.g. warm-up fills): only legal
            # in a first-level slot.
            if idx not in self._slots_for(addr):
                raise ConfigurationError(
                    f"slot {idx} is not reachable for address {addr}")
            return super().place(addr, idx)
        moves: List[Tuple[int, int]] = []
        slot = idx
        while self._walk_parent[slot] != -1:
            src = self._walk_parent[slot]
            moving = self._slots[src]
            # Relocate the parent block down into the freed slot.
            self._slots[slot] = moving
            self._where[moving] = slot
            self._slots[src] = INVALID
            moves.append((src, slot))
            slot = src
        self._slots[slot] = addr
        self._where[addr] = slot
        self._walk_parent = {}
        self._walk_addr = None
        return moves
