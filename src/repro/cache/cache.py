"""The partitioned cache engine.

:class:`PartitionedCache` composes the paper's three cache-model components
(Section III-A): a *cache array* (candidate generation), a *futility
ranking* (per-partition uselessness order) and a *replacement policy* (a
partitioning scheme choosing victims).  It owns all per-line metadata
(owner partition, dirty bits — stored in the array's shared
:class:`~repro.cache.linetable.LineTable`) and per-partition occupancy
accounting.

Measurement note: associativity statistics (eviction futility, AEF) are
always recorded as **normalized rank futility** so they are comparable
across schemes, exactly like the paper's associativity distributions.  When
the decision ranking is approximate (coarse-grain timestamp LRU) a parallel
*reference ranking* (exact LRU by default) is maintained purely for
measurement; with an exact decision ranking the same object serves both
roles at no extra cost.

Layering (see DESIGN.md): the access path is a *compiled kernel* — a
closure built by :meth:`PartitionedCache._build_access` that captures the
LineTable buffers, the ranking's event hooks, the scheme's victim chooser
and the current event-handler tuples as locals.  Everything that merely
*measures* the cache (statistics, the reference ranking, experiment
probes) subscribes to the typed :class:`~repro.cache.events.CacheEventBus`
instead of being hard-wired into that kernel, so a run with measurement
disabled iterates empty handler tuples and pays nothing else.  The kernel
is rebuilt whenever the subscription set changes.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Iterable, List, Optional, Sequence

from ..core.futility import (
    TIMESTAMP_MOD,
    CoarseTimestampLRURanking,
    FutilityRanking,
    LRURanking,
    OPTRanking,
)
from ..core.schemes.base import PartitioningScheme
from ..core.schemes.full_assoc import FullAssocScheme
from ..core.schemes.futility_scaling import (FeedbackFutilityScalingScheme,
                                             FutilityScalingScheme)
from ..core.schemes.partitioning_first import PartitioningFirstScheme
from ..core.schemes.unpartitioned import UnpartitionedScheme
from ..errors import ConfigurationError
from .arrays import (INVALID, CacheArray, FullyAssociativeArray,
                     RandomCandidatesArray, SetAssociativeArray)
from .events import CacheEventBus, CacheObserver
from .hashing import XorFoldHash
from .stats import CacheStats

__all__ = ["PartitionedCache", "RankingObserver"]

#: Keyed rankings whose hook bodies, reference-futility bisect and
#: FullAssoc victim the kernel generator emits inline (exact types only).
_KEYED_INLINE = (LRURanking, OPTRanking)

#: Schemes whose victim scan over a keyed ranking is emitted inline (exact
#: types only), mapped to the scheme attribute holding the per-partition
#: weights: ``""`` for an unweighted scan, ``None`` for PF's fused PS+VI.
_SCAN_INLINE = {
    FutilityScalingScheme: "_alphas",
    FeedbackFutilityScalingScheme: "_weights",
    UnpartitionedScheme: "",
    PartitioningFirstScheme: None,
}


class RankingObserver(CacheObserver):
    """Drives a measurement-only (reference) ranking from cache events.

    The wrapped ranking sees exactly the insert/hit/evict/move stream the
    decision ranking sees, but from the event bus — unsubscribing it turns
    reference maintenance off without touching the access kernel.
    """

    def __init__(self, ranking: FutilityRanking) -> None:
        self.ranking = ranking

    def on_cache_hit(self, idx: int, part: int,
                     next_use: Optional[int]) -> None:
        self.ranking.on_hit(idx, part, next_use=next_use)

    def on_cache_insert(self, idx: int, part: int, next_use: Optional[int],
                        evicted: bool) -> None:
        self.ranking.on_insert(idx, part, next_use=next_use)

    def on_cache_evict(self, idx: int, part: int,
                       futility: Optional[float], dirty: int) -> None:
        self.ranking.on_evict(idx, part)

    def on_cache_relocate(self, src: int, dst: int) -> None:
        self.ranking.on_move(src, dst)

    def on_cache_flush(self, idx: int, part: int, dirty: int) -> None:
        self.ranking.on_evict(idx, part)


class PartitionedCache:
    """A shared cache partitioned by a replacement-based scheme.

    Parameters
    ----------
    array:
        The cache array organization (candidate provider).
    ranking:
        The futility ranking used for replacement decisions.
    scheme:
        The partitioning scheme (victim selection policy).
    num_partitions:
        Number of partitions (each thread typically gets one).  Partitions
        must not share addresses: an access that hits a line another
        partition owns raises :class:`~repro.errors.ConfigurationError`
        and leaves the cache unchanged.
    targets:
        Per-partition target sizes in lines.  Defaults to an equal split of
        the whole cache.  May be changed at any time via
        :meth:`set_targets` — replacement-based schemes resize smoothly.
    track_eviction_futility, deviation_partitions, occupancy_sample_period:
        Statistics configuration, see :class:`~repro.cache.stats.CacheStats`.
        With ``track_eviction_futility`` and an approximate ``ranking``,
        an exact LRU reference ranking is maintained for eviction-futility
        measurement.  :attr:`stats` always subscribes to the event bus.
    """

    def __init__(self, array: CacheArray, ranking: FutilityRanking,
                 scheme: PartitioningScheme, num_partitions: int, *,
                 targets: Optional[Sequence[int]] = None,
                 track_eviction_futility: bool = True,
                 deviation_partitions: Iterable[int] = (),
                 occupancy_sample_period: int = 64) -> None:
        if num_partitions <= 0:
            raise ConfigurationError("num_partitions must be positive")
        self._ready = False
        self.array = array
        self.ranking = ranking
        self.scheme = scheme
        self.num_partitions = int(num_partitions)
        self.num_lines = array.num_lines
        #: Shared struct-of-arrays per-line metadata (owned by the array).
        self.lines = array.lines
        self.owner = self.lines.owner
        self._dirty = self.lines.dirty
        self.actual_sizes: List[int] = [0] * self.num_partitions
        self.targets: List[int] = [0] * self.num_partitions
        self._resident = 0
        #: True when the most recent replacement evicted a dirty line (the
        #: timing engine reads this to charge writeback bandwidth).
        self.writeback_pending = False
        #: Typed event bus; subscription changes rebuild the access kernel.
        self.events = CacheEventBus(on_change=self._rebuild_kernel)

        ranking.bind(self.num_lines, self.num_partitions)
        if ranking.exact or not track_eviction_futility:
            self.reference: Optional[FutilityRanking] = (
                ranking if ranking.exact else None)
        else:
            self.reference = LRURanking()
        self._separate_reference = (self.reference is not None
                                    and self.reference is not ranking)
        if self._separate_reference:
            self.reference.bind(self.num_lines, self.num_partitions)
            self.events.subscribe(RankingObserver(self.reference))

        self.stats = CacheStats(
            self.num_partitions,
            track_eviction_futility=track_eviction_futility
            and self.reference is not None,
            deviation_partitions=deviation_partitions,
            occupancy_sample_period=occupancy_sample_period)
        self.stats.attach(self)
        self.events.subscribe(self.stats)

        scheme.bind(self)
        if not scheme.uses_candidates and not hasattr(array, "free_slot"):
            raise ConfigurationError(
                f"scheme {scheme.name!r} needs an array with free_slot() "
                f"(use FullyAssociativeArray)")

        if targets is None:
            base, extra = divmod(self.num_lines, self.num_partitions)
            targets = [base + (1 if p < extra else 0)
                       for p in range(self.num_partitions)]
        self.set_targets(targets)
        self._ready = True
        self._rebuild_kernel()

    # -- configuration -------------------------------------------------------
    def set_targets(self, targets: Sequence[int]) -> None:
        """Set per-partition target sizes (in lines); resizing is smooth."""
        targets = [int(t) for t in targets]
        if len(targets) != self.num_partitions:
            raise ConfigurationError(
                f"expected {self.num_partitions} targets, got {len(targets)}")
        for p, t in enumerate(targets):
            if t < 0:
                raise ConfigurationError(f"targets[{p}] must be >= 0, got {t}")
        if sum(targets) > self.num_lines:
            raise ConfigurationError(
                f"targets sum to {sum(targets)} > {self.num_lines} lines")
        self.targets = targets
        self.ranking.set_targets(targets)
        if self._separate_reference:
            self.reference.set_targets(targets)
        self.scheme.set_targets(targets)
        # Rankings may swap internal buffers on retarget (coarse-TS rebuilds
        # its period table); recompile so the kernel sees the new ones.
        self._rebuild_kernel()

    def reset_stats(self) -> None:
        """Clear statistics (e.g. after cache warm-up)."""
        self.stats.reset()

    # -- queries --------------------------------------------------------------
    def occupancy(self, part: int) -> int:
        """Current number of valid lines owned by ``part``."""
        return self.actual_sizes[part]

    def contains(self, addr: int) -> bool:
        """Whether ``addr`` is currently resident."""
        return self.array.lookup(addr) is not None

    def is_full(self) -> bool:
        """True when every slot is occupied (schemes use this to skip the
        free-slot scan on the hot path)."""
        return self._resident == self.num_lines

    # -- the access path -------------------------------------------------------
    def _rebuild_kernel(self) -> None:
        """(Re)compile the access closure; called on observer changes."""
        if not self._ready:
            return
        self.access = self._build_access()

    def _build_access(self):
        """Compile ``access(addr, part, next_use=None, *, is_write=False)``.

        Returns ``True`` on a hit.  ``next_use`` carries Belady future
        knowledge for OPT rankings (the thread-local position of the next
        reference to ``addr``); ``is_write`` marks the line dirty, and
        evicting a dirty line raises :attr:`writeback_pending` for the
        timing engine's bandwidth accounting.

        The kernel is *generated source*, specialized to this cache's exact
        configuration and compiled once: the LineTable buffers, ranking
        hooks, the scheme's victim chooser and the event-handler tuples are
        bound as globals of the generated function, and any segment that
        cannot apply (no reference ranking, statistics unsubscribed, no
        deviation tracking, non-relocating array, candidate generation for
        a set-associative geometry, ...) is simply not emitted.  The two
        well-known observers — the cache's own
        :class:`~repro.cache.stats.CacheStats` and the reference-ranking
        :class:`RankingObserver` — are recognized and inlined as straight
        counter/hook code; any other observer dispatches through the
        per-event handler tuples as before.  The generated source is kept
        on the kernel as ``access.__kernel_source__`` for inspection.

        Event ordering contract (unchanged from the dispatching kernel):
        ``miss`` fires before victim selection (observers see pre-eviction
        occupancies), ``evict`` fires after the victim is removed (with the
        reference futility computed *before* any mutation), ``insert``
        fires last with an ``evicted`` flag.  Inlined observers fire where
        their dispatched handlers used to, i.e. before dynamically
        dispatched ones.
        """
        array_obj = self.array
        ranking = self.ranking
        reference = self.reference
        scheme = self.scheme
        stats = self.stats
        events = self.events
        base = PartitioningScheme
        stype = type(scheme)

        # The paper's headline configuration — feedback FS over 8-bit coarse
        # timestamps with the default power-of-two changing ratio — gets its
        # victim scan and Algorithm-2 interval counters inlined too: the
        # scaled futility is a masked subtract and a left shift, so going
        # through choose_victim/on_insert/on_evict calls per miss is pure
        # dispatch overhead.
        fb_inline = (stype is FeedbackFutilityScalingScheme
                     and type(ranking) is CoarseTimestampLRURanking
                     and TIMESTAMP_MOD == 256
                     and getattr(scheme, "_shift_scan", False)
                     and getattr(scheme, "_coarse_ranking", None) is ranking)
        # Exact FS, feedback FS, the unpartitioned baseline and PF over an
        # exact keyed ranking get the grouped raw-key scan of
        # kernels.choose_scaled / choose_pf inlined (see scan_lines).
        keyed_scan = type(ranking) in _KEYED_INLINE and stype in _SCAN_INLINE

        # Recognize the observers the compiler knows how to inline.  The
        # telemetry recorder is imported lazily: repro.obs is never pulled
        # in unless a recorder is actually subscribed somewhere.
        import sys
        ts_cls = None
        obs_mod = sys.modules.get("repro.obs.timeseries")
        if obs_mod is not None:
            ts_cls = obs_mod.TimeSeriesRecorder
        fast_stats = None
        ref_obs = None
        ts_obs = None
        for obs in events.observers():
            if obs is stats and type(obs) is CacheStats:
                fast_stats = obs
            elif type(obs) is RankingObserver and obs.ranking is reference:
                ref_obs = obs
            elif (ts_cls is not None and type(obs) is ts_cls
                  and obs._cache is self):
                ts_obs = obs
        exclude = tuple(o for o in (fast_stats, ref_obs, ts_obs)
                        if o is not None)
        handlers = {event: events.handlers(event, exclude)
                    for event in ("hit", "miss", "evict", "insert", "relocate")}

        # Arrays that neither relocate blocks nor keep private slot state
        # get their evict/place bodies inlined.
        simple = (type(array_obj).evict is CacheArray.evict
                  and type(array_obj).place is CacheArray.place)
        # The fully-associative array's extra state is one free list; its
        # evict/place bodies are a handful of list operations, so they
        # inline just as well.
        fa_inline = type(array_obj) is FullyAssociativeArray

        ns = {
            "ConfigurationError": ConfigurationError,
            "where": self.lines.where,
            "where_get": self.lines.where.get,
            "tag": self.lines.tag,
            "owner": self.owner,
            "dirty": self._dirty,
            "actual": self.actual_sizes,
            "cache": self,
            "num_partitions": self.num_partitions,
            "r_hit": ranking.on_hit,
            "r_ins": ranking.on_insert,
            "r_evi": ranking.on_evict,
            "r_move": ranking.on_move,
            "choose": scheme.choose_victim,
            "a_evict": array_obj.evict,
            "a_place": array_obj.place,
            "hit_handlers": handlers["hit"],
            "miss_handlers": handlers["miss"],
            "evict_handlers": handlers["evict"],
            "insert_handlers": handlers["insert"],
            "relocate_handlers": handlers["relocate"],
        }
        if fa_inline:
            ns["a_free"] = array_obj._free
        if stype.on_insert is not base.on_insert:
            ns["s_ins"] = scheme.on_insert
        if stype.on_evict is not base.on_evict:
            ns["s_evi"] = scheme.on_evict
        if stype.on_move is not base.on_move:
            ns["s_move"] = scheme.on_move
        if ref_obs is not None:
            ns["ref_hit"] = reference.on_hit
            ns["ref_ins"] = reference.on_insert
            ns["ref_evi"] = reference.on_evict
            ns["ref_move"] = reference.on_move
        if fast_stats is not None:
            ns["st"] = fast_stats
            ns["st_period"] = fast_stats.occupancy_sample_period
        if ts_obs is not None:
            ns["ts"] = ts_obs
            ns["ts_interval"] = ts_obs.interval
            ns["ts_acc"] = ts_obs._win_acc
            ns["ts_miss"] = ts_obs._win_miss
            ns["ts_ins"] = ts_obs._win_ins
            ns["ts_evi"] = ts_obs._win_evi
            ns["ts_sample"] = ts_obs._sample

        def indent(ind, lines):
            return [ind + line for line in lines]

        def keyed_hook_lines(rk, prefix):
            # Inline the hook bodies of the exact keyed rankings
            # (_KEYED_INLINE): a bisect-delete of the old key plus an
            # ordered add of the new one (`_sq`).  LRU's access-sequence
            # keys strictly increase, so its add is an append; OPT's key
            # is next_use * num_lines + slot (see OPTRanking), appended
            # when it is the largest and insorted otherwise.  When
            # ensure_index() has materialized the most_futile index
            # (FullAssoc consumers), the inline bodies mirror the methods'
            # index upkeep — two dict operations — instead of falling back
            # to a bound-method call.
            ns[prefix] = rk
            ns[prefix + "_key"] = rk._key
            ns[prefix + "_keys"] = rk._keys
            ns[prefix + "_part"] = rk._part
            ns.setdefault("bisect_left", bisect_left)
            key, keys, part_arr = (prefix + "_key", prefix + "_keys",
                                   prefix + "_part")
            if type(rk) is LRURanking:
                def new_key(slot):
                    return ["_sq = %s._seq + 1" % prefix,
                            "%s._seq = _sq" % prefix]

                def add(ks):
                    return ["%s.append(_sq)" % ks]
            else:
                ns.setdefault("insort", insort)
                ns["num_lines"] = self.num_lines

                def new_key(slot):
                    return ["_sq = next_use * num_lines + %s" % slot]

                def add(ks):
                    return ([] if ks == "_ks" else ["_ks = %s" % ks]) + [
                        "if _ks and _sq < _ks[-1]:",
                        "    insort(_ks, _sq)",
                        "else:",
                        "    _ks.append(_sq)",
                    ]

            def evict(ranked):
                return ([] if ranked else ["_ks = %s[vpart]" % keys]) + [
                    "_old = %s[victim]" % key,
                    "del _ks[%s]" % ("_vr" if ranked
                                     else "bisect_left(_ks, _old)"),
                    "_io = %s._index_of" % prefix,
                    "if _io is not None:",
                    "    del _io[vpart][_old]",
                    "%s[victim] = None" % key,
                    "%s[victim] = -1" % part_arr,
                ]

            return {
                "hit": [
                    "_ks = %s[part]" % keys,
                    "_old = %s[idx]" % key,
                    "del _ks[bisect_left(_ks, _old)]",
                ] + new_key("idx") + [
                    "%s[idx] = _sq" % key,
                ] + add("_ks") + [
                    "_io = %s._index_of" % prefix,
                    "if _io is not None:",
                    "    _io = _io[part]",
                    "    del _io[_old]",
                    "    _io[_sq] = idx",
                ],
                "insert": new_key("new_idx") + [
                    "%s[new_idx] = _sq" % key,
                    "%s[new_idx] = part" % part_arr,
                ] + add("%s[part]" % keys) + [
                    "_io = %s._index_of" % prefix,
                    "if _io is not None:",
                    "    _io[part][_sq] = new_idx",
                ],
                "evict": evict(ranked=False),
                # The same, with _ks and the victim's rank _vr already
                # known (the inline victim scan).
                "evict_at_rank": evict(ranked=True),
                "move": [
                    "_k = %s[src]" % key,
                    "_pt = %s[src]" % part_arr,
                    "%s[dst] = _k" % key,
                    "%s[dst] = _pt" % part_arr,
                    "_io = %s._index_of" % prefix,
                    "if _io is not None:",
                    "    _io[_pt][_k] = dst",
                    "%s[src] = None" % key,
                    "%s[src] = -1" % part_arr,
                ],
            }

        def coarse_hook_lines(rk, prefix):
            # Inline CoarseTimestampLRURanking's hooks: the tick counter,
            # the 8-bit timestamp stamp and the size accounting are all
            # plain array writes.  (`& 255` == `% TIMESTAMP_MOD`, asserted
            # by the TIMESTAMP_MOD == 256 gate at the call site.)
            ns[prefix + "_ts"] = rk._ts
            ns[prefix + "_part"] = rk._part
            ns[prefix + "_cur"] = rk._cur_ts
            ns[prefix + "_acc"] = rk._acc
            ns[prefix + "_per"] = rk._period
            ns[prefix + "_sizes"] = rk._sizes
            tick = [
                "_ca = %s_acc[part] + 1" % prefix,
                "if _ca >= %s_per[part]:" % prefix,
                "    %s_acc[part] = 0" % prefix,
                "    %s_cur[part] = (%s_cur[part] + 1) & 255" % (prefix, prefix),
                "else:",
                "    %s_acc[part] = _ca" % prefix,
            ]
            return {
                "hit": tick + ["%s_ts[idx] = %s_cur[part]" % (prefix, prefix)],
                "insert": tick + [
                    "%s_ts[new_idx] = %s_cur[part]" % (prefix, prefix),
                    "%s_part[new_idx] = part" % prefix,
                    "%s_sizes[part] += 1" % prefix,
                ],
                "evict": [
                    "%s_sizes[vpart] -= 1" % prefix,
                    "%s_part[victim] = -1" % prefix,
                ],
                "move": [
                    "%s_ts[dst] = %s_ts[src]" % (prefix, prefix),
                    "%s_part[dst] = %s_part[src]" % (prefix, prefix),
                    "%s_part[src] = -1" % prefix,
                ],
            }

        r_seg = {
            "hit": ["r_hit(idx, part, next_use=next_use)"],
            "insert": ["r_ins(new_idx, part, next_use=next_use)"],
            "evict": ["r_evi(victim, vpart)"],
            "move": ["r_move(src, dst)"],
        }
        if type(ranking) in _KEYED_INLINE:
            r_seg = keyed_hook_lines(ranking, "rk")
        elif (type(ranking) is CoarseTimestampLRURanking
              and TIMESTAMP_MOD == 256):
            r_seg = coarse_hook_lines(ranking, "ct")
        ref_seg = {
            "hit": ["ref_hit(idx, part, next_use=next_use)"],
            "insert": ["ref_ins(new_idx, part, next_use=next_use)"],
            "evict": ["ref_evi(victim, vpart)"],
            "move": ["ref_move(src, dst)"],
        }
        if ref_obs is not None and type(reference) in _KEYED_INLINE:
            ref_seg = keyed_hook_lines(reference, "rf")

        def scan_lines():
            # kernels.choose_scaled / choose_pf over a keyed ranking,
            # inlined.  One pass keeps each candidate partition's most
            # futile raw key in _bk (indexed by partition; a sentinel no
            # key beats until the partition appears) and its candidate in
            # _bc, which a partition enters at its first candidate, so
            # _bc iterates in order of first appearance.  FS and the
            # unpartitioned scan then rank only those winners, one bisect
            # each, with _KeyedRanking.futility's float expression scaled
            # as choose_scaled scales it, and keep the winner's rank for
            # the eviction (_vr).  A strict `>` keeps the earlier winner on
            # an exact tie, and the position check resolves that tie to
            # the candidate earliest in the list.  PF's PS takes the first
            # partition with the strictly largest overshoot.
            asc = ranking._ascending_futility
            ns["no_key"] = float("-inf") if asc else float("inf")
            lines = [
                "        _bk = [no_key] * num_partitions",
                "        _bc = {}",
                "        for _c in _cands:",
                "            _p = owner[_c]",
                "            _k = rk_key[_c]",
                "            if _k %s _bk[_p]:" % (">" if asc else "<"),
                "                _bk[_p] = _k",
                "                _bc[_p] = _c",
            ]
            weights = _SCAN_INLINE[stype]
            if weights is None:
                return lines + [
                    "        _tgt = cache.targets",
                    "        _bo = None",
                    "        for _p, _c in _bc.items():",
                    "            _ov = actual[_p] - _tgt[_p]",
                    "            if _bo is None or _ov > _bo:",
                    "                _bo = _ov",
                    "                victim = _c",
                ]
            value = "(_r + 1) / _sz" if asc else "(_sz - _r) / _sz"
            if weights:
                # Read on every miss: set_alphas swaps the list without
                # rebuilding the kernel.
                ns["scheme"] = scheme
                lines.append("        _w = scheme.%s" % weights)
                value = "_w[_p] * (%s)" % value
            return lines + [
                "        _bv = None",
                "        for _p, _c in _bc.items():",
                "            _ks = rk_keys[_p]",
                "            _sz = len(_ks)",
                "            _r = bisect_left(_ks, _bk[_p])",
                "            _v = " + value,
                "            if (_bv is None or _v > _bv or (_v == _bv and",
                "                    _cands.index(_c) < _cands.index(victim))):",
                "                _bv = _v",
                "                _vr = _r",
                "                victim = _c",
            ]

        def victim_lines(cands_expr):
            # Victim selection over one candidate-list expression: a
            # choose_victim call, or the empty-slot probe of
            # kernels.first_invalid followed by an inlined scan: the
            # Algorithm-2 shift scan (feedback FS on coarse timestamps,
            # mirroring FeedbackFutilityScalingScheme.choose_victim) or the
            # keyed scan (scan_lines).
            if not (fb_inline or keyed_scan):
                return ["    victim = choose(%s, part)" % cands_expr]
            ns["num_lines"] = self.num_lines
            head = ([] if cands_expr == "_cands"
                    else ["    _cands = %s" % cands_expr])
            head += [
                "    victim = -1",
                "    if cache._resident != num_lines:",
                "        for _c in _cands:",
                "            if tag[_c] < 0:",
                "                victim = _c",
                "                break",
                "    if victim < 0:",
            ]
            if keyed_scan:
                return head + scan_lines()
            ns["fb_lvl"] = scheme._levels
            return head + [
                "        _lv = fb_lvl",
                "        victim = _cands[0]",
                "        _p = owner[victim]",
                "        _bf = ((ct_cur[_p] - ct_ts[victim]) & 255) << _lv[_p]",
                "        for _c in _cands[1:]:",
                "            _p = owner[_c]",
                "            _f = ((ct_cur[_p] - ct_ts[_c]) & 255) << _lv[_p]",
                "            if _f > _bf:",
                "                _bf = _f",
                "                victim = _c",
            ]

        if fb_inline:
            ns["fb_ins"] = scheme._ins
            ns["fb_evi"] = scheme._evi
            ns["fb_len"] = scheme.interval_length
            ns["fb_tick"] = scheme._interval_elapsed

        # Candidate generation: set-associative geometries (including
        # direct-mapped) have their index hash inlined into the kernel so a
        # miss pays no candidate-generation calls at all.
        if scheme.uses_candidates:
            inline_sa = (isinstance(array_obj, SetAssociativeArray)
                         and type(array_obj).candidates
                         is SetAssociativeArray.candidates)
            if inline_sa:
                ns["ways"] = array_obj.ways
                # Direct-mapped and unpartitioned: the set's one line is
                # the victim (UnpartitionedScheme takes it when empty and
                # has nothing to compare it with when full), so the base
                # slot is the victim and no choose call is emitted.
                if array_obj.ways == 1 and stype is UnpartitionedScheme:
                    pick = ["    victim = _base"]
                    keyed_scan = False  # no scan, so no rank to reuse
                else:
                    pick = victim_lines("range(_base, _base + ways)")
                hash_obj = array_obj._hash
                if type(hash_obj) is XorFoldHash and hash_obj._bits > 0:
                    ns["set_mask"] = hash_obj.buckets - 1
                    ns["set_bits"] = hash_obj._bits
                    cand = [
                        "    _a = addr",
                        "    _folded = 0",
                        "    while _a:",
                        "        _folded ^= _a & set_mask",
                        "        _a >>= set_bits",
                        "    _base = _folded * ways",
                    ] + pick
                else:
                    ns["hash_fn"] = hash_obj
                    cand = [
                        "    _base = hash_fn(addr) * ways",
                    ] + pick
            elif type(array_obj) is RandomCandidatesArray:
                # RandomCandidatesArray.candidates' fast path: the next R
                # buffered draws when they are distinct (a slice that runs
                # past the buffer is short, so it fails the same test).
                # A repeat or a refill goes through candidates().
                ns["get_candidates"] = array_obj.candidates
                ns["rc"] = array_obj
                ns["rc_want"] = array_obj.candidate_count
                cand = [
                    "    _pos = rc._pos",
                    "    _cands = rc._buf[_pos:_pos + rc_want]",
                    "    if len(set(_cands)) == rc_want:",
                    "        rc._pos = _pos + rc_want",
                    "    else:",
                    "        _cands = get_candidates(addr)",
                ] + victim_lines("_cands")
            else:
                ns["get_candidates"] = array_obj.candidates
                cand = victim_lines("get_candidates(addr)")
        else:
            ns["free_slot"] = array_obj.free_slot
            if stype is FullAssocScheme and type(ranking) in _KEYED_INLINE:
                # FullAssocScheme.choose_victim inlined: the globally most
                # futile line of the most oversized non-empty partition —
                # the order's tail for ascending futility (OPT), its head
                # for descending (LRU).  bind() has forced ensure_index(),
                # so the key -> line map is maintained by the inline hook
                # bodies.
                end = -1 if ranking._ascending_futility else 0
                cand = [
                    "    victim = free_slot()",
                    "    if victim is None:",
                    "        _tgt = cache.targets",
                    "        _bo = None",
                    "        _bp = -1",
                    "        for _p in range(num_partitions):",
                    "            if actual[_p] == 0:",
                    "                continue",
                    "            _ov = actual[_p] - _tgt[_p]",
                    "            if _bo is None or _ov > _bo:",
                    "                _bo = _ov",
                    "                _bp = _p",
                    "        victim = rk._index_of[_bp][rk_keys[_bp][%d]]" % end,
                ]
            else:
                cand = [
                    "    victim = free_slot()",
                    "    if victim is None:",
                    "        victim = choose([], part)",
                ]

        def stats_access(ind, counter):
            # Inlined CacheStats.record_access (counter + periodic
            # occupancy sampling); reset() mutates attributes rather than
            # replacing `st`, so attribute loads stay valid across resets.
            return [
                ind + "st.accesses += 1",
                ind + "st." + counter + "[part] += 1",
                ind + "_n = st._since_occupancy_sample + 1",
                ind + "if _n >= st_period:",
                ind + "    st._since_occupancy_sample = 0",
                ind + "    st._occupancy_samples += 1",
                ind + "    _acc = st._occupancy_sum",
                ind + "    for _p in range(num_partitions):",
                ind + "        _acc[_p] += actual[_p]",
                ind + "else:",
                ind + "    st._since_occupancy_sample = _n",
            ]

        def ts_tick(ind, counter):
            # Inlined TimeSeriesRecorder window accounting: bump the
            # access (and miss) window counters, then sample when the
            # recorder's interval elapses.  reset() zeroes the window
            # lists in place, so the bound lists stay valid.
            head = [ind + "ts_acc[part] += 1"]
            if counter == "miss":
                head.append(ind + "ts_miss[part] += 1")
            return head + [
                ind + "_tn = ts._since + 1",
                ind + "if _tn >= ts_interval:",
                ind + "    ts._since = 0",
                ind + "    ts_sample()",
                ind + "else:",
                ind + "    ts._since = _tn",
            ]

        src = ["def access(addr, part, next_use=None, *, is_write=False):"]
        emit = src.append
        ext = src.extend
        if isinstance(ranking, OPTRanking) or (
                ref_obs is not None and isinstance(reference, OPTRanking)):
            # OPT keys need an int next_use; reject anything else before
            # the access changes any state (see OPTRanking).
            ns["next_use_error"] = OPTRanking.next_use_error
            emit("    if next_use.__class__ is not int:")
            emit("        raise next_use_error(next_use)")
        emit("    idx = where_get(addr)")
        emit("    if idx is not None:")
        emit("        if owner[idx] != part:")
        emit("            raise ConfigurationError(")
        emit("                'address %d is resident in partition %d, not"
             " %d: partitions must not share addresses'")
        emit("                % (addr, owner[idx], part))")
        ext(indent("        ", r_seg["hit"]))
        emit("        if is_write:")
        emit("            dirty[idx] = 1")
        if ref_obs is not None:
            ext(indent("        ", ref_seg["hit"]))
        if fast_stats is not None:
            ext(stats_access("        ", "hits"))
        if ts_obs is not None:
            ext(ts_tick("        ", "hit"))
        if handlers["hit"]:
            emit("        for _h in hit_handlers:")
            emit("            _h(idx, part, next_use)")
        emit("        return True")
        emit("    if addr < 0:")
        emit("        raise ConfigurationError(")
        emit("            'addresses must be non-negative, got %d' % addr)")
        if fast_stats is not None:
            ext(stats_access("    ", "misses"))
        if ts_obs is not None:
            ext(ts_tick("    ", "miss"))
        if handlers["miss"]:
            emit("    for _h in miss_handlers:")
            emit("        _h(addr, part)")
        ext(cand)
        emit("    victim_addr = tag[victim]")
        emit("    cache.writeback_pending = False")
        emit("    evicted = victim_addr != -1")
        emit("    if evicted:")
        emit("        vpart = owner[victim]")
        # The reference futility is computed only when something reads
        # it: the statistics' eviction-futility samples or an evict
        # handler.  For a keyed reference it is one bisect and one
        # division with _KeyedRanking.futility's float expression, inlined
        # against whichever key arrays hold the reference order (the
        # decision ranking itself when it is exact, the shadow
        # RankingObserver otherwise).
        need_fut = reference is not None and bool(
            (fast_stats is not None and fast_stats.track_eviction_futility)
            or handlers["evict"])
        keyed_ref = None
        if type(reference) in _KEYED_INLINE:
            if reference is ranking:
                keyed_ref = "rk"
            elif ref_obs is not None:
                keyed_ref = "rf"
        if keyed_scan:
            # The victim's rank serves both the futility and the key-list
            # delete: the FS scan ranked it already, PF ranks it here.
            emit("        _ks = rk_keys[vpart]")
            if _SCAN_INLINE[stype] is None:
                emit("        _vr = bisect_left(_ks, rk_key[victim])")
            if need_fut:
                emit("        _sz = len(_ks)")
                if reference._ascending_futility:
                    emit("        fut = (_vr + 1) / _sz")
                else:
                    emit("        fut = (_sz - _vr) / _sz")
        elif need_fut and keyed_ref is not None:
            emit("        _ks = %s_keys[vpart]" % keyed_ref)
            emit("        _sz = len(_ks)")
            rank = "bisect_left(_ks, %s_key[victim])" % keyed_ref
            if reference._ascending_futility:
                emit("        fut = (%s + 1) / _sz" % rank)
            else:
                emit("        fut = (_sz - %s) / _sz" % rank)
        elif need_fut:
            ns["ref_fut"] = reference.futility
            emit("        fut = ref_fut(victim)")
        emit("        was_dirty = dirty[victim]")
        emit("        if was_dirty:")
        emit("            dirty[victim] = 0")
        emit("            cache.writeback_pending = True")
        ext(indent("        ", r_seg["evict_at_rank" if keyed_scan
                                     else "evict"]))
        if fb_inline:
            emit("        # Before the size decrement: the interval check")
            emit("        # reads the pre-eviction actual_sizes (Algorithm 2).")
            emit("        _cnt = fb_evi[vpart] + 1")
            emit("        fb_evi[vpart] = _cnt")
            emit("        if _cnt >= fb_len:")
            emit("            fb_tick(vpart)")
        elif "s_evi" in ns:
            emit("        # Before the size decrement: feedback schemes read")
            emit("        # the pre-eviction actual_sizes (Algorithm 2).")
            emit("        s_evi(victim, vpart)")
        emit("        owner[victim] = -1")
        emit("        actual[vpart] -= 1")
        emit("        cache._resident -= 1")
        if simple:
            emit("        del where[victim_addr]")
            emit("        tag[victim] = -1")
        elif fa_inline:
            emit("        del where[victim_addr]")
            emit("        tag[victim] = -1")
            emit("        a_free.append(victim)")
        else:
            emit("        a_evict(victim)")
        if ref_obs is not None:
            ext(indent("        ", ref_seg["evict"]))
        if fast_stats is not None:
            emit("        st.evictions[vpart] += 1")
            if need_fut and fast_stats.track_eviction_futility:
                emit("        st.eviction_futilities[vpart].append(fut)")
            emit("        if was_dirty:")
            emit("            st.writebacks[vpart] += 1")
        if ts_obs is not None:
            emit("        ts_evi[vpart] += 1")
        if handlers["evict"]:
            fut_expr = "fut" if reference is not None else "None"
            emit("        for _h in evict_handlers:")
            emit("            _h(victim, vpart, %s, was_dirty)" % fut_expr)
        if simple:
            emit("    tag[victim] = addr")
            emit("    where[addr] = victim")
            emit("    new_idx = victim")
        elif fa_inline:
            emit("    tag[victim] = addr")
            emit("    where[addr] = victim")
            emit("    if a_free and a_free[-1] == victim:")
            emit("        a_free.pop()")
            emit("    elif victim in a_free:")
            emit("        a_free.remove(victim)")
            emit("    new_idx = victim")
        else:
            emit("    moves = a_place(addr, victim)")
            emit("    if moves:")
            emit("        for src, dst in moves:")
            emit("            owner[dst] = owner[src]")
            emit("            owner[src] = -1")
            emit("            dirty[dst] = dirty[src]")
            emit("            dirty[src] = 0")
            ext(indent("            ", r_seg["move"]))
            if "s_move" in ns:
                emit("            s_move(src, dst)")
            if ref_obs is not None:
                ext(indent("            ", ref_seg["move"]))
            if handlers["relocate"]:
                emit("            for _h in relocate_handlers:")
                emit("                _h(src, dst)")
            emit("        new_idx = where_get(addr)")
            emit("    else:")
            emit("        new_idx = victim")
        emit("    owner[new_idx] = part")
        emit("    actual[part] += 1")
        emit("    cache._resident += 1")
        emit("    dirty[new_idx] = 1 if is_write else 0")
        ext(indent("    ", r_seg["insert"]))
        if fb_inline:
            emit("    _cnt = fb_ins[part] + 1")
            emit("    fb_ins[part] = _cnt")
            emit("    if _cnt >= fb_len:")
            emit("        fb_tick(part)")
        elif "s_ins" in ns:
            emit("    s_ins(new_idx, part)")
        if ref_obs is not None:
            ext(indent("    ", ref_seg["insert"]))
        if fast_stats is not None:
            emit("    st.insertions[part] += 1")
            if fast_stats.deviation_partitions:
                emit("    if evicted:")
                emit("        _tgt = cache.targets")
                emit("        for _p, _buf in st.size_deviations.items():")
                emit("            _buf.append(actual[_p] - _tgt[_p])")
        if ts_obs is not None:
            emit("    ts_ins[part] += 1")
        if handlers["insert"]:
            emit("    for _h in insert_handlers:")
            emit("        _h(new_idx, part, next_use, evicted)")
        emit("    return False")

        code = "\n".join(src)
        exec(compile(code, "<access-kernel>", "exec"), ns)
        kernel = ns["access"]
        kernel.__kernel_source__ = code
        return kernel

    def invalidate_index(self, idx: int) -> None:
        """Forcibly invalidate the line at ``idx`` (placement-scheme flush).

        Published as a ``flush`` event, not an eviction, so it does not
        pollute the associativity statistics.
        """
        if self.lines.tag[idx] == INVALID:
            return
        part = self.owner[idx]
        was_dirty = self._dirty[idx]
        if was_dirty:
            self._dirty[idx] = 0
        self.ranking.on_evict(idx, part)
        self.owner[idx] = -1
        self.actual_sizes[part] -= 1
        self._resident -= 1
        self.array.evict(idx)
        for h in self.events.flush:
            h(idx, part, was_dirty)

    # -- pickling (the compiled kernel is rebuilt, not serialized) -------------
    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("access", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._rebuild_kernel()

    # -- invariant checking (used heavily by the test suite) -------------------
    def check_invariants(self) -> None:
        """Verify internal consistency; raises ``AssertionError`` on breakage."""
        resident = 0
        sizes = [0] * self.num_partitions
        for idx in range(self.num_lines):
            addr = self.array.addr_at(idx)
            if addr == INVALID:
                assert self.owner[idx] == -1, f"empty slot {idx} has an owner"
                continue
            resident += 1
            p = self.owner[idx]
            assert 0 <= p < self.num_partitions, f"slot {idx} owner {p} invalid"
            sizes[p] += 1
            assert self.array.lookup(addr) == idx, f"lookup broken at {idx}"
        assert sizes == self.actual_sizes, (
            f"occupancy accounting drifted: {sizes} != {self.actual_sizes}")
        assert resident == self.array.resident_count()
        assert resident == self._resident, (
            f"resident counter drifted: {self._resident} != {resident}")
        for p in range(self.num_partitions):
            assert self.ranking.partition_size(p) == sizes[p], (
                f"ranking size mismatch for partition {p}")
            if self._separate_reference:
                assert self.reference.partition_size(p) == sizes[p]
