"""Typed cache event bus: measurement decoupled from the access mechanism.

The access kernel of :class:`~repro.cache.cache.PartitionedCache` emits a
small, fixed vocabulary of events; anything that *measures* the cache —
:class:`~repro.cache.stats.CacheStats`, the reference futility ranking,
ad-hoc experiment probes — subscribes as an observer instead of being
hard-wired into the hot path.  A run with no observers pays nothing beyond
an iteration over an empty tuple per event.

Observers subclass :class:`CacheObserver` and override only the handlers
they care about; the bus detects overridden methods and builds one flat
tuple of bound handlers per event type, so dispatch in the kernel is::

    for handler in bus.evict:
        handler(idx, part, futility, dirty)

Event vocabulary (all ``part`` values are partition ids):

``hit(idx, part, next_use)``
    The access hit the resident line ``idx``.
``miss(addr, part)``
    The access missed; fired *before* victim selection, so observers see
    pre-eviction occupancies.
``evict(idx, part, futility, dirty)``
    A resident line was evicted to make room.  ``futility`` is the
    reference ranking's normalized futility of the victim (``None`` when
    measurement is off) and ``dirty`` is truthy when the line needed a
    writeback.
``insert(idx, part, next_use, evicted)``
    The missing address was installed at ``idx``; ``evicted`` says whether
    the fill displaced a victim (rather than filling an empty slot).
``relocate(src, dst)``
    A resident block moved between slots (zcache walks).
``flush(idx, part, dirty)``
    A line was forcibly invalidated outside the replacement path
    (placement-scheme resizes).

Subscription changes notify the owning cache (via ``on_change``) so it can
rebuild its compiled access kernel with the new handler tuples.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Tuple

from ..errors import ConfigurationError

__all__ = ["CacheObserver", "CacheEventBus"]


class CacheObserver:
    """Base class for cache event observers (all handlers default to no-ops).

    Subclass and override the handlers you need; unoverridden handlers are
    excluded from dispatch entirely, so a hit-only observer adds zero cost
    to the miss path.
    """

    def on_cache_hit(self, idx: int, part: int,
                     next_use: Optional[int]) -> None:
        """The access hit resident line ``idx``."""

    def on_cache_miss(self, addr: int, part: int) -> None:
        """The access missed (fired before victim selection)."""

    def on_cache_evict(self, idx: int, part: int,
                       futility: Optional[float], dirty: int) -> None:
        """Line ``idx`` of ``part`` was evicted (``dirty`` -> writeback)."""

    def on_cache_insert(self, idx: int, part: int, next_use: Optional[int],
                        evicted: bool) -> None:
        """A missing address was installed at ``idx`` for ``part``."""

    def on_cache_relocate(self, src: int, dst: int) -> None:
        """A resident block moved from slot ``src`` to slot ``dst``."""

    def on_cache_flush(self, idx: int, part: int, dirty: int) -> None:
        """Line ``idx`` was forcibly invalidated (not an eviction)."""


#: (event name, handler method name) — the bus exposes one handler tuple
#: attribute per event name.
_EVENTS: Tuple[Tuple[str, str], ...] = (
    ("hit", "on_cache_hit"),
    ("miss", "on_cache_miss"),
    ("evict", "on_cache_evict"),
    ("insert", "on_cache_insert"),
    ("relocate", "on_cache_relocate"),
    ("flush", "on_cache_flush"),
)


class CacheEventBus:
    """Registry of :class:`CacheObserver` instances with per-event dispatch
    tuples (``bus.hit``, ``bus.miss``, ``bus.evict``, ``bus.insert``,
    ``bus.relocate``, ``bus.flush``)."""

    __slots__ = ("_observers", "_on_change",
                 "hit", "miss", "evict", "insert", "relocate", "flush")

    def __init__(self, on_change: Optional[Callable[[], None]] = None) -> None:
        self._observers: List[CacheObserver] = []
        self._on_change = on_change
        self._rebuild()

    def observers(self) -> List[CacheObserver]:
        """The subscribed observers, in subscription order."""
        return list(self._observers)

    def subscribe(self, observer: CacheObserver) -> None:
        """Add ``observer`` and rebuild the dispatch tuples."""
        if not isinstance(observer, CacheObserver):
            raise ConfigurationError(
                f"observers must subclass CacheObserver, got "
                f"{type(observer).__name__}")
        if observer in self._observers:
            raise ConfigurationError("observer is already subscribed")
        self._observers.append(observer)
        self._rebuild()
        if self._on_change is not None:
            self._on_change()

    def unsubscribe(self, observer: CacheObserver) -> None:
        """Remove ``observer``; raises if it was never subscribed."""
        try:
            self._observers.remove(observer)
        except ValueError:
            raise ConfigurationError(
                "observer is not subscribed") from None
        self._rebuild()
        if self._on_change is not None:
            self._on_change()

    @contextmanager
    def subscribed(self, *observers: CacheObserver) -> Iterator["CacheEventBus"]:
        """Subscribe ``observers`` for the duration of a ``with`` block.

        Subscription and the matching unsubscription each rebuild the
        owning cache's compiled kernel, so the block runs with the
        observers live and the kernel reverts to its previous form on
        exit — the idiom for scoped measurement (telemetry recording,
        test probes) that must leave no trace afterwards.
        """
        for obs in observers:
            self.subscribe(obs)
        try:
            yield self
        finally:
            for obs in reversed(observers):
                self.unsubscribe(obs)

    def handlers(self, event: str, exclude: Tuple[CacheObserver, ...] = ()):
        """Dispatch tuple for ``event`` excluding specific observers.

        The cache's kernel compiler uses this to inline its well-known
        observers (the standard stats object, the reference-ranking
        adapter) and dispatch dynamically only to the rest.
        """
        method = dict(_EVENTS)[event]
        base_method = getattr(CacheObserver, method)
        return tuple(
            getattr(obs, method) for obs in self._observers
            if not any(obs is e for e in exclude)
            and getattr(type(obs), method) is not base_method)

    def _rebuild(self) -> None:
        base = CacheObserver
        for event, method in _EVENTS:
            handlers = tuple(
                getattr(obs, method) for obs in self._observers
                if getattr(type(obs), method) is not getattr(base, method))
            setattr(self, event, handlers)
