"""Partitioning-scheme interface (the paper's "replacement policy" role).

A scheme receives the full replacement-candidate list on each miss and picks
the victim, balancing the two conflicting roles described in Section III-B:
maximizing the futility of the evicted line (associativity) and steering
per-partition sizes toward their targets (sizing).

Schemes interact with the owning :class:`~repro.cache.cache.PartitionedCache`
through a narrow read interface (owner array, actual/target sizes, futility
ranking) plus event hooks for insertions, evictions and block relocations.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Type

from ...errors import ConfigurationError
from . import kernels

__all__ = ["PartitioningScheme", "register_scheme", "make_scheme",
           "available_schemes"]


class PartitioningScheme:
    """Base class for replacement-based partitioning schemes."""

    #: Registry name.
    name = "abstract"
    #: Whether the cache should generate an array candidate list per miss.
    #: Schemes with ``False`` (FullAssoc) pick victims from their own
    #: structures and require an array exposing ``free_slot``.
    uses_candidates = True

    def __init__(self) -> None:
        self.cache = None

    # -- lifecycle ---------------------------------------------------------
    def bind(self, cache) -> None:
        """Attach to the owning cache.  Called exactly once."""
        if self.cache is not None:
            raise ConfigurationError(
                f"scheme {self.name!r} is already bound to a cache")
        self.cache = cache

    def set_targets(self, targets: Sequence[int]) -> None:
        """Notify the scheme of (new) per-partition line targets."""

    # -- replacement -------------------------------------------------------
    def choose_victim(self, candidates: List[int], incoming_part: int) -> int:
        """Pick the victim line index among ``candidates``.

        ``candidates`` may contain invalid (empty) slots; schemes should
        prefer them (see :meth:`_first_invalid`) since filling an empty slot
        evicts nothing.
        """
        raise NotImplementedError

    # -- event hooks -------------------------------------------------------
    def on_insert(self, idx: int, part: int) -> None:
        """A line of ``part`` was installed at ``idx``."""

    def on_evict(self, idx: int, part: int) -> None:
        """The line at ``idx`` (owned by ``part``) was evicted."""

    def on_move(self, src: int, dst: int) -> None:
        """A resident block moved between slots (zcache relocation)."""

    # -- helpers for subclasses ---------------------------------------------
    def _first_invalid(self, candidates: List[int]) -> Optional[int]:
        """First empty slot among candidates, or ``None``.

        Delegates to :func:`repro.core.schemes.kernels.first_invalid`, which
        skips the scan entirely once the cache is full.
        """
        return kernels.first_invalid(self.cache, candidates)


_SCHEME_REGISTRY: Dict[str, Type[PartitioningScheme]] = {}


def register_scheme(cls: Type[PartitioningScheme]) -> Type[PartitioningScheme]:
    """Class decorator adding a scheme to the by-name registry."""
    if cls.name in _SCHEME_REGISTRY:
        raise ConfigurationError(f"duplicate scheme name {cls.name!r}")
    _SCHEME_REGISTRY[cls.name] = cls
    return cls


def make_scheme(kind: str, **kwargs) -> PartitioningScheme:
    """Construct a partitioning scheme by registry name."""
    try:
        cls = _SCHEME_REGISTRY[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown scheme {kind!r}; expected one of {sorted(_SCHEME_REGISTRY)}")
    return cls(**kwargs)


def available_schemes() -> List[str]:
    """Names of all registered schemes."""
    return sorted(_SCHEME_REGISTRY)
