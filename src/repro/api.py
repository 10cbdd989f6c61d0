"""Stable top-level facade for assembling caches and running experiments.

The library composes three axes — array organization, futility ranking,
partitioning scheme — whose constructors were historically scattered
(:func:`make_ranking`, :func:`make_scheme`, per-array classes).
:func:`build_cache` is the one-call entry point: every axis accepts
*either* a registry name string *or* an already-built instance, all
inputs are validated up front, and misconfiguration raises
:class:`~repro.errors.ConfigurationError` with an actionable message.

:func:`run_experiment` is the matching one-call entry point for the
experiment side: registry lookup, config construction, the parallel
cached runner and its fault-tolerance knobs (retries, per-cell
timeouts, keep-going sweeps) behind a single function.

Example::

    from repro import build_cache, run_experiment
    from repro.runner import RunConfig

    cache = build_cache(array="set-assoc", num_lines=131_072, ways=16,
                        ranking="coarse-ts-lru", scheme="fs-feedback",
                        num_partitions=32, targets=[4096] * 32)
    result = run_experiment(
        "fig3", scale="smoke",
        run_config=RunConfig(jobs=4, retries=2, keep_going=True))
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Sequence, Union

from .cache.arrays import (
    CacheArray,
    DirectMappedArray,
    FullyAssociativeArray,
    RandomCandidatesArray,
    SetAssociativeArray,
    SkewAssociativeArray,
    ZCacheArray,
)
from .cache.cache import PartitionedCache
from .core.futility import FutilityRanking, make_ranking
from .core.schemes.base import PartitioningScheme, make_scheme
from .errors import ConfigurationError

if TYPE_CHECKING:  # lazy at runtime: keeps `import repro` light
    from .runner import RunConfig

__all__ = ["ARRAY_KINDS", "build_array", "build_cache", "run_experiment"]

#: Array registry: name -> constructor taking (num_lines, ways,
#: candidates, seed) and using whichever parameters apply.
ARRAY_KINDS: Dict[str, Callable[[int, int, int, int], CacheArray]] = {
    "set-assoc": lambda n, ways, cand, seed: SetAssociativeArray(n, ways),
    "random": lambda n, ways, cand, seed: RandomCandidatesArray(
        n, cand, seed=seed),
    "skew": lambda n, ways, cand, seed: SkewAssociativeArray(
        n, ways, hash_seed=seed),
    "zcache": lambda n, ways, cand, seed: ZCacheArray(
        n, ways, cand, hash_seed=seed),
    "full-assoc": lambda n, ways, cand, seed: FullyAssociativeArray(n),
    "direct-mapped": lambda n, ways, cand, seed: DirectMappedArray(n),
}


def build_array(kind: Union[str, CacheArray], num_lines: Optional[int] = None,
                *, ways: int = 16, candidates: int = 16,
                seed: int = 0) -> CacheArray:
    """Array factory accepting a kind name or a ready instance.

    ``kind`` is one of ``set-assoc`` (XOR-indexed, the Table II L2),
    ``random`` (the Uniformity-Assumption array of Figs. 4/5), ``skew``,
    ``zcache``, ``full-assoc`` or ``direct-mapped`` — or an existing
    :class:`CacheArray`, returned unchanged.
    """
    if isinstance(kind, CacheArray):
        return kind
    if not isinstance(kind, str):
        raise ConfigurationError(
            f"array must be a kind name or a CacheArray instance, "
            f"got {type(kind).__name__}")
    try:
        ctor = ARRAY_KINDS[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown array kind {kind!r}; expected one of "
            f"{sorted(ARRAY_KINDS)}") from None
    if num_lines is None:
        raise ConfigurationError(
            f"num_lines is required to build a {kind!r} array by name")
    return ctor(int(num_lines), ways, candidates, seed)


def build_cache(*, array: Union[str, CacheArray],
                ranking: Union[str, FutilityRanking] = "lru",
                scheme: Union[str, PartitioningScheme] = "fs-feedback",
                num_partitions: Optional[int] = None,
                targets: Optional[Sequence[int]] = None,
                num_lines: Optional[int] = None, ways: int = 16,
                candidates: int = 16, seed: int = 0,
                **cache_kwargs: Any) -> PartitionedCache:
    """Build a :class:`PartitionedCache` from names or instances.

    Parameters
    ----------
    array:
        Array kind name (with ``num_lines`` and, as applicable, ``ways``
        / ``candidates`` / ``seed``) or a :class:`CacheArray` instance.
    ranking:
        Futility ranking name (``lru``, ``lfu``, ``opt``,
        ``coarse-ts-lru``, ``random``) or instance.
    scheme:
        Partitioning scheme name (``fs``, ``fs-feedback``, ``pf``,
        ``vantage``, ``prism``, ...) or instance.
    num_partitions:
        Number of partitions; defaults to ``len(targets)`` when targets
        are given.
    targets:
        Optional per-partition target sizes in lines; must match
        ``num_partitions``.
    cache_kwargs:
        Forwarded to :class:`PartitionedCache`
        (``track_eviction_futility``, ``deviation_partitions``, ...).
    """
    built_array = build_array(array, num_lines, ways=ways,
                              candidates=candidates, seed=seed)
    if isinstance(ranking, str):
        ranking = make_ranking(ranking)
    elif not isinstance(ranking, FutilityRanking):
        raise ConfigurationError(
            f"ranking must be a name or FutilityRanking instance, "
            f"got {type(ranking).__name__}")
    if isinstance(scheme, str):
        scheme = make_scheme(scheme)
    elif not isinstance(scheme, PartitioningScheme):
        raise ConfigurationError(
            f"scheme must be a name or PartitioningScheme instance, "
            f"got {type(scheme).__name__}")

    if num_partitions is None:
        if targets is None:
            raise ConfigurationError(
                "num_partitions is required when targets are not given")
        num_partitions = len(targets)
    num_partitions = int(num_partitions)
    if num_partitions < 1:
        raise ConfigurationError(
            f"num_partitions must be >= 1, got {num_partitions}")
    if targets is not None:
        targets = [int(t) for t in targets]
        if len(targets) != num_partitions:
            raise ConfigurationError(
                f"targets has {len(targets)} entries for "
                f"{num_partitions} partitions")
        if any(t < 0 for t in targets):
            raise ConfigurationError("targets must be non-negative")
        if sum(targets) > built_array.num_lines:
            raise ConfigurationError(
                f"targets sum to {sum(targets)} lines but the array has "
                f"only {built_array.num_lines}")
        cache_kwargs["targets"] = targets
    return PartitionedCache(built_array, ranking, scheme, num_partitions,
                            **cache_kwargs)


def run_experiment(name: str, *, scale: str = "scaled",
                   config: Optional[Any] = None,
                   run_config: Optional["RunConfig"] = None,
                   telemetry: Union[str, "os.PathLike[str]", None] = None,
                   telemetry_interval: int = 1024,
                   telemetry_profile: bool = False) -> Any:
    """Run a registered experiment end to end and return its result.

    One-call front door to the experiment registry and the
    fault-tolerant parallel runner:

    - ``name`` is a registry key (``"fig2"`` ... ``"fig8"``,
      ``"tableII"``); unknown names raise
      :class:`~repro.errors.ConfigurationError` listing what exists.
    - ``config`` overrides the config object; otherwise it is built
      from ``scale`` (``smoke``/``scaled``/``paper``).
    - ``run_config`` is a :class:`~repro.runner.RunConfig` saying how
      to execute the sweep: workers (``jobs``), the experiment store
      (``local:PATH`` URL, bare path, instance, or
      ``None`` for no memoization), and the resilience knobs
      (``retries``, ``cell_timeout``, ``keep_going``).  Under
      ``keep_going`` a sweep with permanently failed cells raises
      :class:`~repro.errors.SweepError` carrying the
      :class:`~repro.runner.FailedCell` sentinels and partial results.
    - ``telemetry`` names a directory: the run records a trace of the
      sweep, per-partition time series (one sample every
      ``telemetry_interval`` accesses) and, with
      ``telemetry_profile=True``, per-cell cProfile captures there, plus
      a ``manifest.json`` tying them together.  Recording never changes
      results, figure bytes, or cache keys.  Inspect with
      ``python -m repro.obs report DIR`` and ``python -m repro.obs
      trace DIR``.
    """
    # Lazy: `repro` imports this module at package-import time, and the
    # experiment modules register themselves on first import — pulling
    # them in here keeps `import repro` light and cycle-free.
    from .experiments import registry as _registry
    from .runner import Progress, RunConfig

    try:
        spec = _registry.get_experiment(name)
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {name!r}; registered: "
            f"{_registry.experiment_names()}") from None
    rc = run_config if run_config is not None else RunConfig()
    if config is None:
        config = spec.config(scale)
    if rc.progress is None:
        rc = rc.replace(progress=Progress(enabled=False))
    if telemetry is None:
        return spec.run(config, run_config=rc)
    from .obs import TelemetrySession

    session = TelemetrySession(os.fspath(telemetry), experiment=name,
                               interval=telemetry_interval,
                               profile=telemetry_profile)
    with session:
        with session.phase("sweep"):
            return spec.run(config,
                            run_config=rc.replace(
                                telemetry=session.telemetry))
