"""Kernel byte-identity across cache instances.

``PartitionedCache`` compiles its access kernel from its configuration
alone, so two caches built alike compile the exact same source, and
every golden hash gates that one kernel.
"""

from repro.cache.arrays import SetAssociativeArray
from repro.cache.cache import PartitionedCache
from repro.core.futility import LRURanking
from repro.core.schemes.base import make_scheme

LINES = 256
WAYS = 8


def _build(scheme_name: str, parts: int = 2) -> PartitionedCache:
    return PartitionedCache(SetAssociativeArray(LINES, WAYS), LRURanking(),
                            make_scheme(scheme_name), parts)


def test_fresh_caches_compile_identical_kernels():
    a, b = _build("fs"), _build("fs")
    assert a.access.__kernel_source__ == b.access.__kernel_source__
