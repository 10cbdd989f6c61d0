"""Native against Python access kernel on replayed fig6 access streams.

Records the ``cache.access`` calls of fig6's cells at the perfbench
``assoc-pool`` scale (mcf, gromacs, cactusADM and lbm at 256, 4096 and
8192 lines, 20,000-access traces), then replays each cell's calls into a
fresh cache built as fig6 builds it, once on the native kernel and once on
the Python kernel of the same build, and subtracts a bare loop over the
log.  Prints one JSON object: per cell kind (fully associative or
direct-mapped, OPT or LRU), nanoseconds per access on each kernel (best
of ``--rounds`` replays per cell, summed over cells) and their ratio::

    PYTHONPATH=src python benchmarks/kernel_replay.py [--rounds 3]

Exits 2 when the native kernel is unavailable.
"""

import argparse
import dataclasses
import json
import sys
import time

from repro.cache import native
from repro.experiments.fig6 import Fig6Config, _cell_cache
from repro.sim.config import TABLE_II
from repro.sim.engine import simulate_single_thread
from repro.trace.spec import get_profile

CONFIG = dataclasses.replace(
    Fig6Config.scaled(), benchmarks=("mcf", "gromacs", "cactusadm", "lbm"),
    cache_sizes_lines=(256, 4096, 8192), trace_length=20_000)


def record(benchmark, size, ranking, organization):
    """The ``(addr, part, next_use, is_write)`` calls one cell makes."""
    trace = get_profile(benchmark).trace(
        CONFIG.trace_length, seed=CONFIG.seed, scale=CONFIG.workload_scale)
    cache = _cell_cache(size, ranking, organization)
    log = []
    kernel = cache.access

    def access(addr, part, next_use=None, *, is_write=False):
        log.append((addr, part, next_use, is_write))
        return kernel(addr, part, next_use, is_write=is_write)
    cache.access = access
    simulate_single_thread(cache, trace, TABLE_II)
    return log


def python_cache(size, ranking, organization):
    cache = _cell_cache(size, ranking, organization)
    cache.access = getattr(cache.access, "python_kernel", cache.access)
    return cache


def replay(cache, log):
    access = cache.access
    t0 = time.perf_counter()
    for addr, part, next_use, is_write in log:
        access(addr, part, next_use, is_write=is_write)
    return time.perf_counter() - t0


def bare(log):
    t0 = time.perf_counter()
    for addr, part, next_use, is_write in log:
        pass
    return time.perf_counter() - t0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args(argv)
    if native.unavailable() is not None:
        print("native kernel unavailable: " + native.unavailable(),
              file=sys.stderr)
        return 2
    out = {}
    for ranking in ("opt", "lru"):
        for organization in ("fa", "dm"):
            accesses, native_s, python_s = 0, 0.0, 0.0
            for benchmark in CONFIG.benchmarks:
                for size in CONFIG.cache_sizes_lines:
                    log = record(benchmark, size, ranking, organization)
                    loop = min(bare(log) for _ in range(args.rounds))
                    native_s += min(replay(_cell_cache(
                        size, ranking, organization), log)
                        for _ in range(args.rounds)) - loop
                    python_s += min(replay(python_cache(
                        size, ranking, organization), log)
                        for _ in range(args.rounds)) - loop
                    accesses += len(log)
            kind = "%s-%s" % (organization, ranking)
            out[kind] = {"accesses": accesses,
                         "native_ns": round(1e9 * native_s / accesses, 1),
                         "python_ns": round(1e9 * python_s / accesses, 1),
                         "ratio": round(native_s / python_s, 3)}
            print(kind, out[kind], file=sys.stderr, flush=True)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
