"""Simulator-throughput benchmarks and ``BENCH_throughput.json`` emission.

Not a paper figure: these measure the reproduction's own hot path —
single-thread accesses per second through the partitioned-cache access
kernel — for one configuration per registered partitioning scheme, in the
shape the figure experiments actually run it (exact-LRU decision ranking
with full measurement attached; the feedback-FS hardware pairing uses the
8-bit coarse-timestamp ranking as in Fig. 7), plus Fig. 6a's two OPT
pairings (``OPT_CONFIGS``), fed the same workload annotated with next-use
positions and built as fig6 builds them, Fig. 6b's two LRU pairings
(``LRU_CONFIGS``), also built as fig6 builds them, and Fig. 4's pairings
(``RANDCAND_CONFIGS``): exact LRU on the random-candidates array under FS
and PF.

The workload is a hot/cold mix (85% of accesses to a per-partition hot set
that fits in cache, 15% to a large cold space), approximating the locality
the paper's L2 traces exhibit rather than a pure-thrash stream; both the
miss path (victim selection) and the hit path (ranking/statistics upkeep)
carry realistic weight.

Two entry points:

* pytest-benchmark (``make bench``): per-scheme timing history.
* ``python benchmarks/test_simulator_throughput.py --out BENCH_throughput.json
  --label after`` (``make bench-throughput``): measure every config
  (best-of-5) and merge the lines/sec into the machine-readable JSON under
  the given label.  With both ``before`` and ``after`` recorded the file
  gains per-config speedups and their geometric mean.  The committed file
  was captured by running ``--label before`` on the pre-refactor tree
  (``git stash``) and ``--label after`` on the same machine in the same
  session.

``test_throughput_regression`` guards the committed numbers in CI: it
re-measures each config and fails if throughput drops more than 30% below
the committed ``after`` value, after normalizing machine speed through the
recorded spin-loop calibration.  Each timed round is normalized by a spin
split around it, so the two see the same moment of the host's load.
Fig. 6's four pairings (``NATIVE_CONFIGS``) run the native access kernel
(``repro.cache.native``), and their committed rates are its rates: where
it did not build, the gate fails them by name instead of timing the
Python kernel against them.
"""

import json
import random
import sys
import time
from pathlib import Path

import pytest

from repro.cache import native
from repro.cache.arrays import (DirectMappedArray, FullyAssociativeArray,
                                RandomCandidatesArray, SetAssociativeArray)
from repro.cache.cache import PartitionedCache
from repro.core.futility import (CoarseTimestampLRURanking, LRURanking,
                                 OPTRanking)
from repro.core.schemes.base import available_schemes, make_scheme
from repro.trace.access import annotate_next_use

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"

ACCESSES = 30_000
WARM_ACCESSES = 20_000
PARTS = 2
LINES = 4096
WAYS = 16
HOT_LINES = 1_400          # per-partition hot set; both fit in cache
HOT_FRACTION = 0.85
COLD_SPACE = 1_000_000
SEED = 0
WARM_SEED = 99
ROUNDS = 5

WORKLOAD = {
    "accesses": ACCESSES, "warm_accesses": WARM_ACCESSES, "parts": PARTS,
    "lines": LINES, "ways": WAYS, "hot_lines": HOT_LINES,
    "hot_fraction": HOT_FRACTION, "cold_space": COLD_SPACE,
    "seed": SEED, "warm_seed": WARM_SEED, "rounds": ROUNDS,
}


def make_stream(accesses=ACCESSES, seed=SEED):
    rng = random.Random(seed)
    randrange = rng.randrange
    rand = rng.random
    return [(part * 10**9 + (randrange(HOT_LINES) if rand() < HOT_FRACTION
                             else HOT_LINES + randrange(COLD_SPACE)), part)
            for part in (randrange(PARTS) for _ in range(accesses))]


def _setassoc(scheme, ranking=None, **cache_kwargs):
    return PartitionedCache(SetAssociativeArray(LINES, WAYS),
                            ranking if ranking is not None else LRURanking(),
                            scheme, PARTS, **cache_kwargs)


#: One configuration per registered scheme, keyed by registry name.
CONFIGS = {
    "cqvp": lambda: _setassoc(make_scheme("cqvp")),
    "fs": lambda: _setassoc(make_scheme("fs", alphas=[1.0, 2.0])),
    # The hardware design point: feedback FS over 8-bit coarse timestamps
    # (Section V / Fig. 7), not the exact-LRU ranking.
    "fs-feedback": lambda: _setassoc(make_scheme("fs-feedback"),
                                     ranking=CoarseTimestampLRURanking()),
    "full-assoc": lambda: PartitionedCache(
        FullyAssociativeArray(LINES), LRURanking(),
        make_scheme("full-assoc"), PARTS),
    "pf": lambda: _setassoc(make_scheme("pf")),
    "prism": lambda: _setassoc(make_scheme("prism")),
    "unpartitioned": lambda: _setassoc(make_scheme("unpartitioned")),
    "vantage": lambda: _setassoc(make_scheme("vantage")),
    "way-partition": lambda: _setassoc(make_scheme("way-partition")),
}

#: Fig. 6a's pairings (fully-associative and direct-mapped under Belady's
#: OPT), built as fig6 builds them: fig6 reports IPC only, so no
#: eviction futility is recorded.
OPT_CONFIGS = {
    "full-assoc-opt": lambda: PartitionedCache(
        FullyAssociativeArray(LINES), OPTRanking(),
        make_scheme("full-assoc"), PARTS, track_eviction_futility=False),
    "direct-mapped-opt": lambda: PartitionedCache(
        DirectMappedArray(LINES), OPTRanking(),
        make_scheme("unpartitioned"), PARTS, track_eviction_futility=False),
}

#: Fig. 6b's pairings, the same two organizations under exact LRU, built
#: as fig6 builds them (no eviction futility recorded).
LRU_CONFIGS = {
    "full-assoc-lru": lambda: PartitionedCache(
        FullyAssociativeArray(LINES), LRURanking(),
        make_scheme("full-assoc"), PARTS, track_eviction_futility=False),
    "direct-mapped-lru": lambda: PartitionedCache(
        DirectMappedArray(LINES), LRURanking(),
        make_scheme("unpartitioned"), PARTS, track_eviction_futility=False),
}

#: Fig. 4's pairings: exact LRU on a random-candidates array with R = 16,
#: under analytical FS and PF, built as fig4 builds them (eviction
#: futility recorded: fig4 reports associativity).
RANDCAND_CONFIGS = {
    "randcand-fs": lambda: PartitionedCache(
        RandomCandidatesArray(LINES, WAYS, seed=0), LRURanking(),
        make_scheme("fs", alphas=[1.0, 2.0]), PARTS),
    "randcand-pf": lambda: PartitionedCache(
        RandomCandidatesArray(LINES, WAYS, seed=0), LRURanking(),
        make_scheme("pf"), PARTS),
}
ALL_CONFIGS = {**CONFIGS, **OPT_CONFIGS, **LRU_CONFIGS, **RANDCAND_CONFIGS}
#: The configs whose caches run the native access kernel.
NATIVE_CONFIGS = sorted({**OPT_CONFIGS, **LRU_CONFIGS})


def with_next_use(warm, stream):
    """``warm`` and ``stream`` as ``(addr, part, next_use)`` accesses:
    each partition's accesses form one thread-local trace (warm-up first)
    annotated by :func:`annotate_next_use`, as the trace feeders do."""
    both = warm + stream
    per_part = {}
    for addr, part in both:
        per_part.setdefault(part, []).append(addr)
    next_use = {p: iter(annotate_next_use(a)) for p, a in per_part.items()}
    out = [(addr, part, next(next_use[part])) for addr, part in both]
    return out[:len(warm)], out[len(warm):]


def drive(cache, stream):
    access = cache.access
    for addr, part in stream:
        access(addr, part)


def drive_opt(cache, stream):
    access = cache.access
    for addr, part, next_use in stream:
        access(addr, part, next_use)


def workload(label):
    """``(feed, measured stream, warm-up stream)`` for one config."""
    stream = make_stream()
    warm = make_stream(WARM_ACCESSES, seed=WARM_SEED)
    if label in OPT_CONFIGS:
        warm, stream = with_next_use(warm, stream)
        return drive_opt, stream, warm
    return drive, stream, warm


def measure(factory, stream, warm, rounds=ROUNDS, feed=drive):
    """Best-of-``rounds`` lines/sec for one configuration."""
    best = None
    for _ in range(rounds):
        cache = factory()
        feed(cache, warm)
        t0 = time.perf_counter()
        feed(cache, stream)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    cache.check_invariants()
    return len(stream) / best


def spin(loops):
    """Wall time of a fixed pure-Python spin loop (machine-speed proxy)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc += i
    return time.perf_counter() - t0


def spin_calibration(loops=2_000_000):
    """Best of 3 spins of ``loops`` additions.

    Cross-machine comparisons of lines/sec are meaningless; the regression
    gate compares *work per spin-unit* instead, which cancels most of the
    host-speed difference.  Best of 3 to dodge scheduler noise.
    """
    return min(spin(loops) for _ in range(3))


def measure_normalized(factory, stream, warm, rounds, feed,
                       loops=2_000_000):
    """Best-of-``rounds`` lines per spin-unit for one configuration.

    Each round times half of a ``loops``-addition spin right before its
    feed and half right after, so the spin sees the same host load as the
    lines it normalizes; the best round wins, as in :func:`measure`.
    """
    best = 0.0
    for _ in range(rounds):
        cache = factory()
        feed(cache, warm)
        before = spin(loops // 2)
        t0 = time.perf_counter()
        feed(cache, stream)
        dt = time.perf_counter() - t0
        after = spin(loops // 2)
        best = max(best, len(stream) / dt * (before + after))
    cache.check_invariants()
    return best


def test_benchmark_covers_every_scheme():
    assert sorted(CONFIGS) == available_schemes()


@pytest.mark.parametrize("label", sorted(ALL_CONFIGS))
def test_access_throughput(benchmark, label):
    feed, stream, warm = workload(label)
    cache = ALL_CONFIGS[label]()
    feed(cache, warm)
    benchmark.pedantic(feed, args=(cache, stream), rounds=3,
                       iterations=1, warmup_rounds=0)
    cache.check_invariants()
    benchmark.extra_info["accesses_per_round"] = ACCESSES


@pytest.mark.skipif(not BENCH_JSON.exists(),
                    reason="no committed BENCH_throughput.json")
def test_throughput_regression():
    """CI smoke: fail when throughput regresses >30% vs the committed
    numbers (spin-calibrated, so a slower CI host does not false-alarm).

    Every timed round is normalized by its own spin
    (:func:`measure_normalized`), so host load that drifts between
    rounds, or between the spin and the feed, moves both alike.
    """
    committed = json.loads(BENCH_JSON.read_text())
    ref_spin = committed["calibration_spin_seconds"]
    no_native = native.unavailable()
    failures = []
    for label, entry in sorted(committed["configs"].items()):
        expected = entry.get("after")
        if expected is None or label not in ALL_CONFIGS:
            continue
        if label in NATIVE_CONFIGS and no_native is not None:
            failures.append(
                f"{label}: the native access kernel is missing "
                f"({no_native}), so this config would time the Python "
                f"kernel against the native kernel's committed rate")
            continue
        feed, stream, warm = workload(label)
        # Machine-normalized: lines per spin-unit of compute.
        norm_measured = measure_normalized(ALL_CONFIGS[label], stream, warm,
                                           rounds=3, feed=feed)
        norm_expected = expected * ref_spin
        if norm_measured < 0.7 * norm_expected:
            failures.append(
                f"{label}: normalized {norm_measured:.0f} vs committed "
                f"{norm_expected:.0f} lines per spin-second, floor 70%")
    assert not failures, (
        "throughput regression vs BENCH_throughput.json:\n  "
        + "\n  ".join(failures))


def _emit(out_path: Path, label: str) -> None:
    data = (json.loads(out_path.read_text()) if out_path.exists()
            else {"benchmark": "benchmarks/test_simulator_throughput.py",
                  "metric": "single-thread cache-access lines/sec "
                            "(best of %d)" % ROUNDS,
                  "workload": WORKLOAD, "configs": {}})
    data["calibration_spin_seconds"] = spin_calibration()
    for name in sorted(ALL_CONFIGS):
        feed, stream, warm = workload(name)
        lps = measure(ALL_CONFIGS[name], stream, warm, feed=feed)
        data["configs"].setdefault(name, {})[label] = round(lps, 1)
        print(f"{name:16s} {label}: {lps:>10.0f} lines/s", flush=True)
    speedups = []
    for name, entry in sorted(data["configs"].items()):
        if entry.get("before") and entry.get("after"):
            entry["speedup"] = round(entry["after"] / entry["before"], 3)
            speedups.append(entry["speedup"])
    if speedups:
        geomean = 1.0
        for s in speedups:
            geomean *= s
        data["geomean_speedup"] = round(geomean ** (1.0 / len(speedups)), 3)
        print(f"geomean speedup: {data['geomean_speedup']}x")
    out_path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        description="Measure per-scheme throughput into BENCH_throughput.json")
    parser.add_argument("--out", type=Path, default=BENCH_JSON)
    parser.add_argument("--label", choices=("before", "after"),
                        default="after")
    args = parser.parse_args()
    sys.exit(_emit(args.out, args.label))
