"""Figure-sweep benchmark: what a user pays to regenerate a figure.

Usage::

    python3 perfbench/run.py --workload randcand --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all        # every workload, both modes

Every sample is one figure sweep in a fresh interpreter on a fresh, empty
``local`` store (``sweep.py``), run in-process through
``ExperimentSpec.run``.  Workloads and their paper-shape checks live in
``workloads.py``.

``--trace 0`` measures the end-to-end metrics with nothing wrapped: one
untimed counting sweep (which also warms the byte-code cache), then timed
sweeps until ``--seconds`` have passed (at least two), then extra
set-up-only starts.  Each metric is the median of its samples.

Times are host-calibrated.  On a shared 2-vCPU host the same sweep's
wall time drifts by +-25% over minutes, far more than the regressions the
benchmark must catch, and it drifts together with any Python code.  So a
short dict-and-list probe (``host_probe``) runs before and after every
sample, and each sample's wall time is scaled by ``REFERENCE_PROBE_S``
over the probe time measured around it: the figure is the sample's wall
time on a host whose probe takes ``REFERENCE_PROBE_S``.  The raw wall
times are printed beside them.

``--trace 1`` measures the per-layer split: an untraced inline reference
sweep, a traced inline sweep (``tracer.py``) and, for a pooled workload, a
pooled sweep timing the runner and the store.  The traced sweep must
reproduce the reference's rendered-figure digest and leave every access
kernel's source unchanged, and its layers must explain at least 90% of
its wall time.

Every cell and every output check is one operation; a failed check is a
failed operation.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status:
0 when every check passed, 1 when one failed, 2 when the benchmark could
not run at all (for example, no ``src/repro`` next to this directory).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

sys.path.insert(0, str(HERE))
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

#: Timed sweeps per run, at least, whatever ``--seconds`` says.
MIN_TIMED = 2
#: Extra set-up-only interpreter starts per untraced run.
SETUP_STARTS = 8
#: ``host_probe`` time of the host the calibrated figures refer to (the
#: probe's typical time on the 2-vCPU Xeon host the benchmark was built on,
#: see reference.json).
REFERENCE_PROBE_S = 0.08
#: A traced run whose layers explain less of its wall time fails.
MIN_ATTRIBUTION = 0.9
SWEEP_TIMEOUT_S = 170

#: The metrics a run emits, with their units, as BENCHMARK.json declares
#: them: end-to-end ones with ``--trace 0``, per-layer ones with
#: ``--trace 1``.
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in BENCH["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCH["per_layer"]]
UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}

ACCURACY = ("accuracy.fig4_aef_err", "accuracy.fig5_mad_ratio",
            "accuracy.fig7_fs_over_vantage", "accuracy.fig7_fs_over_prism")


class Report:
    """Metrics and operation outcomes of one benchmark run."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.metrics: Dict[str, float] = {}
        self.cells = 0
        self.checks: List[Tuple[str, bool, str]] = []
        self.notes: List[str] = []

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, bool(passed), detail))

    @property
    def attempted(self) -> int:
        return self.cells + len(self.checks)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.checks if not ok)

    def add_sweep(self, out: Dict[str, Any], label: str) -> None:
        """Count a finished sweep's cells and record its output checks
        (a sweep whose cell raised never returns, so its cells all
        completed)."""
        self.cells += out["cells"]
        for name, ok, detail in out["checks"]:
            self.check(f"{label}: {name}", ok, detail)

    def result(self, names) -> Dict[str, Any]:
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {n: {"value": self.metrics[n], "unit": UNITS[n]}
                            for n in names}}


def clean_env() -> Dict[str, str]:
    """This process's environment without any ``REPRO_*`` variable (no
    telemetry, tracing, fault plans or cache directory leak into a
    measured sweep or its pool workers)."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(WORK)
    return env


def sweep(mode: str, workload: str, seed: int, scale: str, jobs: int,
          env: Dict[str, str]) -> Dict[str, Any]:
    """Run ``sweep.py`` once on a fresh store; its JSON plus ``setup_s``."""
    store = tempfile.mkdtemp(prefix="store-", dir=WORK)
    try:
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "sweep.py"), mode, workload,
             str(seed), scale, str(jobs), store],
            env=env, cwd=str(ROOT), capture_output=True, text=True,
            timeout=SWEEP_TIMEOUT_S)
    finally:
        shutil.rmtree(store, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{mode} sweep of {workload} failed "
                           f"(exit {proc.returncode}):\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["setup_end"] - spawned
    return out


def host_probe(n: int = 150_000) -> float:
    """Median of three runs of a fixed dict-and-list loop: the host's
    current speed for the kind of code the simulator runs (hash lookups,
    list appends, bytecode dispatch over a working set larger than the
    CPU caches).  Like the spin loop of
    ``benchmarks/test_simulator_throughput.py``, but memory-bound enough
    to slow down when the host's neighbours contend for caches."""
    times = []
    for _ in range(3):
        table: Dict[int, List[int]] = {}
        recent: List[List[int]] = []
        t0 = time.perf_counter()
        for i in range(n):
            key = (i * 2654435761) & 0x3FFFF
            slot = table.get(key)
            if slot is None:
                table[key] = [i]
            else:
                slot.append(i)
                recent.append(slot)
                if len(recent) > 4096:
                    del recent[:2048]
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def compare_pins(report: Report, seed: int, scale: str, digest: str,
                 counts: Dict[str, int]) -> None:
    """Simulated statistics against the pins for this seed.

    A mismatch is reported, not failed: a deliberate change of the
    simulated system moves the pins while every paper check still holds.
    """
    reference = json.loads((HERE / "reference.json").read_text())
    pins = (reference["pins"].get(report.workload, {}).get(str(seed))
            if scale == "bench" else None)
    mismatches = 0
    if pins is not None:
        actual = dict(counts, digest=digest)
        for key, want in sorted(pins.items()):
            if actual.get(key) != want:
                mismatches += 1
                report.notes.append(f"pin {key}: {actual.get(key)} "
                                    f"(pinned {want})")
        if not mismatches:
            report.notes.append(f"simulated statistics match the pins of "
                                f"seed {seed}")
    report.metrics["bench.pin_mismatches"] = mismatches


def run_untraced(name: str, seed: int, seconds: float, scale: str,
                 env: Dict[str, str]) -> Report:
    wl = workloads.WORKLOADS[name]
    report = Report(name)
    count = sweep("count", name, seed, scale, 1, env)
    report.add_sweep(count, "counting sweep")
    probes = [host_probe()]
    timed = []
    start = time.monotonic()
    while len(timed) < MIN_TIMED or time.monotonic() - start < seconds:
        out = sweep("timed", name, seed, scale, wl.jobs, env)
        probes.append(host_probe())
        out["scale"] = REFERENCE_PROBE_S / statistics.mean(probes[-2:])
        label = f"timed sweep {len(timed) + 1}"
        report.add_sweep(out, label)
        report.check(f"{label}: digest repeats",
                     out["digest"] == count["digest"],
                     f"{out['digest'][:16]} == {count['digest'][:16]}")
        timed.append(out)
    starts = [sweep("setup", name, seed, scale, wl.jobs, env)
              for _ in range(SETUP_STARTS)]
    probes.append(host_probe())
    for out in starts:
        out["scale"] = REFERENCE_PROBE_S / statistics.mean(probes[-2:])
    sweep_s = statistics.median(o["sweep_s"] * o["scale"] for o in timed)
    counts = count["counts"]
    report.metrics.update({
        "sweep_s": sweep_s,
        "accesses_per_s": counts["cache.access_calls"] / sweep_s,
        "setup_s": statistics.median(o["setup_s"] * o["scale"]
                                     for o in timed + starts),
        "peak_rss_mb": statistics.median(o["rss_mb"] for o in timed),
        "error_rate": report.failed / report.attempted,
    })
    report.metrics.update({k: count["accuracy"].get(k, 0.0)
                           for k in ACCURACY})
    report.notes.append(
        f"{len(timed)} timed sweeps, {len(timed) + len(starts)} set-up "
        f"samples; uncalibrated medians: sweep "
        f"{statistics.median(o['sweep_s'] for o in timed):.4f} s, set-up "
        f"{statistics.median(o['setup_s'] for o in timed + starts):.4f} s; "
        f"host probe {min(probes):.4f}-{max(probes):.4f} s "
        f"(reference {REFERENCE_PROBE_S} s)")
    report.notes.append(
        f"digest {count['digest']}; "
        + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    compare_pins(report, seed, scale, count["digest"], counts)
    return report


def run_traced(name: str, seed: int, scale: str,
               env: Dict[str, str]) -> Report:
    wl = workloads.WORKLOADS[name]
    report = Report(name)
    # The inline reference doubles as the runner/store sweep when the
    # workload itself runs inline.
    ref = sweep("runner" if wl.jobs == 1 else "timed", name, seed, scale, 1,
                env)
    traced = sweep("traced", name, seed, scale, 1, env)
    sweeps = [("reference sweep", ref), ("traced sweep", traced)]
    pooled = ref
    if wl.jobs > 1:
        pooled = sweep("runner", name, seed, scale, wl.jobs, env)
        sweeps.append(("pooled sweep", pooled))
    for label, out in sweeps:
        report.add_sweep(out, label)
        if out is not ref:
            report.check(f"{label}: digest equals the untraced one",
                         out["digest"] == ref["digest"],
                         f"{out['digest'][:16]} == {ref['digest'][:16]}")

    layers = traced["layers"]

    def calls(layer):
        return int(layers.get(layer, [0, 0.0, 0.0])[0])

    def self_s(layer):
        return layers.get(layer, [0, 0.0, 0.0])[2]

    def ns_per(seconds, n):
        return seconds / n * 1e9 if n else 0.0

    counts = traced["counts"]
    m = report.metrics
    m["trace.synth_s"] = self_s("trace.synth")
    m["trace.synth_accesses"] = counts.get("trace.synth_accesses", 0)
    m["trace.synth_ns"] = ns_per(m["trace.synth_s"],
                                 m["trace.synth_accesses"])
    m["trace.annotate_s"] = self_s("trace.annotate")
    m["trace.feed_s"] = self_s("trace.feed")
    m["cache.access_calls"] = calls("cache.access")
    m["cache.misses"] = counts.get("cache.misses", 0)
    m["cache.access_s"] = self_s("cache.access")
    m["cache.access_ns"] = ns_per(m["cache.access_s"],
                                  m["cache.access_calls"])
    m["cache.builds"] = counts.get("cache.builds", 0)
    m["cache.build_s"] = self_s("cache.build")
    m["arrays.candidates_calls"] = calls("arrays.candidates")
    m["arrays.candidates_s"] = self_s("arrays.candidates")
    m["arrays.candidate_ns"] = ns_per(m["arrays.candidates_s"],
                                      counts.get("arrays.candidates", 0))
    m["schemes.choose_calls"] = calls("schemes.choose")
    m["schemes.choose_s"] = self_s("schemes.choose")
    m["schemes.choose_ns"] = ns_per(m["schemes.choose_s"],
                                    m["schemes.choose_calls"])
    m["futility.upkeep_calls"] = calls("futility.upkeep")
    m["futility.upkeep_s"] = self_s("futility.upkeep")
    m["futility.query_calls"] = calls("futility.query")
    m["futility.query_s"] = self_s("futility.query")
    m["sim.events"] = calls("sim.nuca")
    m["sim.engine_s"] = self_s("sim.engine")
    m["sim.nuca_s"] = self_s("sim.nuca")
    m["sim.memory_s"] = self_s("sim.memory")
    m["analysis.s"] = self_s("analysis")
    m["experiments.render_s"] = self_s("experiments.render")
    m.update(pooled["runner"])

    wall = traced["sweep_s"]
    explained = sum(self_s(layer) for layer in tracing.ATTRIBUTED)
    m["bench.attribution_frac"] = explained / wall
    m["bench.unattributed_s"] = wall - explained
    m["bench.trace_overhead_frac"] = wall / ref["sweep_s"] - 1.0
    m["bench.probe_s"] = host_probe()
    uncovered = sorted(
        (s for s in traced["spans"] if s["layer"] not in tracing.ATTRIBUTED),
        key=lambda s: -s["self_s"])
    detail = ", ".join(f"{s['name']} {s['self_s']:.3f}s"
                       for s in uncovered[:3])
    report.check(f"layers explain >= {MIN_ATTRIBUTION:.0%} of the traced "
                 f"sweep", m["bench.attribution_frac"] >= MIN_ATTRIBUTION,
                 f"{m['bench.attribution_frac']:.3f}; largest uncovered: "
                 f"{detail}")
    report.notes.append(f"uncovered {m['bench.unattributed_s']:.3f}s, "
                        f"largest: {detail}")
    spans = WORK / f"spans-{name}-seed{seed}.json"
    spans.write_text(json.dumps({"layers": layers,
                                 "spans": traced["spans"]}))
    report.notes.append(f"spans of the traced sweep: "
                        f"{spans.relative_to(ROOT)}")
    compare_pins(report, seed, scale, traced["digest"], {
        "cache.access_calls": m["cache.access_calls"],
        "cache.misses": m["cache.misses"],
        "trace.synth_accesses": m["trace.synth_accesses"]})
    m.update({k: ref["accuracy"].get(k, 0.0) for k in ACCURACY})
    m["error_rate"] = report.failed / report.attempted
    return report


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: str = "bench") -> Report:
    """One benchmark run (``scale="smoke"`` runs every figure at its
    ``smoke()`` config, for the self-test)."""
    WORK.mkdir(exist_ok=True)
    env = clean_env()
    if trace:
        return run_traced(name, seed, scale, env)
    return run_untraced(name, seed, seconds, scale, env)


def print_report(report: Report, names) -> None:
    print(f"== {report.workload}")
    for name in names:
        print(f"  {name:32s} {report.metrics[name]:>16.6g} {UNITS[name]}")
    for note in report.notes:
        print(f"  note: {note}")
    for name, ok, detail in report.checks:
        if not ok:
            print(f"  FAILED {name}: {detail}")
    print(f"  {report.attempted} operations, {report.failed} failed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: nothing to measure: no {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    runs = ([(args.workload, bool(args.trace))] if args.workload != "all"
            else [(w, t) for w in workloads.WORKLOADS for t in (False, True)])
    reports = []
    try:
        for name, trace in runs:
            report = run_workload(name, args.seed, args.seconds, trace)
            names = PER_LAYER if trace else END_TO_END
            print_report(report, names if trace else
                         names + ["error_rate", *ACCURACY])
            reports.append((report, names))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    results = [(r, r.result(names)) for r, names in reports]
    if len(results) == 1:
        result = results[0][1]
    else:
        result = {"correct": all(res["correct"] for _, res in results),
                  "attempted": sum(res["attempted"] for _, res in results),
                  "failed": sum(res["failed"] for _, res in results),
                  "metrics": {f"{r.workload}/{n}": v for r, res in results
                              for n, v in res["metrics"].items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
