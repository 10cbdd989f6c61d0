"""Figure-sweep wall times into ``BENCH_figures.json``.

Runs ``python -m repro.experiments <fig> --scale scaled --jobs 1
--no-cache`` for each figure in ``FIGURES``, each in a fresh interpreter,
and adds one run per figure under one label (``before`` or ``after``):

* ``wall_s``: the subprocess's wall time, start to exit;
* ``spin_s``: the host's speed around it, as the best of three 2M-addition
  spins before and after (the machine-speed proxy of
  ``test_simulator_throughput.py``);
* ``stdout_sha256``: the figure table's digest, so a change that claims
  the same bytes shows it.

Each label keeps its runs and their median ``wall_s`` and ``spin_s``.
With both labels recorded, each figure gains ``ratio`` (after over before
median wall time) and ``spin_ratio`` (the same for spin time, to read the
host's drift against).  Measure the parent tree and the change in one
session, alternating them run by run, and delete the file to start a new
session::

    python benchmarks/figure_walltime.py --src PARENT/src --label before
    python benchmarks/figure_walltime.py --label after

``make bench-figures`` runs the second form (``BENCH_LABEL=before`` and
``BENCH_SRC=...`` for the first).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = ROOT / "BENCH_figures.json"
FIGURES = ("fig2", "fig4", "fig5", "fig6")
COMMAND = ["--scale", "scaled", "--jobs", "1", "--no-cache"]


def spin(loops=2_000_000):
    """Best of three spins of ``loops`` additions (seconds)."""
    best = None
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(loops):
            acc += i
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def run_figure(fig, src):
    """Wall time, spin time and stdout digest of one fresh-process run."""
    env = dict(os.environ, PYTHONPATH=str(src))
    before = spin()
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro.experiments", fig] + COMMAND,
        env=env, cwd=str(ROOT), capture_output=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"{fig} failed (exit {proc.returncode}):\n"
                 + proc.stderr.decode(errors="replace"))
    after = spin()
    return {"wall_s": round(wall, 2),
            "spin_s": round((before + after) / 2, 4),
            "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", choices=("before", "after"),
                        default="after")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source tree to run (default: this checkout)")
    args = parser.parse_args(argv)
    data = (json.loads(BENCH_JSON.read_text()) if BENCH_JSON.exists()
            else {"benchmark": "benchmarks/figure_walltime.py",
                  "command": "python -m repro.experiments <fig> "
                             + " ".join(COMMAND),
                  "figures": {}})
    for fig in FIGURES:
        entry = data["figures"].setdefault(fig, {})
        side = entry.setdefault(args.label, {"runs": []})
        run = run_figure(fig, args.src.resolve())
        side["runs"].append(run)
        for key in ("wall_s", "spin_s"):
            side[key] = round(statistics.median(r[key] for r in side["runs"]),
                              4)
        print(f"{fig} {args.label}: {run['wall_s']:.1f} s "
              f"(spin {run['spin_s']:.4f} s)", flush=True)
        if "before" in entry and "after" in entry:
            entry["ratio"] = round(
                entry["after"]["wall_s"] / entry["before"]["wall_s"], 3)
            entry["spin_ratio"] = round(
                entry["after"]["spin_s"] / entry["before"]["spin_s"], 3)
    BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
