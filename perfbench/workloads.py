"""The benchmark's workloads: which figure sweeps run, on which grid, and
the paper-shape checks their outputs must pass.

Each workload derives its figure configs from the figure's own
``scaled()`` (or, for the self-test, ``smoke()``) constructor with
``dataclasses.replace``: the seed comes from the command line, and the
run-length fields are shortened so one sweep takes a few seconds and a
whole benchmark run fits its time budget.  Capacities, associativities,
thread counts and schemes stay at their ``scaled`` values, so every layer
runs the same code it runs at full ``scaled`` length.

The checks are the paper-shape assertions of ``benchmarks/test_fig4_*``,
``test_fig5_*``, ``test_fig6_*`` and ``test_fig7_qos.py``, ported onto
these grids.  Each returns ``(name, passed, detail)`` triples; a failed
check is a failed operation of the run.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Sequence, Tuple

Check = Tuple[str, bool, str]

#: The seed every figure uses by default.  ``reference.json`` also pins a
#: held-out seed that was not used while choosing the grids and checks.
DEFAULT_SEED = 0


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload (why each exists: BENCHMARK.json and
    ``reference.json``).

    ``figures`` maps a registered experiment name to the field overrides
    applied to its ``scaled()`` config (``smoke`` to its ``smoke()``
    config, for the self-test).  ``jobs`` is the ``RunConfig.jobs`` of the
    timed sweep.
    """

    name: str
    figures: Tuple[Tuple[str, Dict[str, Any]], ...]
    smoke: Tuple[Tuple[str, Dict[str, Any]], ...]
    jobs: int

    def configs(self, seed: int, scale: str = "bench") -> List[Tuple[Any, Any]]:
        """``[(spec, config)]`` for every figure of the workload."""
        from repro.experiments.registry import get_experiment

        out = []
        grid = self.smoke if scale == "smoke" else self.figures
        for name, overrides in grid:
            spec = get_experiment(name)
            base = spec.config("smoke" if scale == "smoke" else "scaled")
            out.append((spec, dataclasses.replace(base, seed=seed,
                                                  **overrides)))
        return out


_FIG7_SCHEMES = ("pf", "vantage", "prism", "fs-feedback")

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="randcand",
        figures=(
            ("fig4", dict(num_insertions=15_000, warmup_insertions=1_500,
                          trace_length=15_000)),
            ("fig5", dict(num_insertions=20_000, warmup_insertions=2_000,
                          trace_length=15_000)),
        ),
        smoke=(("fig4", {}), ("fig5", {})),
        jobs=1,
    ),
    # Not in BENCHMARK.json's set: one run costs ~50 s on a 2-vCPU host
    # (at least two ~12 s sweeps plus a counting sweep), too long for the
    # benchmark's time budget.  Run it by hand with --workload qos32.
    Workload(
        name="qos32",
        figures=(
            # FS's subject-IPC lead over PriSM needs the feedback loop to
            # settle: ~1.5-2% at 100k instructions, under 1% at 80k and
            # reversed at 60k, so the run stays this long.
            ("fig7", dict(subject_counts=(25,), schemes=_FIG7_SCHEMES,
                          trace_length=6_000, instruction_limit=100_000)),
        ),
        smoke=(("fig7", dict(schemes=_FIG7_SCHEMES)),),
        jobs=1,
    ),
    Workload(
        name="assoc-pool",
        figures=(
            ("fig6", dict(benchmarks=("mcf", "gromacs", "cactusadm", "lbm"),
                          cache_sizes_lines=(256, 4096, 8192),
                          trace_length=20_000)),
        ),
        smoke=(("fig6", {}),),
        jobs=2,
    ),
)}


# -- paper-shape checks ------------------------------------------------------

def _check(out: List[Check], name: str, passed: bool, detail: str) -> None:
    out.append((name, bool(passed), detail))


def check_fig4(result) -> List[Check]:
    """Fig. 4: FS keeps R/(R+1) on its unscaled partition and tracks the
    analytic AEF on the scaled one; PF's small partition collapses."""
    out: List[Check] = []
    config = result.config
    ceiling = config.candidates / (config.candidates + 1)
    by = {(m.scheme, m.split): m for m in result.measurements}
    for split in config.size_splits:
        fs, pf = by[("fs", split)], by[("pf", split)]
        tag = f"fig4[{split[0]:.1f}/{split[1]:.1f}]"
        _check(out, f"{tag} FS unscaled AEF at R/(R+1)",
               abs(fs.aef[0] - ceiling) < 0.03,
               f"|{fs.aef[0]:.4f} - {ceiling:.4f}| < 0.03")
        _check(out, f"{tag} FS scaled AEF tracks analytic",
               abs(fs.aef[1] - fs.analytic_aef[1]) < 0.04,
               f"|{fs.aef[1]:.4f} - {fs.analytic_aef[1]:.4f}| < 0.04")
        small = 1 if split[1] < split[0] else 0
        _check(out, f"{tag} FS beats PF on the small partition",
               fs.aef[small] > pf.aef[small],
               f"{fs.aef[small]:.4f} > {pf.aef[small]:.4f}")
    if ("pf", (0.9, 0.1)) in by and ("pf", (0.6, 0.4)) in by:
        a, b = by[("pf", (0.9, 0.1))].aef[1], by[("pf", (0.6, 0.4))].aef[1]
        _check(out, "fig4 PF AEF falls with partition size", a < b,
               f"{a:.4f} < {b:.4f}")
    return out


def fig4_aef_error(result) -> float:
    """Largest |measured - analytic| AEF over FS's partitions."""
    return max(abs(m.aef[p] - m.analytic_aef[p])
               for m in result.measurements if m.analytic_aef
               for p in range(2))


def check_fig5(result) -> List[Check]:
    """Fig. 5: PF sizes near-exactly; FS deviates boundedly.

    The paper's "FS deviation worst at I1 = 0.5" is a thin margin (67.4 vs
    59.8 lines) that flips on about one seed in eight even at the full
    ``scaled`` length, so it is reported as ``accuracy.fig5_mad_ratio``
    instead of checked.
    """
    out: List[Check] = []
    config = result.config
    partition = config.num_lines // 2
    for split in config.insertion_splits:
        i1 = split[0]
        pf, fs = result.mad_of("pf", i1), result.mad_of("fs", i1)
        tag = f"fig5[I1={i1:.1f}]"
        _check(out, f"{tag} PF MAD below 1.5 lines", pf < 1.5,
               f"{pf:.3f} < 1.5")
        _check(out, f"{tag} FS MAD above PF", fs > pf,
               f"{fs:.3f} > {pf:.3f}")
        _check(out, f"{tag} FS MAD under 5% of the partition",
               fs < 0.05 * partition, f"{fs:.3f} < {0.05 * partition:.1f}")
    return out


def check_fig6(result) -> List[Check]:
    """Fig. 6: OPT shows mcf sensitive, gromacs sensitive only below its
    working set and lbm flat; LRU compresses it and can invert
    cactusADM."""
    out: List[Check] = []
    config = result.config
    sizes = config.cache_sizes_lines
    small, big = sizes[0], sizes[-1]
    su = result.speedup
    if "opt" in config.rankings:
        for size in sizes:
            if "lbm" in config.benchmarks:
                v = su("opt", "lbm", size)
                _check(out, f"fig6a lbm flat at {size} lines", v < 1.05,
                       f"{v:.4f} < 1.05")
        if "mcf" in config.benchmarks:
            v = su("opt", "mcf", small)
            _check(out, "fig6a mcf sensitive at the smallest size", v > 1.2,
                   f"{v:.4f} > 1.2")
        if "gromacs" in config.benchmarks:
            a, b = su("opt", "gromacs", small), su("opt", "gromacs", big)
            _check(out, "fig6a gromacs gains only below its working set",
                   a > b, f"{a:.4f} > {b:.4f}")
            _check(out, "fig6a gromacs flat at the largest size", b < 1.05,
                   f"{b:.4f} < 1.05")
    if "lru" in config.rankings:
        if "opt" in config.rankings and "mcf" in config.benchmarks:
            a, b = su("lru", "mcf", small), su("opt", "mcf", small)
            _check(out, "fig6b LRU compresses mcf", a < b,
                   f"{a:.4f} < {b:.4f}")
        if "cactusadm" in config.benchmarks and len(sizes) >= 3:
            worst = min(su("lru", "cactusadm", s) for s in sizes)
            _check(out, "fig6b associativity hurts cactusADM under LRU",
                   worst < 1.0, f"{worst:.4f} < 1.0")
        if "lbm" in config.benchmarks:
            v = su("lru", "lbm", small)
            _check(out, "fig6b lbm flat", v < 1.05, f"{v:.4f} < 1.05")
    return out


def check_fig7(result) -> List[Check]:
    """Fig. 7: PF/FS hold subjects at target, FS keeps associativity PF
    loses, FS beats Vantage and PriSM on subject IPC, PriSM is abnormal."""
    out: List[Check] = []
    config = result.config
    ranking = config.rankings[0]

    def cells(scheme):
        return result.cells.get((scheme, ranking), {})

    for scheme in ("full-assoc", "pf", "fs-feedback"):
        for n, cell in sorted(cells(scheme).items()):
            _check(out, f"fig7a {scheme} N={n} holds its target",
                   cell.occupancy_ratio > 0.8,
                   f"{cell.occupancy_ratio:.4f} > 0.8")
    for n in config.subject_counts:
        fa, fs, pf = (cells(s).get(n) for s in
                      ("full-assoc", "fs-feedback", "pf"))
        if fa:
            _check(out, f"fig7b full-assoc N={n} AEF is 1",
                   fa.subject_aef > 0.99, f"{fa.subject_aef:.4f} > 0.99")
        if fs and pf:
            _check(out, f"fig7b FS N={n} keeps associativity PF loses",
                   fs.subject_aef > pf.subject_aef + 0.1,
                   f"{fs.subject_aef:.4f} > {pf.subject_aef:.4f} + 0.1")
    for rival, best in fig7_ratios(result).items():
        _check(out, f"fig7c FS beats {rival} on subject IPC", best > 1.0,
               f"{best:.4f} > 1")
    for n, cell in sorted(cells("prism").items()):
        rate = cell.diagnostics.get("abnormality_rate")
        if rate is not None:
            _check(out, f"fig7 PriSM N={n} victim selection abnormal",
                   rate > 0.2, f"{rate:.4f} > 0.2")
    return out


def fig7_ratios(result) -> Dict[str, float]:
    """Best FS-over-rival subject-IPC ratio per rival present."""
    ranking = result.config.rankings[0]
    out = {}
    for rival in ("vantage", "prism"):
        if result.cells.get((rival, ranking)) and \
                result.cells.get(("fs-feedback", ranking)):
            ratios = result.subject_ipc_ratio("fs-feedback", rival, ranking)
            if ratios:
                out[rival] = max(ratios.values())
    return out


CHECKS: Dict[str, Callable[[Any], List[Check]]] = {
    "fig4": check_fig4, "fig5": check_fig5,
    "fig6": check_fig6, "fig7": check_fig7,
}


def check_results(results: Sequence[Tuple[str, Any]]) -> Tuple[
        List[Check], Dict[str, float]]:
    """Run every figure's checks; also return the accuracy figures
    (error against the repo's reference values)."""
    checks: List[Check] = []
    accuracy: Dict[str, float] = {}
    for name, result in results:
        checks.extend(CHECKS[name](result))
        if name == "fig4":
            accuracy["accuracy.fig4_aef_err"] = fig4_aef_error(result)
        if name == "fig5" and len(result.config.insertion_splits) == 2:
            accuracy["accuracy.fig5_mad_ratio"] = (
                result.mad_of("fs", 0.5) / result.mad_of("fs", 0.9))
        if name == "fig7":
            for rival, best in fig7_ratios(result).items():
                accuracy[f"accuracy.fig7_fs_over_{rival}"] = best
    return checks, accuracy
