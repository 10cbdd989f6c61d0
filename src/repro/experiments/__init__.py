"""Per-figure experiment drivers.

Each ``figN`` module reproduces one figure of the paper's evaluation; see
DESIGN.md section 4 for the experiment index.  Every config dataclass has
``paper()`` / ``scaled()`` / ``smoke()`` constructors (see
:mod:`repro.experiments.common`).

Every experiment is described by an
:class:`~repro.experiments.registry.ExperimentSpec` — config class, sweep
decomposition (``cells``), ordered recombination (``reduce``) and
paper-style renderer (``format``) — registered in
:mod:`repro.experiments.registry` and runnable in parallel with on-disk
memoization through :mod:`repro.runner`.
"""

from .common import (
    ADDRESS_SPACING,
    DEFAULT_SCALE,
    duplicated_traces,
    format_table,
    mixed_traces,
)
from .fig2 import Fig2Config, Fig2Result, format_fig2, run_fig2
from .fig3 import Fig3Config, Fig3Result, format_fig3, run_fig3
from .fig4 import Fig4Config, Fig4Result, format_fig4, run_fig4
from .fig5 import Fig5Config, Fig5Result, format_fig5, run_fig5
from .fig6 import Fig6Config, Fig6Result, format_fig6, run_fig6
from .fig7 import Fig7Config, Fig7Result, format_fig7, run_fig7
from .fig8 import Fig8Config, Fig8Result, format_fig8, run_fig8
from .registry import (
    ExperimentSpec,
    experiment_names,
    get_experiment,
    iter_experiments,
    register_experiment,
)
from .resizing import (
    ResizingConfig,
    ResizingResult,
    format_resizing,
    run_resizing,
)
from .tableii import TableIIConfig, render_table_ii

__all__ = [
    "DEFAULT_SCALE", "ADDRESS_SPACING",
    "duplicated_traces", "mixed_traces",
    "format_table",
    "ExperimentSpec", "register_experiment", "get_experiment",
    "experiment_names", "iter_experiments",
    "Fig2Config", "Fig2Result", "run_fig2", "format_fig2",
    "Fig3Config", "Fig3Result", "run_fig3", "format_fig3",
    "Fig4Config", "Fig4Result", "run_fig4", "format_fig4",
    "Fig5Config", "Fig5Result", "run_fig5", "format_fig5",
    "Fig6Config", "Fig6Result", "run_fig6", "format_fig6",
    "Fig7Config", "Fig7Result", "run_fig7", "format_fig7",
    "Fig8Config", "Fig8Result", "run_fig8", "format_fig8",
    "TableIIConfig", "render_table_ii",
    "ResizingConfig", "ResizingResult", "run_resizing", "format_resizing",
]
