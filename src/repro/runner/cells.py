"""The unit of schedulable experiment work: the :class:`Cell`.

A figure's sweep (schemes x arrays x partition counts x seeds) is
embarrassingly parallel: every point is an independent simulation whose
inputs are fully described by its config.  Each experiment decomposes
into a list of cells; the runner (:mod:`repro.runner.pool`) executes them
through its work queue — in-process or in worker processes — and hands
the ordered results to the experiment's ``reduce`` function.

Cells must be deterministic and picklable:

* ``fn`` must be a module-level function (pickled by reference, so worker
  processes can import it);
* ``args`` must be built from config dataclasses and plain values — they
  are both pickled to workers and canonically encoded into the cell's
  content-addressed cache key (:func:`repro.runner.cache.cell_key`);
* any randomness inside ``fn`` must derive from seeds in ``args``.  The
  runner additionally reseeds the global ``random``/``numpy`` generators
  per cell from the cell key, identically in sequential and parallel
  execution, so output is byte-identical for any ``--jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Tuple

__all__ = ["Cell"]


@dataclass(frozen=True)
class Cell:
    """One independent point of an experiment's sweep.

    Parameters
    ----------
    experiment:
        Registry name of the owning experiment (``"fig2"``, ...).
    key:
        The cell's coordinates within the sweep, e.g. ``("mcf", 4)``.
        Used for progress labels and deterministic per-cell seeding.
    fn:
        Module-level callable executing the cell.
    args:
        Positional arguments for ``fn`` (typically the experiment config
        plus the sweep coordinates).
    """

    experiment: str
    key: Tuple[Any, ...]
    fn: Callable[..., Any] = field(compare=False)
    args: Tuple[Any, ...] = ()

    @property
    def label(self) -> str:
        """Human-readable progress label, e.g. ``fig2[mcf, 4]``."""
        coords = ", ".join(str(k) for k in self.key)
        return f"{self.experiment}[{coords}]"

    def fingerprint(self) -> Dict[str, Any]:
        """Identity material hashed into the cache key.

        Covers the owning experiment, the executing function (by import
        path, so moving/renaming code invalidates old entries) and the
        full argument tuple.  Encoding of ``args`` happens in
        :func:`repro.runner.cache.cell_key`.
        """
        return {
            "experiment": self.experiment,
            "key": self.key,
            "fn": f"{self.fn.__module__}:{self.fn.__qualname__}",
            "args": self.args,
        }

    def run(self) -> Any:
        """Execute the cell in the current process."""
        return self.fn(*self.args)
