"""Determinism smoke test: the cache-soundness invariant, end to end.

The content-addressed result cache (:mod:`repro.runner.cache`) is only
sound if a cell's result is a pure function of its config + seed; the
byte-identical ``--jobs N`` guarantee additionally requires the
*serialized* form to be stable.  reprolint (DET001, DET002, DET004 and
TNT001) approximates this statically; this test checks it dynamically
by running real cells twice in-process — reseeding exactly as a queue
worker does — and comparing the pickled bytes the cache would store.
"""

import pickle

from repro.experiments import get_experiment
from repro.runner import cell_key
from repro.runner.worker import _seed_from_key


def _run_pickled(cell) -> bytes:
    """Execute one cell the way a queue worker would, returning the
    bytes the result store would persist."""
    _seed_from_key(cell_key(cell))
    return pickle.dumps(cell.run(), protocol=pickle.HIGHEST_PROTOCOL)


def test_fig3_cells_are_byte_identical_across_reruns():
    spec = get_experiment("fig3")
    config = spec.config("smoke")
    cells = spec.cells(config)
    assert cells, "fig3 smoke config must decompose into at least one cell"
    for cell in cells:
        assert _run_pickled(cell) == _run_pickled(cell), (
            f"cell {cell.label} is not a pure function of config + seed; "
            f"the result cache would be unsound")


def test_fig3_cell_keys_are_stable_across_reruns():
    spec = get_experiment("fig3")
    config = spec.config("smoke")
    first = [cell_key(c) for c in spec.cells(config)]
    second = [cell_key(c) for c in spec.cells(config)]
    assert first == second


def test_fig3_formatted_output_is_byte_identical():
    spec = get_experiment("fig3")
    config = spec.config("smoke")
    assert spec.format(spec.run(config)) == spec.format(spec.run(config))
