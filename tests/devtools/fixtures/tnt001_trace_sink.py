"""Half of the TNT001 trace-identity pair: the cross-module ID leak.

Per-file this module is spotless: no clock is read here.  But
``claim_stamp()`` returns ``time.time()`` from another module, and
folding it into the *name* handed to ``span_id`` keys the span's
identity on the wall clock — two workers replaying the same cell would
mint different span IDs, the stitcher would fork the tree instead of
merging duplicates, and the canonical projection would stop being
byte-identical across ``--jobs``.  The same stamp folded into the
sweep digest would key the sweep's trace ID on the clock.  TNT001's
trace-id derivation sink fires on both, with the full provenance chain.
"""

from repro.experiments.__main__ import claim_stamp
from repro.obs.trace import span_id, sweep_digest


def stamped_span(trace_id, key):
    stamp = claim_stamp()
    return span_id(trace_id, "claim", f"{key}@{stamp:.0f}", 1)


def stamped_sweep(keys):
    return sweep_digest([*keys, str(claim_stamp())])
