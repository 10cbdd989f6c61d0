"""Half of the TNT001 trace-identity pair: a *sanctioned* clock read.

Linted per-file under its virtual path
(``repro/experiments/__main__.py``) this module is clean: DET002 allows
the CLI's wall-clock reads, and nothing here derives an ID from the
value.  The identity bug only
exists across the module boundary — see ``tnt001_trace_sink.py``.
"""

import time


def claim_stamp():
    """Wall-clock start of a cell (sanctioned: progress timing)."""
    return time.time()
