"""Half of the TNT001 acceptance pair: a *sanctioned* wall-clock read.

Linted per-file under its virtual path (``repro/experiments/__main__.py``)
this module is completely clean: DET002 explicitly allows the CLI's
wall-clock reads, and nothing here hashes or stores the value.  The
leak only exists across the module boundary — see
``tnt001_clock_sink.py``.
"""

import time


def backoff_stamp(delay):
    """Wall-clock end of a wait (sanctioned: progress timing)."""
    return time.time() + delay
