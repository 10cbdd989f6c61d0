"""Half of the TNT001 acceptance pair: a *sanctioned* wall-clock read.

Linted per-file under its virtual path (``repro/store/queue.py``) this
module is completely clean: DET002 explicitly allows the queue
module's wall-clock stamps, and nothing here hashes or stores the
value.  The
leak only exists across the module boundary — see
``tnt001_clock_sink.py``.
"""

import time


def backoff_stamp(delay):
    """Wall-clock retry backoff end (sanctioned: compared across
    workers)."""
    return time.time() + delay
