"""Wall-clock fixture for DET002's allow-list.

The CLI stamps its progress and timing lines with ``time.time()``,
sanctioned only under the virtual path
``repro/experiments/__main__.py``.  The same code anywhere else — the
coordinator, any store module, any result-producing module — must trip
DET002.
"""

import time


def started() -> float:
    return time.time()


def elapsed_since(start: float) -> float:
    return time.time() - start


def deadline(delay: float) -> float:
    return time.time() + delay
