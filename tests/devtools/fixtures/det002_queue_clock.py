"""Queue wall-clock fixture for DET002's allow-list.

The work queue stamps claims (``claimed_at``, for cell timeouts) and
retry backoffs (``not_before``) with ``time.time()``, and other worker
processes compare those stamps — sanctioned only under the virtual path
``repro/store/queue.py``.  The same code anywhere else in the store
package (or any result-producing module) must trip DET002.
"""

import time


def claim_stamp() -> float:
    return time.time()


def overdue_before(timeout: float) -> float:
    # Claims stamped before this instant have outlived the timeout.
    return time.time() - timeout


def not_before(delay: float) -> float:
    return time.time() + delay
