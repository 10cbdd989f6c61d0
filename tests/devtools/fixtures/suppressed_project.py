"""Project-phase suppression fixture: cross-module hazards, all silenced.

Each CON001/TNT001 violation below carries a ``disable`` comment
on the finding line, so the *whole-program* phase must honour the same
per-line suppressions the per-file phase does.  Per-file hazards on the
same lines (DET002 on the clock read) are silenced too, keeping the
fixture inert in the directory-walk test.
"""

import hashlib
import threading
import time


class SupProjStore:
    def __init__(self, path):
        self._lock = threading.Lock()
        self._conn = open(path, "rb")  # reprolint: guarded-by=_lock

    def raw(self):
        return self._conn  # reprolint: disable=CON001

    def close(self):
        with self._lock:
            self._conn.close()


def sup_proj_key(blob):
    stamp = time.time()  # reprolint: disable=DET002,DET004
    salted = blob + str(stamp).encode()
    return hashlib.sha256(salted)  # reprolint: disable=TNT001
