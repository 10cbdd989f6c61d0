"""Half of the TNT001 acceptance pair: the cross-module clock leak.

Per-file, this module is spotless: no clock is read here, so DET002 and
every other syntactic rule stay silent.  Whole-program analysis sees
through it: ``backoff_stamp()`` returns ``time.time()`` two modules away,
and hashing its result keys the cache on the wall clock — TNT001 fires
with the full provenance chain.
"""

import hashlib

from repro.experiments.__main__ import backoff_stamp


def stamped_key(config_blob):
    stamp = backoff_stamp(0.0)
    return hashlib.sha256(config_blob + str(stamp).encode())
