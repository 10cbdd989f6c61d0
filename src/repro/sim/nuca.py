"""Banked NUCA L2 latency model (Table II: 4 banks, 8-cycle access,
4-cycle average L1-to-L2 network latency).

Addresses are interleaved across banks by low-order line-address bits.
Each bank is a single-ported server: overlapping accesses to the same bank
queue.  The returned latency for an access is network + access + any bank
queueing delay.
"""

from __future__ import annotations

from typing import List

from ..errors import ConfigurationError
from .config import SystemConfig

__all__ = ["NUCAModel"]


class NUCAModel:
    """Bank-interleaved L2 access latency.

    The timing engine (:mod:`repro.sim.engine`) folds :meth:`access` into
    its loop and writes ``accesses``, ``total_queue_delay`` and the bank
    free times back here; ``tests/sim/test_engine.py`` checks the two
    against each other.
    """

    #: Cycles a bank is busy per access (pipelined tag+data assumed).
    BANK_OCCUPANCY = 1.0

    def __init__(self, config: SystemConfig) -> None:
        if config.l2_banks <= 0:
            raise ConfigurationError(
                f"l2_banks must be positive, got {config.l2_banks}")
        self.banks = int(config.l2_banks)
        self.network_latency = int(config.l1_to_l2_latency)
        self.access_latency = int(config.l2_access_latency)
        self._bank_free_at: List[float] = [0.0] * self.banks
        self.accesses = 0
        self.total_queue_delay = 0.0

    def bank_of(self, addr: int) -> int:
        return addr % self.banks

    def access(self, addr: int, now: float) -> float:
        """L2 lookup latency for ``addr`` starting at cycle ``now``."""
        bank = addr % self.banks
        free_at = self._bank_free_at[bank]
        start = free_at if free_at > now else now
        queue_delay = start - now
        self._bank_free_at[bank] = start + self.BANK_OCCUPANCY
        self.accesses += 1
        self.total_queue_delay += queue_delay
        return self.network_latency + queue_delay + self.access_latency

    def mean_queue_delay(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.total_queue_delay / self.accesses
