"""Off-chip memory controller model (the MCU row of Table II).

Latency model: each line fill costs the zero-load latency (200 cycles)
plus any queueing delay imposed by the bandwidth limit.  Bandwidth is a
single-server token model: at 32 GB/s and 2 GHz the channel moves 16 bytes
per cycle, so one 64B line occupies the channel for 4 cycles; requests
arriving faster than that queue up.  This is the standard first-order MCU
model for trace-driven LLC studies — misses see growing latency as the mix
becomes bandwidth-bound, which is what couples the threads in Fig. 7's
QoS experiments.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from .config import SystemConfig

__all__ = ["MemoryController"]


class MemoryController:
    """Bandwidth-limited, fixed-latency memory channel.

    The timing engine (:mod:`repro.sim.engine`) folds :meth:`request` and
    :meth:`writeback` into its loop and writes the counters and the
    channel's free time back here; ``tests/sim/test_engine.py`` checks
    the two against each other.
    """

    def __init__(self, config: SystemConfig) -> None:
        self.latency = int(config.memory_latency)
        self.cycles_per_line = float(config.memory_cycles_per_line)
        if self.cycles_per_line <= 0:
            raise ConfigurationError("memory bandwidth model is degenerate")
        self._channel_free_at = 0.0
        #: Total demand line transfers served.
        self.requests = 0
        #: Total writeback transfers served.
        self.writebacks = 0
        #: Accumulated queueing delay (cycles) across all demand requests.
        self.total_queue_delay = 0.0

    def request(self, now: float) -> float:
        """Issue a line fill at cycle ``now``; returns its total latency."""
        start = self._channel_free_at if self._channel_free_at > now else now
        queue_delay = start - now
        self._channel_free_at = start + self.cycles_per_line
        self.requests += 1
        self.total_queue_delay += queue_delay
        return queue_delay + self.latency

    def writeback(self, now: float) -> None:
        """Post a dirty-line writeback at cycle ``now``.

        Writebacks are off the load critical path (the core does not wait
        for them) but occupy the channel, delaying later demand fills.
        """
        start = self._channel_free_at if self._channel_free_at > now else now
        self._channel_free_at = start + self.cycles_per_line
        self.writebacks += 1

    def mean_queue_delay(self) -> float:
        """Average queueing delay per request (0 when idle)."""
        if self.requests == 0:
            return 0.0
        return self.total_queue_delay / self.requests

    def utilization(self, elapsed_cycles: float) -> float:
        """Fraction of channel time busy over ``elapsed_cycles``."""
        if elapsed_cycles <= 0:
            return 0.0
        transfers = self.requests + self.writebacks
        return min(1.0, transfers * self.cycles_per_line / elapsed_cycles)
