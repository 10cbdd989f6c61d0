"""CMP timing simulation: Table II configuration, memory/NUCA models,
private L1 filter and the multiprogrammed trace-replay engine."""

from .config import TABLE_II, SystemConfig, scaled_config
from .engine import (
    MultiprogramSimulator,
    SimulationResult,
    ThreadResult,
    simulate_single_thread,
)
from .l1 import L1Cache, filter_through_l1
from .memory import MemoryController
from .nuca import NUCAModel

__all__ = [
    "SystemConfig",
    "TABLE_II",
    "scaled_config",
    "MemoryController",
    "NUCAModel",
    "L1Cache",
    "filter_through_l1",
    "MultiprogramSimulator",
    "SimulationResult",
    "ThreadResult",
    "simulate_single_thread",
]
