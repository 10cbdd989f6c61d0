"""Allocation policies and utility monitors (the software half of cache
capacity management, Section II-A)."""

from .monitors import UtilityMonitor, profile_miss_curve
from .policies import (
    AllocationPolicy,
    EqualSharePolicy,
    QoSPolicy,
    StaticPolicy,
    UtilityBasedPolicy,
)

__all__ = [
    "AllocationPolicy",
    "StaticPolicy",
    "EqualSharePolicy",
    "QoSPolicy",
    "UtilityBasedPolicy",
    "UtilityMonitor",
    "profile_miss_curve",
]
