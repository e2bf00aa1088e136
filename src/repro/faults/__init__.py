"""Deterministic fault injection for the vSoC reproduction.

Build a :class:`FaultPlan` (what goes wrong, when, with what probability),
hand it to a :class:`FaultInjector` with a seed, and install it against an
emulator. Same plan + same seed ⇒ identical run, so chaos scenarios are
regression tests, not dice rolls.
"""

from repro.faults.injector import FaultInjector, InjectionStats
from repro.faults.plan import (
    BusLoadEvent,
    CopyFaultWindow,
    DeviceCrashEvent,
    DeviceResetEvent,
    DeviceStallEvent,
    FaultPlan,
    TransportFaultWindow,
)

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "InjectionStats",
    "BusLoadEvent",
    "CopyFaultWindow",
    "DeviceCrashEvent",
    "DeviceStallEvent",
    "DeviceResetEvent",
    "TransportFaultWindow",
]
