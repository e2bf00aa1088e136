"""Exception hierarchy for the vSoC reproduction.

All library-specific failures derive from :class:`ReproError` so callers can
catch the whole family with one clause. Subclasses are deliberately narrow:
each names the subsystem and the contract that was violated.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class SimulationError(ReproError):
    """The discrete-event kernel detected an inconsistent state."""


class DeadlockError(SimulationError):
    """``run()`` was asked to make progress but every process is blocked."""


class HardwareError(ReproError):
    """A hardware model was misused (unknown device, bad bandwidth, ...)."""


class TransientCopyError(HardwareError):
    """A DMA/bus transfer failed mid-flight; the copy may be retried."""


class DeadlineExceededError(ReproError):
    """An operation outlived its watchdog deadline."""


class DegradedModeError(ReproError):
    """Coherence maintenance keeps failing at the deepest fallback rung."""


class SvmError(ReproError):
    """Shared-virtual-memory contract violation (bad handle, double free)."""


class UnknownRegionError(SvmError):
    """An SVM region ID was not found in the manager's hashtable."""


class AccessStateError(SvmError):
    """begin_access / end_access were called out of order."""


class FenceError(ReproError):
    """Virtual command fence misuse (double signal, unknown fence index)."""


class FenceTableFullError(FenceError):
    """The one-page virtual fence table ran out of recyclable indices."""


class CapabilityError(ReproError):
    """An app needs a device the emulator does not implement (§5.3)."""


class ConfigurationError(ReproError):
    """An experiment or model was configured with invalid parameters."""


class InvariantViolation(ReproError):
    """The runtime auditor caught a coherence/ordering invariant breach.

    Carries structured context so CI and the ``recover`` report can point at
    the exact region/fence/edge that went wrong rather than a bare message.
    """

    def __init__(self, invariant: str, message: str, **context: object):
        super().__init__(f"[{invariant}] {message}")
        self.invariant = invariant
        self.context = context


class RecoveryError(ReproError):
    """Device-crash recovery was asked to do something inconsistent
    (unknown device, overlapping recoveries on one device)."""


class SnapshotError(ReproError):
    """Base class for checkpoint/restore failures."""


class SnapshotCorruptError(SnapshotError):
    """A snapshot failed its checksum / framing check and was rejected."""


class SnapshotMismatchError(SnapshotError):
    """Deterministic replay reached the cut point in a different state
    than the snapshot recorded — the run recipe and the snapshot disagree."""

