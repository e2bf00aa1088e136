"""The shared-memory HAL: the Figure 3 interface, verbatim.

``SharedMemoryHal`` is the guest-side veneer apps and system services call:
``alloc`` / ``free`` / ``begin_access`` / ``end_access``, handle-based,
with RO/WO/RW usage and a dirty window. It forwards to the emulator's SVM
manager, attributing CPU-side accesses to the ``"cpu"`` virtual device —
the path the §2.3 measurement sees for pure inter-process communication
(the 1% of regions only touched by app processes).
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.core.region import AccessUsage
from repro.emulators.base import Emulator


class SharedMemoryHal:
    """Guest implementation of the mobile shared-memory interface."""

    def __init__(self, emulator: Emulator):
        self._emulator = emulator
        self.api_calls = 0

    def alloc(self, size: int) -> int:
        """Allocate a shared memory region; returns its handle (Figure 3)."""
        self.api_calls += 1
        return self._emulator.svm_alloc(size)

    def free(self, handle: int) -> None:
        """Free a shared memory region."""
        self.api_calls += 1
        self._emulator.svm_free(handle)

    def begin_access(
        self,
        handle: int,
        usage: AccessUsage,
        nbytes: Optional[int] = None,
        caller: str = "cpu",
    ) -> Generator[Any, Any, float]:
        """Process: begin an access; returns the call's blocking latency.

        ``usage`` selects RO/WO/RW; ``nbytes`` narrows the access to a
        dirty window ("only the region specified by size will be
        accessed"); ``caller`` names the virtual device on whose behalf
        the access happens (defaults to the guest CPU).
        """
        self.api_calls += 1
        location = self._emulator.vdev_location(caller)
        return self._emulator.manager.begin_access(
            caller, handle, usage, location, nbytes=nbytes
        )

    def end_access(self, handle: int, caller: str = "cpu") -> None:
        """End the access to the shared memory."""
        self.api_calls += 1
        self._emulator.manager.end_access(caller, handle)

    def write_cycle(
        self, handle: int, nbytes: Optional[int] = None, caller: str = "cpu"
    ) -> Generator[Any, Any, float]:
        """Process: a full CPU-side write bracket (begin WO + retire + end).

        Convenience for IPC-style usage: the CPU "device" writes directly
        into the region's host-visible mapping, so retirement is immediate.
        """
        latency = yield from self.begin_access(handle, AccessUsage.WRITE, nbytes, caller)
        manager = self._emulator.manager
        if nbytes is None:
            nbytes = manager.get(handle).size
        yield from manager.host_write_retired(
            handle, caller, self._emulator.vdev_location(caller), nbytes
        )
        self.end_access(handle, caller)
        return latency

    def read_cycle(
        self, handle: int, nbytes: Optional[int] = None, caller: str = "cpu"
    ) -> Generator[Any, Any, float]:
        """Process: a full CPU-side read bracket (begin RO + end)."""
        latency = yield from self.begin_access(handle, AccessUsage.READ, nbytes, caller)
        self.end_access(handle, caller)
        return latency
