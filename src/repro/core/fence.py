"""Virtual command fences (§3.4).

Two fence instructions exist: **signal** — fires when the operations
preceding it in a command queue have finished — and **wait** — blocks the
host executor until the paired signal has fired. They always represent a
happens-before relationship; multiple waits on one signal are allowed.

The *virtual fence table* aggregates fence statuses and is shared with the
guest. §4 limits it to a single memory page to avoid the cost of walking
non-contiguous guest pages from the host, and recycles signalled indices
when the supply of unused ones runs low. Host-side execution maps virtual
fences onto device-specific synchronization primitives (``glFenceSync``
and friends); in the simulation a host executor signals a fence once the
operations queued before it have retired, so no table of primitives is
kept.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, List, Optional

from repro.errors import FenceError, FenceTableFullError
from repro.sim import SimEvent, Simulator
from repro.sim.primitives import Waitable
from repro.units import PAGE_SIZE

#: Bytes of guest-shared state per fence entry (index + status word).
FENCE_ENTRY_BYTES = 8
#: How many entries fit in the one-page table: 4096 / 8 = 512.
FENCE_TABLE_CAPACITY = PAGE_SIZE // FENCE_ENTRY_BYTES
#: Recycling kicks in when unused indices drop below this fraction.
RECYCLE_LOW_WATER = 0.25

#: Value delivered to waiters of a fence that was poisoned instead of
#: signalled — waiters resume normally and must re-validate any state the
#: fence was ordering (the coherence protocols re-check region validity).
POISONED_STATUS = "poisoned"


class FenceState(enum.Enum):
    """Lifecycle of a virtual fence slot."""

    PENDING = "pending"
    SIGNALED = "signaled"
    POISONED = "poisoned"
    RECYCLED = "recycled"


class VirtualFence:
    """One signal/wait pair occupying a slot of the virtual fence table."""

    __slots__ = ("index", "state", "_event", "waiters", "owner", "poison_acked", "first_wait_at", "_sim")

    def __init__(self, sim: Simulator, index: int):
        self.index = index
        self.state = FenceState.PENDING
        self._event = SimEvent(sim, name="fence")
        self.waiters = 0
        #: Virtual device whose command stream will signal this fence —
        #: stamped at allocation time by the emulator so crash recovery can
        #: find the orphans of a dead device.
        self.owner: Optional[str] = None
        #: A poisoned index may only be recycled after the recovery
        #: coordinator acknowledges the poison (reuse-before-ack would let a
        #: stale guest-side status read observe a fresh fence's slot).
        self.poison_acked = False
        self.first_wait_at: Optional[float] = None
        self._sim = sim

    def signal(self) -> None:
        """Mark the preceding operations complete; wakes every waiter.

        Signalling a POISONED fence is a silent no-op: the signal command of
        a crashed device may still flow through the (reset) command queue
        after recovery poisoned the fence, and that zombie echo must not
        double-fire the event nor crash the fresh executor.
        """
        if self.state is FenceState.POISONED:
            return
        if self.state is not FenceState.PENDING:
            raise FenceError(f"fence {self.index} signalled in state {self.state.value}")
        self.state = FenceState.SIGNALED
        self._event.fire(None)

    def poison(self) -> bool:
        """Cancel a pending fence: waiters wake with :data:`POISONED_STATUS`.

        Returns ``True`` if the fence transitioned to POISONED, ``False`` if
        it had already signalled (its happens-before obligation was met, so
        there is nothing to cancel). Poisoning an already-poisoned fence is
        idempotent.
        """
        if self.state is FenceState.POISONED:
            return True
        if self.state is not FenceState.PENDING:
            return False
        self.state = FenceState.POISONED
        self._event.fire(POISONED_STATUS)
        return True

    def wait(self) -> Waitable:
        """Waitable that fires once the paired signal has happened.

        Waiting on a RECYCLED fence is legal and fires immediately: a fence
        is only ever recycled after it signalled, so its happens-before
        obligation is already discharged (this is what makes index
        recycling safe in §4). Waiters of a POISONED fence resume with
        :data:`POISONED_STATUS` instead of deadlocking.
        """
        self.waiters += 1
        if self.first_wait_at is None:
            self.first_wait_at = self._sim.now
        return self._event

    @property
    def signaled(self) -> bool:
        return self.state is FenceState.SIGNALED

    @property
    def poisoned(self) -> bool:
        return self.state is FenceState.POISONED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VirtualFence #{self.index} {self.state.value}>"


class VirtualFenceTable:
    """The page-limited, guest-shared table of virtual fences.

    Allocation hands out fresh indices until the free supply runs low, then
    recycles signalled fences (oldest first), mirroring §4. Allocating with
    every slot pending raises :class:`FenceTableFullError` — back-pressure
    the flow-control layer is expected to prevent.
    """

    def __init__(self, sim: Simulator, capacity: int = FENCE_TABLE_CAPACITY):
        if capacity <= 0:
            raise FenceError("fence table capacity must be positive")
        self._sim = sim
        self.capacity = capacity
        # Fewer free indices than this and allocation recycles first.
        self._low_water = max(1, int(capacity * RECYCLE_LOW_WATER))
        self._slots: Dict[int, VirtualFence] = {}
        self._free: List[int] = list(range(capacity - 1, -1, -1))  # pop() -> 0,1,2...
        self.allocated_total = 0
        self.recycled_total = 0
        self.poisoned_total = 0

    def allocate(self) -> VirtualFence:
        """Allocate a fence slot, recycling signalled entries when low."""
        if len(self._free) < self._low_water:
            self._recycle_signaled()
        if not self._free:
            raise FenceTableFullError(
                f"all {self.capacity} fence slots pending — guest is outrunning the host"
            )
        index = self._free.pop()
        fence = VirtualFence(self._sim, index)
        self._slots[index] = fence
        self.allocated_total += 1
        return fence

    def get(self, index: int) -> VirtualFence:
        try:
            return self._slots[index]
        except KeyError:
            raise FenceError(f"no live fence at index {index}") from None

    def poison_owned(self, owner: str) -> List[VirtualFence]:
        """Poison every pending fence stamped with ``owner``; returns them.

        Called by the recovery coordinator when a virtual device crashes:
        the device's signal commands will never execute, so its outstanding
        fences must release their waiters with a poisoned status.
        """
        poisoned: List[VirtualFence] = []
        for index in sorted(self._slots):
            fence = self._slots[index]
            if fence.owner == owner and fence.state is FenceState.PENDING:
                fence.poison()
                self.poisoned_total += 1
                poisoned.append(fence)
        return poisoned

    def acknowledge_poison(self, index: int) -> None:
        """Mark a poisoned index safe to recycle (recovery completed).

        Reclaiming a poisoned index before acknowledgement would hand a slot
        whose guest-visible status still reads "poisoned" to a fresh fence —
        the reuse-before-signal class of bug this gate exists to prevent.
        """
        fence = self.get(index)
        if fence.state is not FenceState.POISONED:
            raise FenceError(
                f"fence {index} is {fence.state.value}, not poisoned — nothing to acknowledge"
            )
        fence.poison_acked = True

    def _recycle_signaled(self) -> None:
        """Reclaim indices whose fences have signalled (status query done).

        Poisoned indices are reclaimed only after the recovery coordinator
        acknowledged the poison; un-acked poisoned fences stay pinned in the
        table (and keep their guest-visible status readable) even under
        allocation pressure.
        """
        for index in sorted(self._slots):
            fence = self._slots[index]
            if fence.state is FenceState.SIGNALED or (
                fence.state is FenceState.POISONED and fence.poison_acked
            ):
                fence.state = FenceState.RECYCLED
                del self._slots[index]
                self._free.append(index)
                self.recycled_total += 1

    @property
    def live_fences(self) -> int:
        return len(self._slots)

    @property
    def shared_bytes(self) -> int:
        """Guest-shared footprint — bounded by one page by construction."""
        return self.capacity * FENCE_ENTRY_BYTES

    def snapshot_state(self) -> Dict[str, Any]:
        """Deterministic, JSON-able image of the table (checkpointing)."""
        return {
            "capacity": self.capacity,
            "allocated_total": self.allocated_total,
            "recycled_total": self.recycled_total,
            "poisoned_total": self.poisoned_total,
            "free": sorted(self._free),
            "slots": {
                str(index): {
                    "state": fence.state.value,
                    "waiters": fence.waiters,
                    "owner": fence.owner,
                    "poison_acked": fence.poison_acked,
                    "first_wait_at": fence.first_wait_at,
                }
                for index, fence in sorted(self._slots.items())
            },
        }
