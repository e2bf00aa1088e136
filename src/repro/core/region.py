"""SVM regions: the unit of shared-virtual-memory management.

An :class:`SvmRegion` corresponds to one allocation through the mobile
shared-memory interface (Figure 3 of the paper). Following §3.2:

* every region gets a unique 64-bit ID at allocation time;
* backing memory is **lazily** allocated per *location* on first access,
  because the accessing device is only known then;
* the guest caches only a sliver of metadata (the size), while the complete
  metadata and resource handles live in the host-side manager.

Locations
---------
Coherence state is tracked per *location*, not per virtual device: a
location is either a physical device's local memory (``"gpu"``), the host's
main memory (``"host"``), or — for the guest-memory architecture of
baseline emulators (§2.2) — the guest's RAM (``"guest"``). The set
``valid_locations`` names every location holding an up-to-date copy; a
write shrinks it to the writer's location (invalidation), a coherence copy
grows it.
"""

from __future__ import annotations

import enum
from typing import AbstractSet, Dict, FrozenSet, Optional, Set, TYPE_CHECKING

from repro.errors import AccessStateError, SvmError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.hw.device import PhysicalDevice
    from repro.hw.memory import MemoryRegion
    from repro.sim.kernel import Process


#: Pseudo-location: the host's main memory (devices without local memory).
HOST_LOCATION = "host"
#: Pseudo-location: guest RAM — only used by the baseline architecture.
GUEST_LOCATION = "guest"

#: The prefetch targets of a region with no copy in flight, shared by all.
_NO_TARGETS: FrozenSet[str] = frozenset()


def location_of(device: "PhysicalDevice") -> str:
    """Coherence location of a physical device.

    Devices with dedicated local memory (discrete GPUs) are their own
    location; everything else reads and writes host main memory directly.
    """
    return device.name if device.local_memory is not None else HOST_LOCATION


class AccessUsage(enum.Enum):
    """The ``usage`` argument of ``begin_access`` (Figure 3): RO / WO / RW."""

    READ = "ro"
    WRITE = "wo"
    READ_WRITE = "rw"

    def __init__(self, value: str) -> None:
        # Plain attributes, not properties: every SVM access reads them.
        self.code = value
        self.reads = value in ("ro", "rw")
        self.writes = value in ("wo", "rw")


class _OpenAccess:
    """Bookkeeping for one in-progress begin_access/end_access bracket."""

    __slots__ = ("vdev", "usage", "nbytes")

    def __init__(self, vdev: str, usage: AccessUsage, nbytes: int):
        self.vdev = vdev
        self.usage = usage
        self.nbytes = nbytes


class SvmRegion:
    """One shared-virtual-memory region and its coherence state.

    Attributes
    ----------
    region_id:
        The unique 64-bit handle (§3.2).
    size:
        Region size in bytes; accesses may touch a smaller dirty window.
    valid_locations:
        Locations currently holding an up-to-date copy.
    last_writer_vdev / last_writer_location:
        Provenance of the newest data — the source coherence copies pull
        from, and the signal end of the region's implicit happens-before
        edge.
    write_complete_time:
        Host-side completion time of the newest write; slack intervals are
        measured from here (§2.3).
    write_fence:
        Fence signalled when the newest write's host execution finished
        (set by the emulator when fences are enabled).
    pending_prefetch:
        The in-flight prefetch process for this region, if any. A reader
        arriving early joins it instead of redoing the copy.
    """

    def __init__(self, region_id: int, size: int):
        if size <= 0:
            raise SvmError(f"region size must be positive, got {size}")
        self.region_id = region_id
        self.size = size
        self.freed = False

        self.valid_locations: Set[str] = set()
        self.last_writer_vdev: Optional[str] = None
        self.last_writer_location: Optional[str] = None
        self.dirty_bytes: int = size
        self.write_complete_time: Optional[float] = None

        self.write_fence = None  # type: Optional[object]
        self.write_in_flight = False
        self.pending_writer_location: Optional[str] = None
        self.pending_prefetch: Optional["Process"] = None
        # Read-only: the prefetch engine hands out its memoized sets.
        self.prefetch_targets: AbstractSet[str] = _NO_TARGETS
        self.prefetch_predicted_vdevs: Optional[FrozenSet[str]] = None
        self.prefetch_vkey = None
        self.prefetch_predicted_slack: Optional[float] = None
        # Causal-trace flow id of the frame currently moving through this
        # region (0 = none). Stamped by the emulator at stage dispatch so
        # coherence/prefetch spans inherit the frame's flow.
        self.flow = 0
        self.applied_compensation = 0.0
        self.last_flush_duration = 0.0

        self.backing: Dict[str, "MemoryRegion"] = {}
        self._open: Dict[str, _OpenAccess] = {}

        # lifetime statistics (feed the measurement experiments)
        self.total_accesses = 0
        self.writer_vdevs: Set[str] = set()
        self.reader_vdevs: Set[str] = set()

    # -- access bracket ----------------------------------------------------
    def open_access(self, vdev: str, usage: AccessUsage, nbytes: int) -> None:
        """Record a begin_access; nested brackets from one vdev are invalid."""
        if self.freed:
            raise SvmError(f"access to freed region #{self.region_id}")
        if nbytes <= 0 or nbytes > self.size:
            raise SvmError(
                f"access window {nbytes}B invalid for region of {self.size}B"
            )
        if vdev in self._open:
            raise AccessStateError(
                f"vdev {vdev!r} called begin_access twice on region #{self.region_id}"
            )
        self._open[vdev] = _OpenAccess(vdev, usage, nbytes)
        self.total_accesses += 1
        if usage.writes:
            self.writer_vdevs.add(vdev)
        if usage.reads:
            self.reader_vdevs.add(vdev)

    def close_access(self, vdev: str) -> _OpenAccess:
        """Record an end_access; must pair a prior begin_access."""
        try:
            return self._open.pop(vdev)
        except KeyError:
            raise AccessStateError(
                f"vdev {vdev!r} called end_access without begin_access on "
                f"region #{self.region_id}"
            ) from None

    @property
    def open_accessors(self) -> Set[str]:
        return set(self._open)

    def is_open_by(self, vdev: str) -> bool:
        """True while ``vdev`` holds an open access bracket on this region."""
        return vdev in self._open

    # -- coherence state ------------------------------------------------------
    def note_write(self, vdev: str, location: str, nbytes: int) -> None:
        """Invalidate all other copies: ``location`` now holds the only one."""
        self.valid_locations = {location}
        self.last_writer_vdev = vdev
        self.last_writer_location = location
        self.dirty_bytes = nbytes
        self.pending_prefetch = None
        self.prefetch_targets = _NO_TARGETS
        self.prefetch_predicted_vdevs = None
        self.prefetch_vkey = None
        self.prefetch_predicted_slack = None

    def note_copy(self, dst_location: str) -> None:
        """A coherence copy landed an up-to-date replica at ``dst_location``."""
        self.valid_locations.add(dst_location)

    def is_valid_at(self, location: str) -> bool:
        """True when ``location`` can read without coherence maintenance.

        A never-written region is trivially coherent everywhere (reads see
        zero-fill, as with freshly mmapped pages).
        """
        if not self.valid_locations:
            return True
        return location in self.valid_locations

    # -- checkpointing -----------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Deterministic, JSON-able image of the region's coherence state.

        Live object handles are reduced to stable identifiers: the write
        fence to its table index, the pending-prefetch process to a boolean,
        backing memory to the list of locations holding it. Nothing here
        depends on object identity, so the image of a replayed run at the
        same time compares equal.
        """
        from repro.core.hypergraph import serialize_edge_key

        return {
            "region_id": self.region_id,
            "size": self.size,
            "freed": self.freed,
            "valid_locations": sorted(self.valid_locations),
            "last_writer_vdev": self.last_writer_vdev,
            "last_writer_location": self.last_writer_location,
            "dirty_bytes": self.dirty_bytes,
            "write_complete_time": self.write_complete_time,
            "write_fence": None if self.write_fence is None else self.write_fence.index,
            "write_in_flight": self.write_in_flight,
            "pending_writer_location": self.pending_writer_location,
            "pending_prefetch": self.pending_prefetch is not None,
            "prefetch_targets": sorted(self.prefetch_targets),
            "prefetch_predicted_vdevs": (
                None
                if self.prefetch_predicted_vdevs is None
                else sorted(self.prefetch_predicted_vdevs)
            ),
            "prefetch_vkey": (
                None if self.prefetch_vkey is None else serialize_edge_key(self.prefetch_vkey)
            ),
            "prefetch_predicted_slack": self.prefetch_predicted_slack,
            "flow": self.flow,
            "applied_compensation": self.applied_compensation,
            "last_flush_duration": self.last_flush_duration,
            "backing": sorted(self.backing),
            "open": {
                vdev: {"usage": acc.usage.value, "nbytes": acc.nbytes}
                for vdev, acc in sorted(self._open.items())
            },
            "total_accesses": self.total_accesses,
            "writer_vdevs": sorted(self.writer_vdevs),
            "reader_vdevs": sorted(self.reader_vdevs),
        }

    # -- lifecycle ---------------------------------------------------------
    def release_backing(self) -> None:
        """Free all lazily allocated backing memory."""
        for backing in self.backing.values():
            if not backing.freed:
                backing.free()
        self.backing.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SvmRegion #{self.region_id} {self.size}B "
            f"valid={sorted(self.valid_locations)} writer={self.last_writer_vdev}>"
        )
