"""Access ordering between virtual devices: command types and modes (§3.4).

Guest drivers enqueue :class:`Command` objects into per-device host command
queues. With :attr:`OrderingMode.FENCES`, order semantics travel as
signal/wait fence commands and the driver returns immediately. With
:attr:`OrderingMode.ATOMIC` (the common approach vSoC replaces, and the
§5.4 ablation), the driver blocks on each command's completion — the
head-of-queue blocking the paper describes.
"""

from __future__ import annotations

import enum
from typing import Dict, Sequence

from repro.core.fence import VirtualFence
from repro.core.region import SvmRegion
from repro.sim import SimEvent, Simulator


class OrderingMode(enum.Enum):
    """How shared-resource operations are ordered across host threads."""

    FENCES = "fences"
    ATOMIC = "atomic"


class Command:
    """Base class for host command-queue entries."""

    __slots__ = ()


#: op -> the name of its commands' done events, formatted once per op. The
#: name depends on the op alone, so every emulator may share the memo.
_DONE_NAMES: Dict[str, str] = {}


class ExecCommand(Command):
    """Execute one device operation, optionally touching SVM regions.

    ``reads`` / ``writes`` carry the regions whose coherence the executor
    must respect: before the op it runs the protocol's before-read net on
    every read region; after the op it retires the write on every write
    region (invalidation + after-write hook). ``scale`` multiplies the
    physical op time — per-emulator efficiency factors live there.
    """

    __slots__ = (
        "op", "nbytes", "reads", "writes", "scale", "dirty_bytes", "done",
        "dispatched_at", "flow",
    )

    def __init__(
        self,
        sim: Simulator,
        op: str,
        nbytes: int,
        reads: Sequence[SvmRegion] = (),
        writes: Sequence[SvmRegion] = (),
        scale: float = 1.0,
        dirty_bytes: int = 0,
        dispatched_at: float = 0.0,
        flow: int = 0,
    ):
        self.op = op
        self.nbytes = nbytes
        self.reads = tuple(reads)
        self.writes = tuple(writes)
        self.scale = scale
        self.dirty_bytes = dirty_bytes  # 0: the whole region is dirty
        name = _DONE_NAMES.get(op)
        if name is None:
            name = _DONE_NAMES[op] = f"cmd:{op}"
        self.done = SimEvent(sim, name)
        self.dispatched_at = dispatched_at
        self.flow = flow  # causal-trace flow id (0 = none)

    def dirty_window(self, region: SvmRegion) -> int:
        """Bytes of ``region`` this op actually dirtied (clamped to size)."""
        dirty = self.dirty_bytes if self.dirty_bytes > 0 else self.nbytes
        if dirty <= 0 or dirty > region.size:
            return region.size
        return dirty

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        regions = ",".join(
            f"#{r.region_id}" for r in (*self.reads, *self.writes)
        )
        return f"<ExecCommand {self.op} [{regions}] {self.nbytes}B>"


class SignalFenceCommand(Command):
    """Fire the fence once every preceding command in the queue retired."""

    __slots__ = ("fence", "flow")

    def __init__(self, fence: VirtualFence, flow: int = 0):
        self.fence = fence
        self.flow = flow


class WaitFenceCommand(Command):
    """Stall the executor until the paired signal fence has fired."""

    __slots__ = ("fence", "flow")

    def __init__(self, fence: VirtualFence, flow: int = 0):
        self.fence = fence
        self.flow = flow
