"""BufferQueue: the producer/consumer buffer chains of mobile graphics.

A :class:`BufferQueue` owns N SVM regions of equal size and rotates them
between a *free* pool (producer side) and a *filled* queue (consumer
side) — the structure behind ``Surface``/``BufferQueue`` in Android and
the reason one data flow maps onto several SVM regions (§3.2). Buffering
is also the second source of slack intervals (§2.3): latency-insensitive
pipelines run several buffers deep.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.emulators.base import Emulator
from repro.errors import ConfigurationError
from repro.sim import FifoQueue, Simulator


class GuestBuffer:
    """One buffer slot: an SVM region plus frame bookkeeping."""

    __slots__ = ("region_id", "index", "pts", "payload")

    def __init__(self, region_id: int, index: int):
        self.region_id = region_id
        self.index = index
        self.pts: Optional[float] = None
        self.payload: Any = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<GuestBuffer #{self.index} region={self.region_id} pts={self.pts}>"


class BufferQueue:
    """N-deep rotation of SVM-backed buffers between producer and consumer."""

    def __init__(self, sim: Simulator, emulator: Emulator, count: int, size: int,
                 name: str = "bufferqueue"):
        if count <= 0:
            raise ConfigurationError("buffer count must be positive")
        if size <= 0:
            raise ConfigurationError("buffer size must be positive")
        self._sim = sim
        self._emulator = emulator
        self.name = name
        self.count = count
        self.size = size
        self._buffers: List[GuestBuffer] = []
        self._free: FifoQueue = FifoQueue(sim, name=f"{name}.free")
        self._filled: FifoQueue = FifoQueue(sim, name=f"{name}.filled")
        for index in range(count):
            buffer = GuestBuffer(emulator.svm_alloc(size), index)
            self._buffers.append(buffer)
            self._free.put(buffer)

    # -- producer side --------------------------------------------------------
    def dequeue_free(self):
        """Waitable: obtain an empty buffer to fill (blocks when none free)."""
        return self._free.get()

    def try_dequeue_free(self) -> Optional[GuestBuffer]:
        """Non-blocking dequeue; ``None`` when every buffer is in flight."""
        return self._free.try_get()

    def queue_filled(self, buffer: GuestBuffer, pts: Optional[float] = None):
        """Producer hands a filled buffer to the consumer side."""
        buffer.pts = pts
        return self._filled.put(buffer)

    # -- consumer side ------------------------------------------------------
    def acquire_filled(self):
        """Waitable: obtain the oldest filled buffer (blocks when empty)."""
        return self._filled.get()

    def release(self, buffer: GuestBuffer) -> None:
        """Consumer returns a buffer to the free pool."""
        buffer.pts = None
        buffer.payload = None
        self._free.put(buffer)

    @property
    def free_depth(self) -> int:
        return len(self._free)

    def destroy(self) -> None:
        """Free every SVM region owned by the queue."""
        for buffer in self._buffers:
            self._emulator.svm_free(buffer.region_id)
        self._buffers.clear()
