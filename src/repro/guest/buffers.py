"""BufferQueue: the producer/consumer buffer chains of mobile graphics.

A :class:`BufferQueue` owns N SVM regions of equal size in a *free* pool:
a producer dequeues a buffer, hands it down the pipeline (the compositor
or the next stage holds it while in flight), and the consumer releases it
back — the structure behind ``Surface``/``BufferQueue`` in Android and the
reason one data flow maps onto several SVM regions (§3.2). Buffering is
also the second source of slack intervals (§2.3): latency-insensitive
pipelines run several buffers deep.
"""

from __future__ import annotations

from typing import Optional

from repro.emulators.base import Emulator
from repro.errors import ConfigurationError
from repro.sim import FifoQueue, Simulator


class GuestBuffer:
    """One buffer slot: an SVM region and its place in the queue."""

    __slots__ = ("region_id", "index")

    def __init__(self, region_id: int, index: int):
        self.region_id = region_id
        self.index = index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<GuestBuffer #{self.index} region={self.region_id}>"


class BufferQueue:
    """N-deep pool of SVM-backed buffers a producer dequeues and a
    consumer releases."""

    def __init__(self, sim: Simulator, emulator: Emulator, count: int, size: int,
                 name: str = "bufferqueue"):
        if count <= 0:
            raise ConfigurationError("buffer count must be positive")
        if size <= 0:
            raise ConfigurationError("buffer size must be positive")
        self.name = name
        self.count = count
        self.size = size
        self._free: FifoQueue = FifoQueue(sim, name=f"{name}.free")
        for index in range(count):
            self._free.put(GuestBuffer(emulator.svm_alloc(size), index))

    # -- producer side --------------------------------------------------------
    def dequeue_free(self):
        """Waitable: obtain an empty buffer to fill (blocks when none free)."""
        return self._free.get()

    def try_dequeue_free(self) -> Optional[GuestBuffer]:
        """Non-blocking dequeue; ``None`` when every buffer is in flight."""
        return self._free.try_get()

    # -- consumer side ------------------------------------------------------
    def release(self, buffer: GuestBuffer) -> None:
        """Consumer returns a buffer to the free pool."""
        self._free.put(buffer)
