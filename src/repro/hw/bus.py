"""Buses: the links over which coherence maintenance copies move.

A :class:`Bus` models one interconnect (PCIe link to the GPU, the memory
controller used by CPU memcpy, the virtio path across the virtualization
boundary). Transfers are serialized FIFO — the dominant effect the paper
measures is transfer *time* (size / bandwidth) plus fixed latency, with
contention appearing as queueing delay.

An asynchronous copy, such as the prefetch engine's ahead-of-time DMA
(§4), is a transfer run in a process of its own: the prefetch engine
spawns one per copy, and readers join it.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Generator, Optional

from repro.errors import HardwareError, TransientCopyError
from repro.sim import Mutex, Simulator, Timeout
from repro.units import to_gb_per_s

#: Optional fault hook: called once per transfer (inside the bus lock) with
#: ``(bus, nbytes)``. Return ``None`` for a clean transfer, or a fraction in
#: [0, 1] — the transfer burns that fraction of its duration on the wire and
#: then fails with :class:`TransientCopyError`.
FaultHook = Callable[["Bus", int], Optional[float]]


class Bus:
    """One interconnect with fixed latency and finite bandwidth.

    Parameters
    ----------
    bandwidth:
        Bytes per millisecond (use :func:`repro.units.gb_per_s`).
    latency:
        Fixed per-transfer setup time in ms (arbitration, doorbells).

    The bus records total bytes moved, busy time and transfer count.
    ``set_load`` injects external contention: a load of 0.5 halves the
    :attr:`effective_bandwidth` available to transfers, which is the
    figure the prefetch engine's "suspend prefetch below 50% of maximum
    observed bandwidth" policy reads. (The physical hypergraph layer of
    §3.2 tracks transfer sizes and prefetch durations, not bandwidth.)
    """

    def __init__(self, sim: Simulator, name: str, bandwidth: float, latency: float = 0.0):
        if not math.isfinite(bandwidth) or bandwidth <= 0:
            raise HardwareError(
                f"bus {name!r} bandwidth must be finite and positive, got {bandwidth}"
            )
        if not math.isfinite(latency) or latency < 0:
            raise HardwareError(
                f"bus {name!r} latency must be finite and >= 0, got {latency}"
            )
        self._sim = sim
        self.name = name
        self.bandwidth = bandwidth
        self.latency = latency
        self._load = 0.0
        self._lock = Mutex(sim, name=f"bus:{name}")
        self.bytes_moved = 0
        self.busy_time = 0.0
        self.transfer_count = 0
        self.transfer_failures = 0
        self.fault_hook: Optional[FaultHook] = None

    # -- contention injection ------------------------------------------------
    def set_load(self, load: float) -> None:
        """Set external contention in [0, 1); available bw = bw * (1-load)."""
        if not math.isfinite(load) or not 0.0 <= load < 1.0:
            raise HardwareError(
                f"bus {self.name!r} load must be finite and in [0, 1), got {load}"
            )
        self._load = load

    @property
    def effective_bandwidth(self) -> float:
        """Bandwidth available to new transfers, after external load."""
        return self.bandwidth * (1.0 - self._load)

    # -- transfers --------------------------------------------------------------
    def transfer_time(self, nbytes: int) -> float:
        """Time one transfer would take right now (no queueing)."""
        if nbytes < 0:
            raise HardwareError("transfer size must be >= 0")
        if nbytes == 0:
            return 0.0
        return self.latency + nbytes / self.effective_bandwidth

    def transfer(self, nbytes: int) -> Generator[Any, Any, float]:
        """Process: move ``nbytes`` over the bus; returns the elapsed time.

        Serialized FIFO with other transfers on the same bus, so concurrent
        coherence maintenance and prefetch traffic queue behind each other
        exactly as on a real link.
        """
        start = self._sim.now
        grant = self._lock.acquire()
        try:
            yield grant
        except GeneratorExit:
            # Killed while queued (a crashed executor): give the turn back.
            self._lock.cancel(grant)
            raise
        try:
            duration = self.transfer_time(nbytes)
            fraction = self.fault_hook(self, nbytes) if self.fault_hook is not None else None
            if fraction is not None:
                # The wire is held for part of the transfer before the fault
                # surfaces, so failed copies still contend like real ones.
                wasted = duration * min(max(fraction, 0.0), 1.0)
                if wasted > 0:
                    yield Timeout(wasted)
                self.busy_time += wasted
                self.transfer_failures += 1
                raise TransientCopyError(
                    f"transfer of {nbytes} bytes on bus {self.name!r} failed "
                    f"after {wasted:.3f} ms"
                )
            if duration > 0:
                yield Timeout(duration)
            self.bytes_moved += nbytes
            self.busy_time += duration
            self.transfer_count += 1
        finally:
            self._lock.release()
        return self._sim.now - start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Bus {self.name!r} {to_gb_per_s(self.bandwidth):.2f} GB/s "
            f"lat={self.latency:.3f}ms load={self._load:.2f}>"
        )

