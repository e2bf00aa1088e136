"""Seeded fault injection against a live emulator or machine.

The :class:`FaultInjector` turns a :class:`~repro.faults.plan.FaultPlan`
into concrete scheduled events and hooks:

* bus-load events become :meth:`Simulator.schedule` callbacks calling
  ``Bus.set_load``;
* copy-fault windows become per-bus ``fault_hook`` installations that draw
  from the injector's seeded RNG *only inside a window* — outside every
  window no random numbers are consumed, so non-chaos phases of a run stay
  on the exact fault-free trajectory;
* device stalls/resets become scheduled ``inject_stall``/``inject_reset``;
* transport windows become a ``VirtioTransport.fault_hook``.

Every injected disturbance is recorded in the trace (kinds ``fault.*``),
which is what the determinism test asserts: same plan + same seed ⇒
identical trace.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.faults.plan import CopyFaultWindow, FaultPlan, TransportFaultWindow
from repro.hw.bus import Bus
from repro.hw.device import PhysicalDevice
from repro.sim import Simulator
from repro.sim.tracing import TraceLog


class InjectionStats:
    """What the injector actually did (vs what the plan allowed)."""

    def __init__(self) -> None:
        self.load_changes = 0
        self.copy_faults = 0
        self.transport_drops = 0
        self.transport_delays = 0
        self.stalls = 0
        self.resets = 0
        self.crashes = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "load_changes": self.load_changes,
            "copy_faults": self.copy_faults,
            "transport_drops": self.transport_drops,
            "transport_delays": self.transport_delays,
            "stalls": self.stalls,
            "resets": self.resets,
            "crashes": self.crashes,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"<InjectionStats {parts}>"


class FaultInjector:
    """Executes one :class:`FaultPlan` deterministically against targets.

    One injector = one seeded RNG = one reproducible chaos run. Call
    :meth:`install` with an emulator (hooks its planner's buses, machine
    buses, devices, and transport) — or :meth:`install_buses` /
    :meth:`install_devices` / :meth:`install_transport` piecemeal for
    lower-level tests.
    """

    def __init__(
        self,
        sim: Simulator,
        plan: FaultPlan,
        seed: int = 0,
        trace: Optional[TraceLog] = None,
    ):
        self._sim = sim
        self.plan = plan
        self.seed = seed
        self.trace = trace
        self._rng = random.Random(seed)
        self.stats = InjectionStats()
        self._installed = False
        #: Set by :meth:`install_crashes` when the plan contains device
        #: crashes — the coordinator that quarantines/re-admits the victims.
        self.coordinator: Optional[Any] = None

    # -- top-level install ---------------------------------------------------
    def install(self, emulator: Any) -> None:
        """Arm the whole plan against one emulator instance."""
        if self._installed:
            raise ConfigurationError("this injector is already installed")
        self._installed = True
        self.plan.validate()
        machine = emulator.machine
        buses: Dict[str, Bus] = {}
        for bus in (machine.memctl, machine.pcie, machine.boundary, emulator.planner.boundary):
            if bus is not None:
                buses[bus.name] = bus
        self._install_bus_events(buses)
        self._install_copy_hooks(buses.values())
        self.install_devices(machine.devices)
        self.install_transport(emulator.transport)
        self.install_crashes(emulator)

    # -- piecemeal installs (machine-level tests) ------------------------------
    def install_buses(self, buses: Iterable[Bus]) -> None:
        by_name = {bus.name: bus for bus in buses}
        self._install_bus_events(by_name)
        self._install_copy_hooks(by_name.values())

    def install_devices(self, devices: Dict[str, PhysicalDevice]) -> None:
        for stall in self.plan.stalls:
            device = devices.get(stall.device)
            if device is None:
                raise ConfigurationError(
                    f"fault plan stalls unknown device {stall.device!r}"
                )
            self._sim.schedule(
                self._delay_until(stall.time_ms), self._do_stall, device, stall.duration_ms
            )
        for reset in self.plan.resets:
            device = devices.get(reset.device)
            if device is None:
                raise ConfigurationError(
                    f"fault plan resets unknown device {reset.device!r}"
                )
            self._sim.schedule(
                self._delay_until(reset.time_ms), self._do_reset, device, reset.downtime_ms
            )

    def install_transport(self, transport: Any) -> None:
        if not self.plan.transport_windows:
            return
        windows = list(self.plan.transport_windows)

        def hook(tp: Any, batch_size: int) -> Optional[Tuple[Any, ...]]:
            window = self._active_transport_window(windows)
            if window is None:
                return None
            if window.drop_probability > 0 and self._rng.random() < window.drop_probability:
                self.stats.transport_drops += 1
                self._record("fault.transport_drop", batch=batch_size)
                return ("drop",)
            if window.delay_probability > 0 and self._rng.random() < window.delay_probability:
                self.stats.transport_delays += 1
                self._record("fault.transport_delay", batch=batch_size, delay=window.delay_ms)
                return ("delay", window.delay_ms)
            return None

        transport.fault_hook = hook

    def install_crashes(self, emulator: Any) -> None:
        """Schedule the plan's virtual-device crashes via a coordinator.

        Crash events consume no RNG — their timing and victim are fully
        declarative — so plans without crashes keep the exact random-draw
        sequence they had before this feature existed.
        """
        if not self.plan.crashes:
            return
        from repro.recovery.coordinator import RecoveryCoordinator

        known = set(emulator.vdev_names())
        for crash in self.plan.crashes:
            if crash.vdev not in known:
                raise ConfigurationError(
                    f"fault plan crashes unknown virtual device {crash.vdev!r}; "
                    f"known: {sorted(known)}"
                )
        self.coordinator = RecoveryCoordinator(emulator, trace=self.trace)
        for crash in self.plan.crashes:
            self._sim.schedule(self._delay_until(crash.time_ms), self._do_crash, crash)

    # -- bus internals --------------------------------------------------------
    def _install_bus_events(self, buses: Dict[str, Bus]) -> None:
        for event in self.plan.bus_loads:
            bus = buses.get(event.bus)
            if bus is None:
                raise ConfigurationError(
                    f"fault plan targets unknown bus {event.bus!r}; "
                    f"known: {sorted(buses)}"
                )
            self._sim.schedule(
                self._delay_until(event.time_ms), self._do_set_load, bus, event.load
            )

    def _install_copy_hooks(self, buses: Iterable[Bus]) -> None:
        if not self.plan.copy_windows:
            return
        for bus in buses:
            windows = [
                w for w in self.plan.copy_windows
                if w.bus is None or w.bus == bus.name
            ]
            if windows:
                bus.fault_hook = self._make_copy_hook(windows)

    def _make_copy_hook(self, windows: List[CopyFaultWindow]):
        def hook(bus: Bus, nbytes: int) -> Optional[float]:
            now = self._sim.now
            for window in windows:
                if window.start_ms <= now < window.end_ms:
                    if self._rng.random() < window.probability:
                        # Second draw: how far into the transfer the fault
                        # hits. Both draws happen only inside a window.
                        fraction = self._rng.random()
                        self.stats.copy_faults += 1
                        self._record(
                            "fault.copy", bus=bus.name, bytes=nbytes, fraction=fraction
                        )
                        return fraction
                    return None
            return None

        return hook

    def _active_transport_window(
        self, windows: List[TransportFaultWindow]
    ) -> Optional[TransportFaultWindow]:
        now = self._sim.now
        for window in windows:
            if window.start_ms <= now < window.end_ms:
                return window
        return None

    # -- scheduled actions ----------------------------------------------------
    def _do_set_load(self, bus: Bus, load: float) -> None:
        bus.set_load(load)
        self.stats.load_changes += 1
        self._record("fault.bus_load", bus=bus.name, load=load)

    def _do_stall(self, device: PhysicalDevice, duration_ms: float) -> None:
        device.inject_stall(duration_ms)
        self.stats.stalls += 1
        self._record("fault.device_stall", device=device.name, duration=duration_ms)

    def _do_reset(self, device: PhysicalDevice, downtime_ms: float) -> None:
        device.inject_reset(downtime_ms)
        self.stats.resets += 1
        self._record("fault.device_reset", device=device.name, downtime=downtime_ms)

    def _do_crash(self, crash: Any) -> None:
        self.stats.crashes += 1
        self._record("fault.device_crash", vdev=crash.vdev, downtime=crash.downtime_ms)
        self.coordinator.crash(crash.vdev, crash.downtime_ms)

    # -- helpers ---------------------------------------------------------------
    def _delay_until(self, time_ms: float) -> float:
        return max(0.0, time_ms - self._sim.now)

    def _record(self, kind: str, **fields: Any) -> None:
        if self.trace is not None:
            self.trace.record(self._sim.now, kind, **fields)
