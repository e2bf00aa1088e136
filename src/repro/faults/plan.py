"""Declarative fault plans.

A :class:`FaultPlan` is a validated, immutable-after-build description of
*what goes wrong when*: bus load changes and flapping, windows of transient
copy failures, device stalls/resets, and guest-transport drop/delay windows.
Plans carry no randomness themselves — probabilities are resolved by the
:class:`~repro.faults.injector.FaultInjector` with its seeded RNG, so one
plan replayed with one seed yields one trace, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Mapping, Optional

from repro.errors import ConfigurationError


def _check_time(label: str, value: float) -> None:
    if not math.isfinite(value) or value < 0:
        raise ConfigurationError(f"{label} must be finite and >= 0, got {value}")


def _check_probability(label: str, value: float) -> None:
    if not math.isfinite(value) or not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{label} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class BusLoadEvent:
    """At ``time_ms``, set bus ``bus`` to external load ``load``."""

    time_ms: float
    bus: str
    load: float


@dataclass(frozen=True)
class CopyFaultWindow:
    """During [start_ms, end_ms), transfers fail with ``probability``.

    ``bus=None`` applies to every bus the injector is installed on. A
    failing transfer burns a deterministic-per-draw fraction of its wire
    time before raising, so faults still contend for bandwidth.
    """

    start_ms: float
    end_ms: float
    probability: float
    bus: Optional[str] = None


@dataclass(frozen=True)
class DeviceStallEvent:
    """At ``time_ms``, wedge ``device`` for ``duration_ms`` (lock held)."""

    time_ms: float
    device: str
    duration_ms: float


@dataclass(frozen=True)
class DeviceResetEvent:
    """At ``time_ms``, reset ``device``: ``downtime_ms`` stall + thermal clear."""

    time_ms: float
    device: str
    downtime_ms: float


@dataclass(frozen=True)
class DeviceCrashEvent:
    """At ``time_ms``, kill virtual device ``vdev`` mid-frame.

    Unlike a :class:`DeviceResetEvent` (which wedges a *physical* engine),
    a crash kills the *virtual* device's host executor outright: its command
    queue is lost, outstanding fences must be poisoned, and the
    :class:`~repro.recovery.coordinator.RecoveryCoordinator` re-admits the
    device after ``downtime_ms``.
    """

    time_ms: float
    vdev: str
    downtime_ms: float


@dataclass(frozen=True)
class TransportFaultWindow:
    """During [start_ms, end_ms), kicks drop or stretch with given odds."""

    start_ms: float
    end_ms: float
    drop_probability: float = 0.0
    delay_probability: float = 0.0
    delay_ms: float = 0.0


class FaultPlan:
    """Chainable builder for a deterministic fault timeline.

    Example::

        plan = (
            FaultPlan()
            .flap_bus("pcie", start_ms=1500, period_ms=500, cycles=6, high_load=0.85)
            .copy_faults(2000, 4500, probability=0.7, bus="pcie")
            .stall_device(3000, "gpu", duration_ms=120)
            .transport_faults(2500, 4000, drop_probability=0.25)
        )
    """

    def __init__(self) -> None:
        self.bus_loads: List[BusLoadEvent] = []
        self.copy_windows: List[CopyFaultWindow] = []
        self.stalls: List[DeviceStallEvent] = []
        self.resets: List[DeviceResetEvent] = []
        self.transport_windows: List[TransportFaultWindow] = []
        self.crashes: List[DeviceCrashEvent] = []

    # -- bus degradation -----------------------------------------------------
    def set_bus_load(self, time_ms: float, bus: str, load: float) -> "FaultPlan":
        """Schedule one external-load change on a bus."""
        _check_time("bus load time", time_ms)
        if not math.isfinite(load) or not 0.0 <= load < 1.0:
            raise ConfigurationError(f"bus load must be finite and in [0, 1), got {load}")
        self.bus_loads.append(BusLoadEvent(time_ms, bus, load))
        return self

    def flap_bus(
        self,
        bus: str,
        start_ms: float,
        period_ms: float,
        cycles: int,
        high_load: float,
        low_load: float = 0.0,
    ) -> "FaultPlan":
        """Alternate a bus between ``high_load`` and ``low_load``.

        Each cycle holds ``high_load`` for half a period, then ``low_load``
        for the other half — the load-raised-then-dropped pattern the
        bandwidth-suspension rule must survive.
        """
        _check_time("flap start", start_ms)
        if not math.isfinite(period_ms) or period_ms <= 0:
            raise ConfigurationError(f"flap period must be finite and > 0, got {period_ms}")
        if cycles < 1:
            raise ConfigurationError(f"flap cycles must be >= 1, got {cycles}")
        half = period_ms / 2.0
        for i in range(cycles):
            t = start_ms + i * period_ms
            self.set_bus_load(t, bus, high_load)
            self.set_bus_load(t + half, bus, low_load)
        return self

    # -- transient copy failures ---------------------------------------------
    def copy_faults(
        self,
        start_ms: float,
        end_ms: float,
        probability: float,
        bus: Optional[str] = None,
    ) -> "FaultPlan":
        """Fail transfers with ``probability`` during [start_ms, end_ms)."""
        _check_time("copy-fault window start", start_ms)
        _check_time("copy-fault window end", end_ms)
        if end_ms <= start_ms:
            raise ConfigurationError(
                f"copy-fault window must have end > start, got [{start_ms}, {end_ms})"
            )
        _check_probability("copy-fault probability", probability)
        self.copy_windows.append(CopyFaultWindow(start_ms, end_ms, probability, bus))
        return self

    # -- device stalls and resets --------------------------------------------
    def stall_device(self, time_ms: float, device: str, duration_ms: float) -> "FaultPlan":
        """Wedge a physical device's engine for ``duration_ms``."""
        _check_time("stall time", time_ms)
        if not math.isfinite(duration_ms) or duration_ms <= 0:
            raise ConfigurationError(
                f"stall duration must be finite and > 0, got {duration_ms}"
            )
        self.stalls.append(DeviceStallEvent(time_ms, device, duration_ms))
        return self

    def reset_device(self, time_ms: float, device: str, downtime_ms: float) -> "FaultPlan":
        """Reset a physical device (stall + thermal state clear)."""
        _check_time("reset time", time_ms)
        if not math.isfinite(downtime_ms) or downtime_ms <= 0:
            raise ConfigurationError(
                f"reset downtime must be finite and > 0, got {downtime_ms}"
            )
        self.resets.append(DeviceResetEvent(time_ms, device, downtime_ms))
        return self

    def crash_device(self, time_ms: float, vdev: str, downtime_ms: float) -> "FaultPlan":
        """Kill a *virtual* device's executor mid-frame (recovery drill)."""
        _check_time("crash time", time_ms)
        if not math.isfinite(downtime_ms) or downtime_ms <= 0:
            raise ConfigurationError(
                f"crash downtime must be finite and > 0, got {downtime_ms}"
            )
        self.crashes.append(DeviceCrashEvent(time_ms, vdev, downtime_ms))
        return self

    # -- transport faults ----------------------------------------------------
    def transport_faults(
        self,
        start_ms: float,
        end_ms: float,
        drop_probability: float = 0.0,
        delay_probability: float = 0.0,
        delay_ms: float = 0.0,
    ) -> "FaultPlan":
        """Drop or delay guest→host kicks during [start_ms, end_ms)."""
        _check_time("transport window start", start_ms)
        _check_time("transport window end", end_ms)
        if end_ms <= start_ms:
            raise ConfigurationError(
                f"transport window must have end > start, got [{start_ms}, {end_ms})"
            )
        _check_probability("drop probability", drop_probability)
        _check_probability("delay probability", delay_probability)
        _check_time("transport delay", delay_ms)
        if delay_probability > 0 and delay_ms <= 0:
            raise ConfigurationError("delay_ms must be > 0 when delays are enabled")
        self.transport_windows.append(
            TransportFaultWindow(start_ms, end_ms, drop_probability, delay_probability, delay_ms)
        )
        return self

    # -- whole-plan validation ------------------------------------------------
    def validate(self) -> "FaultPlan":
        """Cross-event consistency checks, run once the plan is complete.

        Per-field validation happens in each builder call; this pass catches
        the *relationships* a finished timeline must satisfy — ambiguous
        same-instant bus loads, overlapping fault windows on one target, and
        out-of-chronological-order event lists (a plan assembled out of
        order almost always means two builders disagreed about units).
        Raises :class:`ConfigurationError` naming the offending window.
        The injector calls this from ``install``; call it directly to fail
        earlier. Returns ``self`` so it chains.
        """
        self._check_ordered("bus_loads", self.bus_loads, lambda e: (e.bus, e.time_ms))
        self._check_ordered("copy_faults", self.copy_windows, lambda w: (w.bus or "*", w.start_ms))
        self._check_ordered("stalls", self.stalls, lambda s: (s.device, s.time_ms))
        self._check_ordered("resets", self.resets, lambda r: (r.device, r.time_ms))
        self._check_ordered("crashes", self.crashes, lambda c: (c.vdev, c.time_ms))
        self._check_ordered("transport_faults", self.transport_windows, lambda w: (None, w.start_ms))

        seen_loads = {}
        for event in self.bus_loads:
            key = (event.bus, event.time_ms)
            prior = seen_loads.get(key)
            if prior is not None and prior.load != event.load:
                raise ConfigurationError(
                    f"ambiguous bus loads at t={event.time_ms} on {event.bus!r}: "
                    f"{prior.load} vs {event.load}"
                )
            seen_loads[key] = event

        self._check_window_overlap(
            "copy-fault",
            self.copy_windows,
            lambda w: w.bus,
            lambda w: (w.start_ms, w.end_ms),
            wildcard_none=True,
        )
        self._check_window_overlap(
            "transport-fault",
            self.transport_windows,
            lambda w: None,
            lambda w: (w.start_ms, w.end_ms),
            wildcard_none=False,
        )
        device_windows = (
            [("stall", s.device, s.time_ms, s.time_ms + s.duration_ms, s) for s in self.stalls]
            + [("reset", r.device, r.time_ms, r.time_ms + r.downtime_ms, r) for r in self.resets]
        )
        device_windows.sort(key=lambda entry: (entry[1], entry[2], entry[3]))
        for (kind_a, dev_a, start_a, end_a, ev_a), (kind_b, dev_b, start_b, end_b, ev_b) in zip(
            device_windows, device_windows[1:]
        ):
            if dev_a == dev_b and start_b < end_a:
                raise ConfigurationError(
                    f"overlapping {kind_a}/{kind_b} windows on device {dev_a!r}: "
                    f"{ev_a} overlaps {ev_b}"
                )
        crash_windows = sorted(
            self.crashes, key=lambda c: (c.vdev, c.time_ms)
        )
        for a, b in zip(crash_windows, crash_windows[1:]):
            if a.vdev == b.vdev and b.time_ms < a.time_ms + a.downtime_ms:
                raise ConfigurationError(
                    f"crash at t={b.time_ms} on vdev {b.vdev!r} lands inside the "
                    f"recovery downtime of {a} — one recovery at a time per device"
                )
        return self

    @staticmethod
    def _check_ordered(label, events, key):
        """Events for one target must be appended in chronological order."""
        last = {}
        for event in events:
            target, time_ms = key(event)
            prior = last.get(target)
            if prior is not None and time_ms < prior:
                raise ConfigurationError(
                    f"{label} out of order: {event} starts at {time_ms} ms but an "
                    f"earlier entry for the same target already starts at {prior} ms"
                )
            last[target] = time_ms

    @staticmethod
    def _check_window_overlap(label, windows, target_of, span_of, wildcard_none):
        """No two windows on one target (None = every target) may overlap."""
        for i, a in enumerate(windows):
            for b in windows[i + 1:]:
                ta, tb = target_of(a), target_of(b)
                if ta != tb and not (wildcard_none and (ta is None or tb is None)):
                    continue
                start_a, end_a = span_of(a)
                start_b, end_b = span_of(b)
                if start_a < end_b and start_b < end_a:
                    raise ConfigurationError(
                        f"overlapping {label} windows: {a} overlaps {b}"
                    )

    # -- serialization ---------------------------------------------------------
    #: Section name -> event-list attribute. The serialized form mirrors the
    #: builder-expanded event lists (``flap_bus`` round-trips as its
    #: individual ``bus_loads``), so ``from_dict(to_dict(p))`` rebuilds the
    #: exact same timeline.
    _SECTIONS = (
        "bus_loads",
        "copy_windows",
        "stalls",
        "resets",
        "transport_windows",
        "crashes",
    )

    def to_dict(self) -> Dict[str, List[Dict[str, Any]]]:
        """The plan as plain JSON-able data (scenario files, reproducers).

        Empty sections are omitted, so an empty plan serializes to ``{}``.
        """
        doc: Dict[str, List[Dict[str, Any]]] = {}
        for section in self._SECTIONS:
            events = getattr(self, section)
            if events:
                doc[section] = [asdict(event) for event in events]
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output; runs :meth:`validate`.

        Every entry goes back through the corresponding builder, so
        per-field checks apply exactly as if the plan had been written in
        Python — then the whole-plan :meth:`validate` pass runs. Raises
        :class:`~repro.errors.ConfigurationError` naming the offending
        section/entry on any malformed document.
        """
        if not isinstance(doc, Mapping):
            raise ConfigurationError(
                f"fault plan document must be a mapping, got {type(doc).__name__}"
            )
        unknown = sorted(set(doc) - set(cls._SECTIONS))
        if unknown:
            raise ConfigurationError(
                f"fault plan document has unknown sections {unknown}; "
                f"known: {list(cls._SECTIONS)}"
            )
        plan = cls()
        for section in cls._SECTIONS:
            entries = doc.get(section, ())
            if not isinstance(entries, (list, tuple)):
                raise ConfigurationError(
                    f"fault plan section {section!r} must be a list, "
                    f"got {type(entries).__name__}"
                )
            for index, entry in enumerate(entries):
                if not isinstance(entry, Mapping):
                    raise ConfigurationError(
                        f"fault plan {section}[{index}] must be a mapping, "
                        f"got {type(entry).__name__}"
                    )
                try:
                    plan._append_entry(section, dict(entry))
                except ConfigurationError as err:
                    raise ConfigurationError(
                        f"fault plan {section}[{index}]: {err}"
                    ) from None
                except (KeyError, TypeError, ValueError) as err:
                    raise ConfigurationError(
                        f"fault plan {section}[{index}] is malformed: {err!r}"
                    ) from None
        return plan.validate()

    def _append_entry(self, section: str, entry: Dict[str, Any]) -> None:
        """One serialized event back through its builder (field checks)."""

        def need(keys: tuple, optional: tuple = ()) -> None:
            missing = [k for k in keys if k not in entry]
            extra = sorted(set(entry) - set(keys) - set(optional))
            if missing or extra:
                raise ConfigurationError(
                    f"expected keys {list(keys)}"
                    + (f" (optional {list(optional)})" if optional else "")
                    + f"; missing {missing}, unknown {extra}"
                )

        if section == "bus_loads":
            need(("time_ms", "bus", "load"))
            self.set_bus_load(float(entry["time_ms"]), str(entry["bus"]),
                              float(entry["load"]))
        elif section == "copy_windows":
            need(("start_ms", "end_ms", "probability"), optional=("bus",))
            bus = entry.get("bus")
            self.copy_faults(float(entry["start_ms"]), float(entry["end_ms"]),
                             float(entry["probability"]),
                             bus=None if bus is None else str(bus))
        elif section == "stalls":
            need(("time_ms", "device", "duration_ms"))
            self.stall_device(float(entry["time_ms"]), str(entry["device"]),
                              float(entry["duration_ms"]))
        elif section == "resets":
            need(("time_ms", "device", "downtime_ms"))
            self.reset_device(float(entry["time_ms"]), str(entry["device"]),
                              float(entry["downtime_ms"]))
        elif section == "transport_windows":
            need(("start_ms", "end_ms"),
                 optional=("drop_probability", "delay_probability", "delay_ms"))
            self.transport_faults(
                float(entry["start_ms"]), float(entry["end_ms"]),
                drop_probability=float(entry.get("drop_probability", 0.0)),
                delay_probability=float(entry.get("delay_probability", 0.0)),
                delay_ms=float(entry.get("delay_ms", 0.0)),
            )
        else:  # crashes
            need(("time_ms", "vdev", "downtime_ms"))
            self.crash_device(float(entry["time_ms"]), str(entry["vdev"]),
                              float(entry["downtime_ms"]))

    # -- introspection --------------------------------------------------------
    def last_fault_time(self) -> float:
        """When the plan's last injected disturbance ends (ms).

        Chaos reports use this to split a run into the fault phase and the
        post-clearance steady state.
        """
        times = [e.time_ms for e in self.bus_loads]
        times += [w.end_ms for w in self.copy_windows]
        times += [s.time_ms + s.duration_ms for s in self.stalls]
        times += [r.time_ms + r.downtime_ms for r in self.resets]
        times += [w.end_ms for w in self.transport_windows]
        times += [c.time_ms + c.downtime_ms for c in self.crashes]
        return max(times, default=0.0)

    def is_empty(self) -> bool:
        return not (
            self.bus_loads
            or self.copy_windows
            or self.stalls
            or self.resets
            or self.transport_windows
            or self.crashes
        )
