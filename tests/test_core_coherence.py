"""Unit tests for coherence protocols and the copy planner (repro.core.coherence)."""

import inspect

import pytest

from repro.core.coherence import (
    CopyPlanner,
    GuestMemoryWriteInvalidate,
    UnifiedBroadcast,
    UnifiedPrefetchProtocol,
    UnifiedWriteInvalidate,
)
from repro.core.degradation import LEVEL_GUEST_ROUNDTRIP, DegradationController
from repro.core.region import GUEST_LOCATION, HOST_LOCATION, SvmRegion
from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    HardwareError,
    TransientCopyError,
)
from repro.hw import build_machine
from repro.sim import Simulator
from repro.sim.tracing import TraceLog
from repro.units import UHD_FRAME_BYTES


@pytest.fixture
def setup():
    sim = Simulator()
    machine = build_machine(sim)
    planner = CopyPlanner(sim, machine)
    trace = TraceLog()
    return sim, machine, planner, trace


# --- CopyPlanner -------------------------------------------------------------

def test_same_location_needs_no_legs(setup):
    _sim, _m, planner, _t = setup
    assert planner.unified_legs("gpu", "gpu") == []
    assert planner.unified_legs(HOST_LOCATION, HOST_LOCATION) == []


def test_host_to_gpu_is_one_pcie_leg(setup):
    sim, machine, planner, _t = setup
    legs = planner.unified_legs(HOST_LOCATION, "gpu")
    assert legs == [machine.pcie]


def test_gpu_to_host_is_one_pcie_leg(setup):
    sim, machine, planner, _t = setup
    assert planner.unified_legs("gpu", HOST_LOCATION) == [machine.pcie]


def test_unknown_location_rejected(setup):
    _sim, _m, planner, _t = setup
    with pytest.raises(ConfigurationError):
        planner.unified_legs("fpga", HOST_LOCATION)


def test_estimate_matches_execution(setup):
    sim, _m, planner, _t = setup
    estimate = planner.estimate_unified(HOST_LOCATION, "gpu", UHD_FRAME_BYTES)

    def proc():
        return (yield from planner.copy_unified(HOST_LOCATION, "gpu", UHD_FRAME_BYTES))

    p = sim.spawn(proc())
    sim.run()
    assert p.value == pytest.approx(estimate)


def test_zero_copy_takes_zero_time(setup):
    sim, _m, planner, _t = setup

    def proc():
        return (yield from planner.copy_unified("gpu", "gpu", UHD_FRAME_BYTES))

    p = sim.spawn(proc())
    sim.run()
    assert p.value == 0.0


def test_boundary_copy_uses_boundary_bus(setup):
    sim, machine, planner, _t = setup

    def proc():
        return (yield from planner.copy_via_boundary(UHD_FRAME_BYTES))

    p = sim.spawn(proc())
    sim.run()
    assert p.value == pytest.approx(machine.boundary.transfer_time(UHD_FRAME_BYTES))


def test_vsoc_direct_path_beats_guest_memory_path(setup):
    """The architectural claim of §3.2: direct < double boundary crossing."""
    _sim, _m, planner, _t = setup
    direct = planner.estimate_unified(HOST_LOCATION, "gpu", UHD_FRAME_BYTES)
    guest_path = 2 * planner.boundary.transfer_time(UHD_FRAME_BYTES)
    assert direct < 0.5 * guest_path


# --- UnifiedWriteInvalidate ---------------------------------------------------

def test_write_invalidate_copies_at_read(setup):
    sim, _m, planner, trace = setup
    protocol = UnifiedWriteInvalidate(sim, planner, trace)
    region = SvmRegion(1, UHD_FRAME_BYTES)
    region.note_write("codec", HOST_LOCATION, UHD_FRAME_BYTES)

    def read():
        return (yield from protocol.begin_access_read(region, "gpu", "gpu"))

    p = sim.spawn(read())
    sim.run()
    assert p.value > 2.0  # blocked for the pcie copy
    assert region.is_valid_at("gpu")
    assert len(trace.of_kind("coherence.maintenance")) == 1


def test_write_invalidate_free_when_valid(setup):
    sim, _m, planner, trace = setup
    protocol = UnifiedWriteInvalidate(sim, planner, trace)
    region = SvmRegion(1, UHD_FRAME_BYTES)
    region.note_write("gpu", "gpu", UHD_FRAME_BYTES)

    def read():
        return (yield from protocol.begin_access_read(region, "display", "gpu"))

    p = sim.spawn(read())
    sim.run()
    assert p.value == 0.0
    assert len(trace.of_kind("coherence.maintenance")) == 0


# --- GuestMemoryWriteInvalidate ----------------------------------------------

def run_guest_memory_cycle(sim, protocol, region, writer, reader, reader_loc):
    def cycle():
        yield from protocol.executor_after_write(region, writer, HOST_LOCATION)
        yield from protocol.executor_before_read(region, reader, reader_loc)

    proc = sim.spawn(cycle())
    sim.run()
    return proc


def test_guest_memory_two_crossings(setup):
    sim, machine, planner, trace = setup
    protocol = GuestMemoryWriteInvalidate(sim, planner, trace)
    region = SvmRegion(1, UHD_FRAME_BYTES)
    region.note_write("codec", HOST_LOCATION, UHD_FRAME_BYTES)
    run_guest_memory_cycle(sim, protocol, region, "codec", "gpu", "gpu")
    maintenances = trace.of_kind("coherence.maintenance")
    assert len(maintenances) == 1
    # flush + fetch: two boundary crossings of the frame (§2.2).
    expected = 2 * planner.boundary.transfer_time(UHD_FRAME_BYTES)
    assert maintenances[0]["duration"] == pytest.approx(expected, rel=0.05)


def test_guest_memory_isolates_virtual_devices(setup):
    """Same physical device, different virtual devices: still two
    crossings — the waste the unified framework eliminates (§3.2)."""
    sim, _m, planner, trace = setup
    protocol = GuestMemoryWriteInvalidate(sim, planner, trace)
    region = SvmRegion(1, UHD_FRAME_BYTES)
    region.note_write("gpu", "gpu", UHD_FRAME_BYTES)
    # display shares the physical GPU but is a distinct virtual device
    run_guest_memory_cycle(sim, protocol, region, "gpu", "display", "gpu")
    assert len(trace.of_kind("coherence.maintenance")) == 1


def test_guest_memory_same_vdev_rereads_free(setup):
    sim, _m, planner, trace = setup
    protocol = GuestMemoryWriteInvalidate(sim, planner, trace)
    region = SvmRegion(1, UHD_FRAME_BYTES)
    region.note_write("gpu", "gpu", UHD_FRAME_BYTES)

    def cycle():
        yield from protocol.executor_after_write(region, "gpu", "gpu")
        yield from protocol.executor_before_read(region, "gpu", "gpu")
        yield from protocol.executor_before_read(region, "gpu", "gpu")

    sim.spawn(cycle())
    sim.run()
    assert len(trace.of_kind("coherence.maintenance")) == 0  # writer rereads own data


def test_guest_memory_cpu_flush_is_free(setup):
    """Guest CPU writes land in guest memory directly — no crossing."""
    sim, _m, planner, trace = setup
    protocol = GuestMemoryWriteInvalidate(sim, planner, trace)
    region = SvmRegion(1, UHD_FRAME_BYTES)
    region.note_write("cpu", HOST_LOCATION, UHD_FRAME_BYTES)

    def cycle():
        yield from protocol.executor_after_write(region, "cpu", HOST_LOCATION)

    sim.spawn(cycle())
    sim.run()
    assert sim.now == 0.0
    assert region.is_valid_at(GUEST_LOCATION)


def test_guest_memory_cpu_read_is_free(setup):
    sim, _m, planner, trace = setup
    protocol = GuestMemoryWriteInvalidate(sim, planner, trace)
    region = SvmRegion(1, UHD_FRAME_BYTES)
    region.note_write("codec", HOST_LOCATION, UHD_FRAME_BYTES)

    def cycle():
        yield from protocol.executor_after_write(region, "codec", HOST_LOCATION)
        at_flush = sim.now
        yield from protocol.executor_before_read(region, "cpu", HOST_LOCATION)
        return sim.now - at_flush

    p = sim.spawn(cycle())
    sim.run()
    assert p.value == 0.0


# --- executor hooks: () when there is nothing to do ----------------------------

def _run(sim, hook):
    """Drive a hook's generator to its end in a process."""
    def proc():
        yield from hook

    sim.spawn(proc())
    sim.run()


def _prefetch_protocol(sim, planner, trace):
    # The read side never reads the prefetch engine.
    return UnifiedPrefetchProtocol(
        sim, planner, None, trace, degradation=DegradationController(sim)
    )


@pytest.mark.parametrize(
    "make, net_tag",
    [
        (_prefetch_protocol, "executor-miss"),
        (UnifiedWriteInvalidate, "write-invalidate-net"),
        (UnifiedBroadcast, "broadcast-net"),
    ],
    ids=["prefetch", "write-invalidate", "broadcast"],
)
def test_unified_before_read_is_empty_exactly_when_the_reader_is_current(
    setup, make, net_tag
):
    sim, _m, planner, trace = setup
    protocol = make(sim, planner, trace)
    region = SvmRegion(1, UHD_FRAME_BYTES)
    region.note_write("codec", HOST_LOCATION, UHD_FRAME_BYTES)
    assert protocol.executor_before_read(region, "cpu", HOST_LOCATION) == ()
    net = protocol.executor_before_read(region, "gpu", "gpu")
    assert inspect.isgenerator(net)
    _run(sim, net)
    assert region.is_valid_at("gpu")
    assert trace.values("coherence.maintenance", "path") == [net_tag]
    assert sim.now > 0.0  # the copy took bus time
    assert protocol.executor_before_read(region, "gpu", "gpu") == ()


@pytest.mark.parametrize(
    "make, read_tag",
    [
        (_prefetch_protocol, "sync-miss"),
        (UnifiedWriteInvalidate, "write-invalidate"),
        (UnifiedBroadcast, "broadcast-miss"),
    ],
    ids=["prefetch", "write-invalidate", "broadcast"],
)
def test_unified_stale_read_copies_once_under_its_read_tag(setup, make, read_tag):
    sim, _m, planner, trace = setup
    protocol = make(sim, planner, trace)
    region = SvmRegion(1, UHD_FRAME_BYTES)
    region.note_write("codec", HOST_LOCATION, UHD_FRAME_BYTES)

    def read():
        return (yield from protocol.begin_access_read(region, "gpu", "gpu"))

    p = sim.spawn(read())
    sim.run()
    assert region.is_valid_at("gpu")
    assert trace.values("coherence.maintenance", "path") == [read_tag]
    rows = trace.of_kind("coherence.maintenance")
    assert (rows[0]["src"], rows[0]["dst"]) == (HOST_LOCATION, "gpu")
    assert p.value == pytest.approx(sim.now) and sim.now > 0.0


@pytest.mark.parametrize(
    "make", [_prefetch_protocol, UnifiedBroadcast], ids=["prefetch", "broadcast"]
)
@pytest.mark.parametrize("hook", ["executor_before_read", "begin_access_read"])
def test_unified_stale_reader_joins_the_copy_in_flight_to_it(setup, make, hook):
    """A copy already headed to the reader is joined, not redone: the
    reader waits for it and writes no maintenance row of its own."""
    sim, _m, planner, trace = setup
    protocol = make(sim, planner, trace)
    region = SvmRegion(1, UHD_FRAME_BYTES)
    region.note_write("codec", HOST_LOCATION, UHD_FRAME_BYTES)

    def in_flight():
        yield from planner.copy_unified(HOST_LOCATION, "gpu", UHD_FRAME_BYTES)
        region.note_copy("gpu")

    region.pending_prefetch = sim.spawn(in_flight())
    region.prefetch_targets = {"gpu"}
    _run(sim, getattr(protocol, hook)(region, "gpu", "gpu"))
    assert region.is_valid_at("gpu")
    assert trace.count("coherence.maintenance") == 0
    assert sim.now == pytest.approx(
        planner.estimate_unified(HOST_LOCATION, "gpu", UHD_FRAME_BYTES)
    )


def test_broadcast_after_write_returns_empty_and_pushes(setup):
    sim, _m, planner, trace = setup
    protocol = UnifiedBroadcast(sim, planner, trace)
    region = SvmRegion(1, UHD_FRAME_BYTES)
    region.note_write("gpu", "gpu", UHD_FRAME_BYTES)
    assert protocol.executor_after_write(region, "gpu", "gpu") == ()
    assert region.pending_prefetch is not None and sim.now == 0.0
    sim.run()
    assert region.is_valid_at(HOST_LOCATION)
    assert protocol.broadcast_copies == 1


def test_guest_memory_hooks_are_empty_exactly_when_nothing_crosses(setup):
    sim, _m, planner, trace = setup
    protocol = GuestMemoryWriteInvalidate(sim, planner, trace)
    region = SvmRegion(1, UHD_FRAME_BYTES)
    region.note_write("cpu", HOST_LOCATION, UHD_FRAME_BYTES)
    # A CPU write lands in guest memory: no flush.
    assert protocol.executor_after_write(region, "cpu", HOST_LOCATION) == ()
    assert region.is_valid_at(GUEST_LOCATION)
    assert protocol.executor_before_read(region, "cpu", HOST_LOCATION) == ()
    fetch = protocol.executor_before_read(region, "gpu", "gpu")
    assert inspect.isgenerator(fetch)
    _run(sim, fetch)
    assert len(trace.of_kind("coherence.maintenance")) == 1
    assert protocol.executor_before_read(region, "gpu", "gpu") == ()
    # A device write flushes across the boundary.
    region.note_write("codec", HOST_LOCATION, UHD_FRAME_BYTES)
    flush = protocol.executor_after_write(region, "codec", HOST_LOCATION)
    assert inspect.isgenerator(flush)
    at_flush = sim.now
    _run(sim, flush)
    assert len(trace.of_kind("coherence.flush")) == 1
    assert sim.now > at_flush


# --- copy retries, pinned at the protocols' call sites -------------------------

def _failing(calls, failing, error=None):
    """Bus fault hook: the transfers numbered in ``failing`` (from 1) fail
    on their first byte, or raise ``error`` when one is given."""
    def hook(bus, nbytes):
        calls.append(bus.name)
        if len(calls) not in failing:
            return None
        if error is not None:
            raise error
        return 0.0

    return hook


def _host_to_gpu_read(sim, planner, trace):
    """Run a write-invalidate read that needs one host->gpu copy."""
    protocol = UnifiedWriteInvalidate(sim, planner, trace)
    region = SvmRegion(1, UHD_FRAME_BYTES)
    region.note_write("codec", HOST_LOCATION, UHD_FRAME_BYTES)
    outcome = {}

    def read():
        try:
            outcome["latency"] = yield from protocol.begin_access_read(region, "gpu", "gpu")
        except Exception as err:  # noqa: BLE001 - the test inspects it
            outcome["error"] = err

    sim.spawn(read())
    sim.run()
    return outcome


def _backoffs(trace):
    return [
        (r["op"], r["attempt"], r["delay"], r["error"])
        for r in trace.of_kind("retry.backoff")
    ]


def test_copy_retries_with_backoff_and_lands(setup):
    sim, machine, _p, trace = setup
    planner = CopyPlanner(sim, machine, trace=trace)
    calls = []
    machine.pcie.fault_hook = _failing(calls, {1, 2})
    outcome = _host_to_gpu_read(sim, planner, trace)
    assert "error" not in outcome
    assert _backoffs(trace) == [
        ("copy:host->gpu", 1, pytest.approx(0.05), "TransientCopyError"),
        ("copy:host->gpu", 2, pytest.approx(0.2), "TransientCopyError"),
    ]
    assert (planner.copy_retries, planner.copy_failures) == (2, 0)
    transfer = machine.pcie.transfer_time(UHD_FRAME_BYTES)
    # The reader waits out both backoffs; the copy reports its landing attempt.
    assert outcome["latency"] == pytest.approx(0.05 + 0.2 + transfer)
    assert trace.of_kind("coherence.maintenance")[0]["duration"] == pytest.approx(transfer)


def test_copy_reraises_its_third_failure(setup):
    sim, machine, _p, trace = setup
    planner = CopyPlanner(sim, machine, trace=trace)
    calls = []
    machine.pcie.fault_hook = _failing(calls, {1, 2, 3})
    outcome = _host_to_gpu_read(sim, planner, trace)
    assert isinstance(outcome["error"], TransientCopyError)
    assert len(calls) == 3
    assert (planner.copy_retries, planner.copy_failures) == (2, 1)


def test_copy_propagates_a_non_recoverable_error_at_once(setup):
    sim, machine, _p, trace = setup
    planner = CopyPlanner(sim, machine, trace=trace)
    calls = []
    machine.pcie.fault_hook = _failing(calls, {1}, error=HardwareError("wedged"))
    outcome = _host_to_gpu_read(sim, planner, trace)
    assert isinstance(outcome["error"], HardwareError)
    assert len(calls) == 1
    assert (planner.copy_retries, planner.copy_failures) == (0, 0)
    assert _backoffs(trace) == []


def test_boundary_and_roundtrip_copies_label_their_retries(setup):
    sim, machine, _p, trace = setup
    planner = CopyPlanner(sim, machine, trace=trace)
    calls = []
    # The flush's first transfer fails, then the round trip's first leg.
    machine.boundary.fault_hook = _failing(calls, {1, 3})
    flush_region = SvmRegion(1, UHD_FRAME_BYTES)
    flush_region.note_write("codec", HOST_LOCATION, UHD_FRAME_BYTES)
    flush = GuestMemoryWriteInvalidate(sim, planner, trace)
    ladder = DegradationController(sim)
    ladder.level = LEVEL_GUEST_ROUNDTRIP
    roundtrip = UnifiedPrefetchProtocol(sim, planner, None, trace, degradation=ladder)
    read_region = SvmRegion(2, UHD_FRAME_BYTES)
    read_region.note_write("codec", HOST_LOCATION, UHD_FRAME_BYTES)

    def run():
        yield from flush.executor_after_write(flush_region, "codec", HOST_LOCATION)
        yield from roundtrip.begin_access_read(read_region, "gpu", "gpu")

    sim.spawn(run())
    sim.run()
    assert [op for op, *_ in _backoffs(trace)] == ["copy:boundary", "copy:roundtrip"]
    assert planner.copy_retries == 2
    assert read_region.is_valid_at("gpu")


def test_watchdog_expiry_is_counted_and_retried(setup):
    sim, machine, _p, trace = setup
    planner = CopyPlanner(sim, machine, watchdog_margin=3.0, trace=trace)
    pcie = machine.pcie
    deadline = 3.0 * pcie.transfer_time(UHD_FRAME_BYTES) + 1.0
    # A transfer already on the bus outlasts the first attempt's deadline but
    # not the second's, even with the orphaned first attempt queued ahead.
    blocker = int((deadline + 0.5 - pcie.latency) * pcie.effective_bandwidth)
    sim.spawn(pcie.transfer(blocker))
    outcome = _host_to_gpu_read(sim, planner, trace)
    assert "error" not in outcome
    assert planner.watchdog_expiries == 1
    assert (planner.copy_retries, planner.copy_failures) == (1, 0)
    assert _backoffs(trace) == [
        ("copy:host->gpu", 1, pytest.approx(0.05), DeadlineExceededError.__name__)
    ]
