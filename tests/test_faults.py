"""Unit tests for the fault-injection framework (repro.faults)."""

import pytest

from repro.errors import ConfigurationError, TransientCopyError
from repro.faults import FaultInjector, FaultPlan
from repro.guest.transport import VirtioTransport
from repro.hw import MIDDLE_END_LAPTOP, build_machine
from repro.sim import Simulator, Timeout
from repro.sim.tracing import TraceLog
from repro.units import MIB


# -- FaultPlan validation ----------------------------------------------------

def test_plan_builders_chain():
    plan = (
        FaultPlan()
        .set_bus_load(100.0, "pcie", 0.5)
        .flap_bus("pcie", start_ms=200.0, period_ms=100.0, cycles=2, high_load=0.8)
        .copy_faults(0.0, 500.0, probability=0.3)
        .stall_device(50.0, "gpu", duration_ms=10.0)
        .reset_device(60.0, "cpu", downtime_ms=5.0)
        .transport_faults(0.0, 100.0, drop_probability=0.1)
    )
    assert len(plan.bus_loads) == 1 + 4  # one explicit + 2 cycles x 2 edges
    assert not plan.is_empty()
    assert plan.last_fault_time() == 500.0
    assert FaultPlan().is_empty()


def test_flap_bus_schedule_alternates():
    plan = FaultPlan().flap_bus(
        "pcie", start_ms=1000.0, period_ms=200.0, cycles=2, high_load=0.9, low_load=0.1
    )
    events = [(e.time_ms, e.load) for e in plan.bus_loads]
    assert events == [
        (1000.0, 0.9), (1100.0, 0.1),
        (1200.0, 0.9), (1300.0, 0.1),
    ]


@pytest.mark.parametrize(
    "build",
    [
        lambda p: p.set_bus_load(-1.0, "pcie", 0.5),
        lambda p: p.set_bus_load(0.0, "pcie", 1.0),
        lambda p: p.set_bus_load(0.0, "pcie", float("nan")),
        lambda p: p.flap_bus("pcie", 0.0, 0.0, 1, 0.5),
        lambda p: p.flap_bus("pcie", 0.0, 100.0, 0, 0.5),
        lambda p: p.copy_faults(100.0, 100.0, 0.5),
        lambda p: p.copy_faults(0.0, 100.0, 1.5),
        lambda p: p.copy_faults(0.0, 100.0, float("nan")),
        lambda p: p.stall_device(0.0, "gpu", 0.0),
        lambda p: p.reset_device(0.0, "gpu", -5.0),
        lambda p: p.transport_faults(100.0, 50.0, 0.5),
        lambda p: p.transport_faults(0.0, 100.0, delay_probability=0.5, delay_ms=0.0),
    ],
)
def test_plan_rejects_invalid_parameters(build):
    with pytest.raises(ConfigurationError):
        build(FaultPlan())


# -- bus fault hook ----------------------------------------------------------

def test_copy_fault_window_fails_transfers():
    sim = Simulator()
    machine = build_machine(sim)
    plan = FaultPlan().copy_faults(0.0, 1_000.0, probability=1.0, bus="pcie")
    injector = FaultInjector(sim, plan, seed=7, trace=TraceLog())
    injector.install_buses([machine.pcie])

    outcome = {}

    def xfer():
        try:
            yield from machine.pcie.transfer(4 * MIB)
        except TransientCopyError as err:
            outcome["error"] = err

    sim.spawn(xfer(), name="xfer")
    sim.run()
    assert "error" in outcome
    assert machine.pcie.transfer_failures == 1
    assert machine.pcie.transfer_count == 0
    assert injector.stats.copy_faults == 1
    # The failed transfer burned wire time (fraction of the full duration).
    assert 0.0 <= machine.pcie.busy_time <= machine.pcie.transfer_time(4 * MIB)


def test_copy_faults_outside_window_do_nothing():
    sim = Simulator()
    machine = build_machine(sim)
    plan = FaultPlan().copy_faults(5_000.0, 6_000.0, probability=1.0, bus="pcie")
    injector = FaultInjector(sim, plan, seed=7)
    injector.install_buses([machine.pcie])

    def xfer():
        yield from machine.pcie.transfer(4 * MIB)

    sim.spawn(xfer(), name="xfer")
    sim.run(until=100.0)
    assert machine.pcie.transfer_count == 1
    assert machine.pcie.transfer_failures == 0


def test_copy_faults_filter_by_bus_name():
    sim = Simulator()
    machine = build_machine(sim)
    plan = FaultPlan().copy_faults(0.0, 1_000.0, probability=1.0, bus="memctl")
    injector = FaultInjector(sim, plan, seed=7)
    injector.install_buses([machine.pcie, machine.memctl])
    assert machine.pcie.fault_hook is None
    assert machine.memctl.fault_hook is not None


def test_bus_load_events_fire_on_schedule():
    sim = Simulator()
    machine = build_machine(sim)
    trace = TraceLog()
    plan = FaultPlan().set_bus_load(50.0, "pcie", 0.75)
    FaultInjector(sim, plan, trace=trace).install_buses([machine.pcie])
    sim.run(until=100.0)
    assert machine.pcie.effective_bandwidth == pytest.approx(machine.pcie.bandwidth * 0.25)
    records = trace.of_kind("fault.bus_load")
    assert len(records) == 1 and records[0].time == pytest.approx(50.0)


def test_unknown_bus_raises():
    sim = Simulator()
    machine = build_machine(sim)
    plan = FaultPlan().set_bus_load(0.0, "no-such-bus", 0.5)
    with pytest.raises(ConfigurationError):
        FaultInjector(sim, plan).install_buses([machine.pcie])


# -- device stalls and resets -------------------------------------------------

def test_device_stall_blocks_queued_ops():
    sim = Simulator()
    machine = build_machine(sim)
    plan = FaultPlan().stall_device(0.0, "gpu", duration_ms=40.0)
    injector = FaultInjector(sim, plan, trace=TraceLog())
    injector.install_devices(machine.devices)

    done = {}

    def op():
        yield Timeout(1.0)  # submit after the stall has wedged the engine
        yield from machine.gpu.run_op("present")
        done["at"] = sim.now

    sim.spawn(op(), name="op")
    sim.run()
    assert injector.stats.stalls == 1
    assert done["at"] >= 40.0  # the op waited out the stall


def test_device_reset_clears_thermal_state():
    sim = Simulator()
    machine = build_machine(sim, MIDDLE_END_LAPTOP)  # laptop CPU has thermal
    cpu = machine.cpu
    assert cpu.thermal is not None
    cpu.thermal._heat = cpu.thermal.throttle_at + 1.0
    assert cpu.thermal.throttled
    plan = FaultPlan().reset_device(0.0, "cpu", downtime_ms=10.0)
    injector = FaultInjector(sim, plan)
    injector.install_devices(machine.devices)
    sim.run()
    assert injector.stats.resets == 1
    assert cpu.resets == 1
    assert not cpu.thermal.throttled


def test_unknown_device_raises():
    sim = Simulator()
    machine = build_machine(sim)
    plan = FaultPlan().stall_device(0.0, "tpu", 5.0)
    with pytest.raises(ConfigurationError):
        FaultInjector(sim, plan).install_devices(machine.devices)


# -- transport faults ----------------------------------------------------------

def test_transport_drop_is_paid_and_counted():
    sim = Simulator()
    transport = VirtioTransport(sim)
    # The window closes before the retry: one attempt drops, the next lands.
    plan = FaultPlan().transport_faults(0.0, 0.04, drop_probability=1.0)
    injector = FaultInjector(sim, plan, trace=TraceLog())
    injector.install_transport(transport)

    result = {}

    def kick():
        result["cost"] = yield from transport.kick_reliable(2)
        result["landed_at"] = sim.now

    sim.spawn(kick(), name="kick")
    sim.run()
    cost = transport.dispatch_cost(2)
    # The dropped attempt's cost and the first backoff are paid before the
    # kick that lands; the kick returns the landing attempt's cost.
    assert result["landed_at"] == pytest.approx(cost + 0.02 + cost)
    assert result["cost"] == pytest.approx(cost)
    assert transport.kicks_dropped == 1
    assert transport.kick_attempts == 2
    assert (transport.kicks, transport.commands) == (1, 2)  # successes only
    assert injector.stats.transport_drops == 1


def test_transport_delay_stretches_dispatch():
    sim = Simulator()
    transport = VirtioTransport(sim, kick_cost=0.02, per_command_cost=0.005)
    plan = FaultPlan().transport_faults(
        0.0, 100.0, delay_probability=1.0, delay_ms=3.0
    )
    FaultInjector(sim, plan).install_transport(transport)

    result = {}

    def kick():
        result["cost"] = yield from transport.kick_reliable(1)

    sim.spawn(kick(), name="kick")
    sim.run()
    assert result["cost"] == pytest.approx(0.025 + 3.0)
    assert transport.kicks_delayed == 1
    assert transport.delay_total_ms == pytest.approx(3.0)


def test_kick_reliable_survives_a_drop_window():
    sim = Simulator()
    transport = VirtioTransport(sim)
    # Window closes at 0.5 ms; an unbounded retry loop must get through.
    plan = FaultPlan().transport_faults(0.0, 0.5, drop_probability=1.0)
    FaultInjector(sim, plan).install_transport(transport)

    result = {}

    def kick():
        result["cost"] = yield from transport.kick_reliable(1)

    sim.spawn(kick(), name="kick")
    sim.run()
    assert "cost" in result
    assert transport.kicks == 1
    assert transport.kicks_dropped >= 1


def test_kick_reliable_backs_off_until_the_kick_lands():
    sim = Simulator()
    transport = VirtioTransport(sim)
    attempts = []

    def drop_forty(t, batch):
        attempts.append(sim.now)
        return ("drop",) if len(attempts) <= 40 else None

    transport.fault_hook = drop_forty
    result = {}

    def kick():
        result["cost"] = yield from transport.kick_reliable(3)

    sim.spawn(kick(), name="kick")
    sim.run()
    cost = transport.dispatch_cost(3)
    # 0.02, 0.04, 0.08 ... ms between attempts, capped at 1 ms, never giving up.
    backoffs = [b - a - cost for a, b in zip(attempts, attempts[1:])]
    assert backoffs == pytest.approx([min(1.0, 0.02 * 2 ** k) for k in range(40)])
    assert result["cost"] == pytest.approx(cost)
    assert (
        transport.kick_attempts, transport.kicks_dropped,
        transport.kicks, transport.commands,
    ) == (41, 40, 1, 3)


# -- determinism ----------------------------------------------------------------

def _chaos_machine_run(seed):
    """A mixed bus/transport workload under a probabilistic plan."""
    sim = Simulator()
    machine = build_machine(sim)
    trace = TraceLog()
    transport = VirtioTransport(sim)
    plan = (
        FaultPlan()
        .flap_bus("pcie", start_ms=10.0, period_ms=20.0, cycles=3, high_load=0.7)
        .copy_faults(0.0, 200.0, probability=0.4, bus="pcie")
        .transport_faults(0.0, 200.0, drop_probability=0.3)
    )
    injector = FaultInjector(sim, plan, seed=seed, trace=trace)
    injector.install_buses([machine.pcie])
    injector.install_transport(transport)

    def traffic():
        for _ in range(40):
            try:
                yield from machine.pcie.transfer(2 * MIB)
            except TransientCopyError:
                pass
            yield from transport.kick_reliable(1)

    sim.spawn(traffic(), name="traffic")
    sim.run()
    return [(r.time, r.kind, tuple(sorted(r.fields.items()))) for r in trace]


def test_same_plan_and_seed_give_identical_traces():
    assert _chaos_machine_run(seed=42) == _chaos_machine_run(seed=42)


def test_different_seeds_diverge():
    assert _chaos_machine_run(seed=1) != _chaos_machine_run(seed=2)


def test_injector_installs_only_once():
    sim = Simulator()
    injector = FaultInjector(sim, FaultPlan())

    class _Planner:
        boundary = None

    class _Emu:  # minimal stand-in for an emulator
        def __init__(self):
            self.machine = build_machine(sim)
            self.planner = _Planner()
            self.transport = VirtioTransport(sim)

    injector.install(_Emu())
    with pytest.raises(ConfigurationError):
        injector.install(_Emu())

