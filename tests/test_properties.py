"""Property-based tests on core invariants (hypothesis).

These check structural invariants that must hold for *any* access pattern,
not just the pipelines the apps produce.
"""

from hypothesis import given, settings, strategies as st

from repro.core.fence import VirtualFenceTable
from repro.core.flowcontrol import MimdFlowControl
from repro.core.region import HOST_LOCATION, SvmRegion
from repro.core.twin import TwinHypergraphs
from repro.sim import FifoQueue, Simulator
from repro.units import MIB

LOCATIONS = st.sampled_from([HOST_LOCATION, "gpu", "guest"])
VDEVS = st.sampled_from(["codec", "gpu", "display", "camera", "isp", "cpu"])


# --- SvmRegion coherence invariants ---------------------------------------------

@given(st.lists(st.tuples(st.booleans(), VDEVS, LOCATIONS),
                min_size=1, max_size=60))
def test_region_writer_location_always_valid(ops):
    """Invariant: after any op sequence, the last writer's location holds a
    valid copy — a reader can always find the data *somewhere*."""
    region = SvmRegion(1, MIB)
    for is_write, vdev, location in ops:
        if is_write:
            region.note_write(vdev, location, MIB)
        else:
            region.note_copy(location)
    if region.last_writer_location is not None:
        assert region.is_valid_at(region.last_writer_location)


@given(st.lists(st.tuples(VDEVS, LOCATIONS), min_size=1, max_size=60))
def test_copies_never_shrink_valid_set(copies):
    region = SvmRegion(1, MIB)
    region.note_write("codec", HOST_LOCATION, MIB)
    previous = set(region.valid_locations)
    for _vdev, location in copies:
        region.note_copy(location)
        assert previous <= region.valid_locations
        previous = set(region.valid_locations)


# --- Twin hypergraphs --------------------------------------------------------------

@given(st.lists(st.tuples(st.booleans(), VDEVS, LOCATIONS), min_size=1, max_size=80))
def test_twin_never_crashes_and_stays_bounded(events):
    """Arbitrary interleavings of reads/writes must neither crash the twin
    bookkeeping nor grow edges beyond the flows actually seen."""
    twin = TwinHypergraphs(
        ["codec", "gpu", "display", "camera", "isp", "cpu"],
        [HOST_LOCATION, "gpu", "guest"],
    )
    twin.register_region(1)
    distinct_flows = set()
    writer = None
    readers = set()
    for is_write, vdev, location in events:
        if is_write:
            if writer is not None and readers:
                distinct_flows.add((writer, frozenset(readers)))
            writer, readers = vdev, set()
            twin.on_write(1, vdev, location, MIB)
        else:
            readers.add(vdev)
            twin.on_read(1, vdev, location, 10.0)
    assert len(twin.virtual) <= max(1, len(distinct_flows))


@given(st.integers(min_value=1, max_value=50))
def test_twin_overhead_linear_in_regions(n):
    twin = TwinHypergraphs(["a", "b"], ["host"])
    for rid in range(n):
        twin.register_region(rid)
    assert twin.tracked_regions == n
    assert twin.memory_overhead_bytes() < 4096 + n * 256


# --- Virtual fence table --------------------------------------------------------------

@given(st.lists(st.booleans(), min_size=1, max_size=400))
@settings(max_examples=50)
def test_fence_table_never_leaks_indices(signal_pattern):
    """Allocate/signal in arbitrary order: live + free slots == capacity."""
    sim = Simulator()
    table = VirtualFenceTable(sim, capacity=32)
    live = []
    for should_signal in signal_pattern:
        if should_signal and live:
            fence = live.pop(0)
            if not fence.signaled:
                fence.signal()
        else:
            try:
                live.append(table.allocate())
            except Exception:
                # table full of pending fences — legal back-pressure state
                pass
    assert table.live_fences + len(table._free) == table.capacity
    indices = set(table._slots) | set(table._free)
    assert len(indices) == table.capacity  # no index lost or duplicated


# --- MIMD flow control ---------------------------------------------------------------

@given(st.lists(st.booleans(), min_size=1, max_size=300))
def test_mimd_in_flight_never_negative_or_above_max(ops):
    sim = Simulator()
    fc = MimdFlowControl(sim, initial_window=4.0, max_window=16.0)
    for dispatch in ops:
        if dispatch:
            fc.try_dispatch()
        elif fc.in_flight > 0:
            fc.complete()
        assert 0 <= fc.in_flight
        assert fc.min_window <= fc.window <= fc.max_window


# --- FifoQueue conservation ------------------------------------------------------------

@given(st.lists(st.one_of(st.integers(min_value=0, max_value=1000), st.none()),
                min_size=1, max_size=200))
def test_fifo_queue_conserves_items(ops):
    """Items out (in order) + items in queue == items put."""
    sim = Simulator()
    queue = FifoQueue(sim, capacity=None)
    put_items = []
    got_items = []
    for op in ops:
        if op is None:
            item = queue.try_get()
            if item is not None:
                got_items.append(item)
        else:
            queue.try_put(op)
            put_items.append(op)
    assert got_items == put_items[: len(got_items)]  # FIFO order
    assert len(got_items) + len(queue) == len(put_items)


# --- RetryPolicy backoff ladder -------------------------------------------------

@given(
    base=st.floats(min_value=1e-3, max_value=50.0),
    multiplier=st.floats(min_value=1.0, max_value=4.0),
    cap=st.floats(min_value=1e-3, max_value=500.0),
    tries=st.integers(min_value=2, max_value=40),
)
@settings(max_examples=100)
def test_retry_delay_monotone_capped_and_repeatable(base, multiplier, cap,
                                                    tries):
    """The backoff ladder never shrinks, never exceeds the cap, and is a
    pure function of its inputs (same policy, same answers)."""
    from repro.sim.resilience import RetryPolicy

    policy = RetryPolicy(max_attempts=None, base_delay_ms=base,
                         multiplier=multiplier, max_delay_ms=cap)
    delays = [policy.delay_before_retry(n) for n in range(1, tries + 1)]
    assert all(later >= earlier
               for earlier, later in zip(delays, delays[1:]))
    assert all(0.0 <= delay <= cap for delay in delays)
    assert delays == [policy.delay_before_retry(n)
                      for n in range(1, tries + 1)]


def test_retry_delay_deterministic_across_process_boundary():
    """A ``RetryPolicy`` delay schedule computed in a fresh interpreter is
    identical, repr for repr, to the one computed in this process."""
    import os
    import subprocess
    import sys

    code = (
        "from repro.sim.resilience import RetryPolicy\n"
        "p = RetryPolicy(max_attempts=None, base_delay_ms=0.07,"
        " multiplier=1.7, max_delay_ms=123.4)\n"
        "print(repr([p.delay_before_retry(n) for n in range(1, 30)]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    outputs = [
        subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=env, check=True).stdout.strip()
        for _ in range(2)
    ]
    from repro.sim.resilience import RetryPolicy

    local = RetryPolicy(max_attempts=None, base_delay_ms=0.07,
                        multiplier=1.7, max_delay_ms=123.4)
    expected = repr([local.delay_before_retry(n) for n in range(1, 30)])
    assert outputs[0] == outputs[1] == expected
