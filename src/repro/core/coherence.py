"""Coherence protocols and the copy-path planner.

Coherence maintenance is data copying that makes a reader's location hold
the newest bytes (§2.2). Four protocols are implemented; the first three
share the unified SVM framework's direct copy paths (§3.2) and one read
side, and differ only in what a write retirement does and how a miss
copies:

* :class:`UnifiedPrefetchProtocol` — vSoC's protocol (§3.3): copies run on
  the shortest host-side path, launched *ahead of time* by the prefetch
  engine at write retirement, so reads find data already resident; a
  miss walks the degradation ladder.
* :class:`UnifiedWriteInvalidate` — the §5.4 ablation: same direct copy
  paths, but lazily at ``begin_access`` and necessarily synchronous with
  host execution (the classic write-invalidate protocol [36]).
* :class:`UnifiedBroadcast` — the broadcast protocol §7 rejects: every
  write retirement pushes the data to every location.
* :class:`GuestMemoryWriteInvalidate` — the baseline architecture of §2.2
  (GAE, QEMU-KVM): every maintenance round-trips through guest memory,
  costing two crossings of the virtualization boundary.

A unified protocol's stale reader waits for a write in flight elsewhere,
joins the copy already headed to it, else copies; the ``path`` of each
``coherence.maintenance`` row names which protocol and hook copied.

The :class:`CopyPlanner` knows the machine topology and picks the legs of a
copy: nothing for co-located data (the in-GPU zero-copy special case of
§3.2), one bus for host↔device, two for device↔device.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Iterable, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.core.degradation import (
    LEVEL_GUEST_ROUNDTRIP,
    LEVEL_NAMES,
    DegradationController,
)
from repro.core.region import GUEST_LOCATION, HOST_LOCATION, SvmRegion
from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    DegradedModeError,
    TransientCopyError,
)
from repro.hw.bus import Bus
from repro.hw.machine import HostMachine
from repro.sim import RetryPolicy, Simulator, Timeout, with_deadline
from repro.sim.tracing import TraceLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.prefetch import PrefetchEngine

#: Retry schedule for coherence copies: three tries with a short,
#: steep backoff — a coherence copy sits on the access-latency critical
#: path, so waiting long before retrying is worse than failing over.
COPY_RETRY_POLICY = RetryPolicy(
    max_attempts=3, base_delay_ms=0.05, multiplier=4.0, max_delay_ms=2.0
)

#: Exceptions a coherence copy may survive via retry or degradation.
RECOVERABLE_COPY_ERRORS = (TransientCopyError, DeadlineExceededError)

#: Fields of a ``coherence.maintenance`` record, in channel order. ``start``
#: and ``flow`` are the copy span's (repro.obs.span.ROW_SPANS); ``src`` and
#: ``dst`` are the locations the copy read and made valid.
MAINTENANCE_FIELDS = (
    "duration", "bytes", "path", "region", "start", "flow", "src", "dst",
)


def _copy_label(src: str, dst: Optional[str]) -> str:
    return f"copy:{src}->{dst}" if dst is not None else f"copy:{src}"


class CopyPlanner:
    """Plans and executes coherence copies over the host topology.

    Each copy path — :meth:`copy_unified`, :meth:`copy_via_boundary` and
    :meth:`copy_roundtrip` — runs its bus legs through one retry loop:

    * a copy that fails transiently is retried per
      :data:`COPY_RETRY_POLICY`, with a ``retry.backoff`` trace record per
      retry;
    * when ``watchdog_margin`` is set, each attempt must finish within
      ``margin × queueing-free-estimate`` or it counts as failed (the
      orphaned transfer still drains its bus).

    ``watchdog_margin`` defaults to ``None`` (disabled) so fault-free
    benchmarks keep their exact timing; the chaos harness enables it.
    """

    def __init__(
        self,
        sim: Simulator,
        machine: HostMachine,
        boundary: Optional[Bus] = None,
        watchdog_margin: Optional[float] = None,
        trace: Optional[TraceLog] = None,
    ):
        if watchdog_margin is not None and watchdog_margin <= 1.0:
            raise ConfigurationError(
                f"watchdog_margin must be > 1 (a multiple of the estimate), "
                f"got {watchdog_margin}"
            )
        self._sim = sim
        self.boundary = boundary if boundary is not None else machine.boundary
        self.watchdog_margin = watchdog_margin
        self.trace = trace
        self.copy_retries = 0
        self.copy_failures = 0
        self.watchdog_expiries = 0
        self._links: Dict[str, Bus] = {}
        self._legs: Dict[Tuple[str, str], List[Bus]] = {}
        for device in machine.devices.values():
            if device.local_memory is not None:
                if device.link is None:
                    raise ConfigurationError(
                        f"device {device.name!r} has local memory but no bus link"
                    )
                self._links[device.name] = device.link

    # -- unified (vSoC) paths -------------------------------------------------
    def unified_legs(self, src: str, dst: str) -> List[Bus]:
        """Buses a direct host-side copy must traverse (may be empty).

        The links are fixed at construction, so each ``(src, dst)`` is
        planned once and every call returns that same list, which callers
        must not change. An unknown location raises on every call.
        """
        legs = self._legs.get((src, dst))
        if legs is None:
            legs = []
            if src != dst:
                if src != HOST_LOCATION:
                    legs.append(self._link(src))
                if dst != HOST_LOCATION:
                    legs.append(self._link(dst))
            self._legs[(src, dst)] = legs
        return legs

    def estimate_unified(self, src: str, dst: str, nbytes: int) -> float:
        """Queueing-free time estimate for a direct copy (cold-start path)."""
        return sum(bus.transfer_time(nbytes) for bus in self.unified_legs(src, dst))

    def copy_unified(self, src: str, dst: str, nbytes: int) -> Generator[Any, Any, float]:
        """Process: a direct copy; returns the elapsed ms of the attempt that landed."""
        return self._copy(self.unified_legs(src, dst), nbytes, src, dst)

    # -- guest-memory (baseline) paths -------------------------------------------
    def copy_via_boundary(self, nbytes: int) -> Generator[Any, Any, float]:
        """Process: one crossing of the virtualization boundary.

        The boundary bus's bandwidth is an *effective* figure calibrated to
        include the device-side leg (see :mod:`repro.hw.machine`), so a
        full baseline maintenance is exactly two of these.
        """
        return self._copy((self.boundary,), nbytes, "boundary")

    def copy_roundtrip(self, nbytes: int) -> Generator[Any, Any, float]:
        """Process: the full legacy 4-copy path — two boundary crossings.

        This is the deepest degradation rung: flush to guest memory, then
        fetch back out. Twice the boundary cost, but no dependence on the
        direct device links that keep faulting.
        """
        return self._copy((self.boundary, self.boundary), nbytes, "roundtrip")

    # -- the retry loop ------------------------------------------------------
    def _copy(
        self, legs: Sequence[Bus], nbytes: int, src: str, dst: Optional[str] = None
    ) -> Generator[Any, Any, float]:
        """Move ``nbytes`` over ``legs`` in turn, retried per :data:`COPY_RETRY_POLICY`.

        ``src``/``dst`` name the route in the ``copy:`` label of retry
        records and watchdog processes (a boundary path passes its name as
        ``src``); the label is built only when one of those needs it.
        """
        sim = self._sim
        deadline = None
        if self.watchdog_margin is not None:
            estimate = sum(bus.transfer_time(nbytes) for bus in legs)
            if estimate > 0:
                deadline = self.watchdog_margin * estimate + 1.0
        failures = 0
        while True:
            try:
                if deadline is None:
                    start = sim.now
                    for bus in legs:
                        yield from bus.transfer(nbytes)
                    return sim.now - start
                return (
                    yield from with_deadline(
                        sim, self._attempt(legs, nbytes), deadline,
                        name=_copy_label(src, dst),
                    )
                )
            except RECOVERABLE_COPY_ERRORS as err:
                if isinstance(err, DeadlineExceededError):
                    self.watchdog_expiries += 1
                failures += 1
                if COPY_RETRY_POLICY.exhausted(failures):
                    self.copy_failures += 1
                    raise
                delay = COPY_RETRY_POLICY.delay_before_retry(failures)
                if self.trace is not None:
                    self.trace.record(
                        sim.now,
                        "retry.backoff",
                        op=_copy_label(src, dst),
                        attempt=failures,
                        delay=delay,
                        error=type(err).__name__,
                    )
                self.copy_retries += 1
                if delay > 0:
                    yield Timeout(delay)

    def _attempt(self, legs: Sequence[Bus], nbytes: int) -> Generator[Any, Any, float]:
        """Process: one watchdogged attempt; returns its elapsed ms."""
        start = self._sim.now
        for bus in legs:
            yield from bus.transfer(nbytes)
        return self._sim.now - start

    # -- helpers -------------------------------------------------------------
    def _link(self, location: str) -> Bus:
        try:
            return self._links[location]
        except KeyError:
            raise ConfigurationError(f"no bus link for location {location!r}") from None

    def known_locations(self) -> List[str]:
        return [HOST_LOCATION, *sorted(self._links)]


class CoherenceProtocol:
    """Hook interface the SVM manager and host executors drive.

    A hook may block (bus transfers, waiting for fences), so the caller
    runs what it returns with ``yield from``, in the same expression that
    calls it. A hook with nothing to block on therefore does its work when
    called and returns ``()``, which that ``yield from`` finishes at once:
    exactly a generator whose first step ends without yielding, minus the
    generator. The manager guarantees the calling context:

    * :meth:`begin_access_read` — guest driver context, inside
      ``begin_access``; its elapsed time **is** the access latency the
      paper measures. Always a generator: its return value is that
      latency, which ``()`` cannot carry.
    * :meth:`executor_after_write` — host executor, right after a write
      op retires (before its signal fence fires). ``()`` when it only
      launches or records (vSoC's prefetch launch, write-invalidate's
      nothing, broadcast's pushes, the guest-memory CPU write), else the
      generator of the baseline's flush.
    * :meth:`executor_before_read` — host executor, after the wait fence
      and before the read op; the correctness net for data that guest-side
      logic did not wait for. ``()`` when the reader's copy is current,
      else the generator that joins the in-flight copy or copies.
    """

    name = "abstract"

    def begin_access_read(
        self, region: SvmRegion, reader_vdev: str, reader_loc: str
    ) -> Generator[Any, Any, float]:
        raise NotImplementedError  # pragma: no cover - interface
        yield  # pragma: no cover

    def executor_after_write(
        self, region: SvmRegion, writer_vdev: str, writer_loc: str
    ) -> Iterable[Any]:
        raise NotImplementedError  # pragma: no cover - interface

    def executor_before_read(
        self, region: SvmRegion, reader_vdev: str, reader_loc: str
    ) -> Iterable[Any]:
        raise NotImplementedError  # pragma: no cover - interface


def join_copies(copies):
    """Process: wait for each of ``copies`` in turn.

    A write that sends its data to several locations at once keeps this as
    the region's one in-flight copy, so a reader joins all of them; every
    joiner discards the value.
    """
    for copy in copies:
        yield copy


class _UnifiedProtocol(CoherenceProtocol):
    """The read side the three unified protocols share (§3.2).

    A stale reader first waits for a write still in flight at another
    location, then joins the copy already headed to it (a prefetch or a
    broadcast push), else copies through :meth:`_maintain`, a direct copy
    from the newest writer's location. Subclasses differ in what a write
    retirement does and name the path tag of each miss: ``read_tag`` for a
    copy in :meth:`begin_access_read`, ``net_tag`` for one in the executor
    net.
    """

    read_tag: str
    net_tag: str

    def __init__(self, sim: Simulator, planner: CopyPlanner, trace: TraceLog):
        self._sim = sim
        self._planner = planner
        self._maintenance = trace.channel("coherence.maintenance", *MAINTENANCE_FIELDS)

    def begin_access_read(self, region, reader_vdev, reader_loc):
        """Block until coherent at the reader — near zero after a good prefetch."""
        start = self._sim.now
        if (
            region.write_in_flight
            and region.write_fence is not None
            and region.pending_writer_location != reader_loc
        ):
            # The newest data is still being produced *somewhere else*;
            # a coherence copy needs it finalized first. (Co-located
            # readers don't wait here — command fences order them on the
            # device itself, the weak-state case of §3.4.)
            yield region.write_fence.wait()
        # The join and the copy stay inline: a helper generator here would
        # add a frame under every stage that misses.
        if not region.is_valid_at(reader_loc):
            prefetch = region.pending_prefetch
            if prefetch is not None and reader_loc in region.prefetch_targets:
                yield prefetch  # join the copy already headed here
            if not region.is_valid_at(reader_loc):
                # No copy was headed here (a misprediction, a suspension, a
                # lazy protocol), or it died on a transient fault.
                yield from self._maintain(region, reader_loc, self.read_tag)
        return self._sim.now - start

    def executor_before_read(self, region, reader_vdev, reader_loc):
        """Safety net: ensure residency before the device touches the data."""
        if region.is_valid_at(reader_loc):
            return ()
        return self._executor_miss(region, reader_loc)

    def _executor_miss(self, region, reader_loc):
        """Process: join the copy headed to the reader, else copy."""
        prefetch = region.pending_prefetch
        if prefetch is not None and reader_loc in region.prefetch_targets:
            yield prefetch
        if not region.is_valid_at(reader_loc):
            yield from self._maintain(region, reader_loc, self.net_tag)

    def _maintain(self, region, reader_loc, path):
        """Process: copy the newest bytes straight to ``reader_loc`` on a
        unified path, and record the maintenance on ``path``."""
        start = self._sim.now
        flow = region.flow
        src = region.last_writer_location or HOST_LOCATION
        duration = yield from self._planner.copy_unified(
            src, reader_loc, region.dirty_bytes
        )
        region.note_copy(reader_loc)
        self._maintenance(
            self._sim.now, duration, region.dirty_bytes, path, region.region_id,
            start, flow, src, reader_loc,
        )


class UnifiedPrefetchProtocol(_UnifiedProtocol):
    """vSoC's protocol: direct paths + ahead-of-time copies (§3.3).

    A write retirement launches the prefetch engine's copy. A miss walks
    the :class:`~repro.core.degradation.DegradationController`'s ladder:
    level 0/1 use the direct unified path (retried), level 2 falls back to
    the 4-copy guest-memory round-trip. Repeated failures escalate;
    successes at a probe level restore.
    """

    name = "unified-prefetch"
    read_tag = "sync-miss"
    net_tag = "executor-miss"

    #: Hard cap on ladder rounds inside one maintenance call — with a
    #: 3-level ladder and 3 failures per escalation, 12 covers the worst
    #: legal walk with margin; past it something is wedged for good.
    MAX_MAINTENANCE_ROUNDS = 12

    def __init__(
        self,
        sim: Simulator,
        planner: CopyPlanner,
        engine: "PrefetchEngine",
        trace: TraceLog,
        degradation: DegradationController,
    ):
        super().__init__(sim, planner, trace)
        self._engine = engine
        self._failed = trace.channel(
            "coherence.failed", "bytes", "region", "start", "flow"
        )
        self.degradation = degradation

    def executor_after_write(self, region, writer_vdev, writer_loc):
        """Launch the ahead-of-time copy at once; never blocks the executor.

        Returns ``()``: the caller's ``yield from`` then finishes at once,
        at the point where a generator's first step would have launched.
        """
        self._engine.launch(region, writer_vdev, writer_loc)
        return ()

    def _maintain(self, region, reader_loc, path):
        """Process: synchronous maintenance, walking the degradation ladder.

        Tries the level :meth:`DegradationController.plan_level` plans
        (direct unified copy below level 2, guest-memory round-trip at
        level 2), reporting each outcome so the controller can escalate or
        restore. Only gives up — :class:`DegradedModeError`, after a
        ``coherence.failed`` record — when even the round-trip path keeps
        failing.
        """
        src = region.last_writer_location or HOST_LOCATION
        start = self._sim.now
        flow = region.flow
        ladder = self.degradation
        for _ in range(self.MAX_MAINTENANCE_ROUNDS):
            level = ladder.plan_level()
            try:
                if level >= LEVEL_GUEST_ROUNDTRIP:
                    duration = yield from self._planner.copy_roundtrip(
                        region.dirty_bytes
                    )
                    region.note_copy(GUEST_LOCATION)
                    tag = f"{path}-degraded"
                else:
                    duration = yield from self._planner.copy_unified(
                        src, reader_loc, region.dirty_bytes
                    )
                    tag = path
            except RECOVERABLE_COPY_ERRORS as err:
                ladder.note_failure(level, reason=type(err).__name__)
                if level >= LEVEL_GUEST_ROUNDTRIP:
                    self._failed(
                        self._sim.now, region.dirty_bytes, region.region_id, start, flow
                    )
                    raise DegradedModeError(
                        f"region {region.region_id}: maintenance failed even on "
                        f"the {LEVEL_NAMES[LEVEL_GUEST_ROUNDTRIP]} path"
                    ) from err
                continue
            ladder.note_success(level)
            region.note_copy(reader_loc)
            self._maintenance(
                self._sim.now, duration, region.dirty_bytes, tag, region.region_id,
                start, flow, src, reader_loc,
            )
            return duration
        self._failed(self._sim.now, region.dirty_bytes, region.region_id, start, flow)
        raise DegradedModeError(
            f"region {region.region_id}: maintenance did not converge within "
            f"{self.MAX_MAINTENANCE_ROUNDS} ladder rounds"
        )


class UnifiedWriteInvalidate(_UnifiedProtocol):
    """The §5.4 ablation: direct paths, but lazy and synchronous.

    Memory is updated at the beginning of each SVM access; coherence needs
    synchronous guest-host execution, so ``begin_access`` first waits out
    the producing write — the source of the chain reaction in Figure 16.
    Nothing ever copies ahead, so a stale reader always copies itself.
    """

    name = "unified-write-invalidate"
    read_tag = "write-invalidate"
    net_tag = "write-invalidate-net"

    def executor_after_write(self, region, writer_vdev, writer_loc):
        return ()  # lazy: nothing to do until a read


class UnifiedBroadcast(_UnifiedProtocol):
    """A classical broadcast protocol over the unified framework (§7).

    At every write retirement, the new data is pushed to *every* location —
    no prediction needed, reads never block. The related-work section
    dismisses broadcast for mobile emulation because of its bandwidth
    overhead; this implementation exists to quantify that: framebuffers
    get pushed GPU→host although nothing ever reads them there, CPU
    scratch regions get pushed host→GPU, and so on. Compare bus
    ``bytes_moved`` against the prefetch protocol's.
    """

    name = "unified-broadcast"
    read_tag = "broadcast-miss"
    net_tag = "broadcast-net"

    def __init__(self, sim: Simulator, planner: CopyPlanner, trace: TraceLog):
        super().__init__(sim, planner, trace)
        self._trace = trace
        self.broadcast_copies = 0

    def _targets(self, writer_loc: str):
        return [
            loc for loc in self._planner.known_locations()
            if loc not in (writer_loc, GUEST_LOCATION)
        ]

    def executor_after_write(self, region, writer_vdev, writer_loc):
        """Push the dirty data everywhere, asynchronously."""
        targets = self._targets(writer_loc)
        if not targets:
            return ()
        copies = []
        for target in targets:
            copies.append(self._sim.spawn(
                self._push(region, writer_loc, target),
                name=f"broadcast:r{region.region_id}->{target}",
            ))
        region.prefetch_targets = set(targets)
        if len(copies) == 1:
            region.pending_prefetch = copies[0]
        else:
            region.pending_prefetch = self._sim.spawn(
                join_copies(copies), name=f"broadcast:r{region.region_id}:join"
            )
        return ()

    def _push(self, region, src, dst):
        start = self._sim.now
        flow = region.flow
        try:
            duration = yield from self._planner.copy_unified(
                src, dst, region.dirty_bytes
            )
        except RECOVERABLE_COPY_ERRORS as err:
            # A failed push only costs bandwidth savings: the reader-side
            # safety net re-copies on demand. Never poison the joiners.
            self._trace.record(
                self._sim.now, "broadcast.failed",
                bytes=region.dirty_bytes, region=region.region_id,
                error=type(err).__name__, start=start, flow=flow, dst=dst,
            )
            return 0.0
        region.note_copy(dst)
        self.broadcast_copies += 1
        self._maintenance(
            self._sim.now, duration, region.dirty_bytes, "broadcast", region.region_id,
            start, flow, src, dst,
        )
        return duration


class GuestMemoryWriteInvalidate(CoherenceProtocol):
    """The modular baseline of §2.2: coherence through guest memory.

    Virtual devices are isolated from each other: each one only keeps its
    *own* copy in sync with guest memory. Validity is therefore tracked
    per **virtual device**, not per physical location — two virtual
    devices backed by the same physical GPU still round-trip data through
    guest memory, which is precisely the waste the unified SVM framework
    eliminates (§3.2's in-GPU zero-copy special case).

    After a device writes, its virtual device flushes the data to guest
    memory (one boundary crossing, in the writer's executor); before
    another device reads, its virtual device fetches from guest memory
    (the second crossing). ``begin_access`` itself stays cheap — which is
    why QEMU-KVM shows the lowest access latency in Table 2 while paying
    the highest coherence and throughput costs.
    """

    name = "guest-memory-write-invalidate"

    def __init__(
        self,
        sim: Simulator,
        planner: CopyPlanner,
        trace: TraceLog,
    ):
        self._sim = sim
        self._planner = planner
        self._flush = trace.channel(
            "coherence.flush", "duration", "bytes", "region", "start", "flow"
        )
        self._maintenance = trace.channel("coherence.maintenance", *MAINTENANCE_FIELDS)
        # region_id -> virtual devices holding an up-to-date private copy
        self._valid_vdevs: Dict[int, set] = {}

    def begin_access_read(self, region, reader_vdev, reader_loc):
        # Guest memory is kept up to date eagerly; the CPU-visible mapping
        # is always coherent. Nothing to wait for here.
        return 0.0
        yield  # pragma: no cover - generator form required by the interface

    def executor_after_write(self, region, writer_vdev, writer_loc):
        """Flush: writer's copy → guest memory (first boundary crossing)."""
        self._valid_vdevs[region.region_id] = {writer_vdev}
        if writer_vdev == "cpu":
            # Guest CPU writes land in guest memory directly (mmap'd); the
            # SVM *is* guest memory in this architecture, so no flush.
            region.note_copy(GUEST_LOCATION)
            region.last_flush_duration = 0.0
            return ()
        return self._flush_to_guest(region)

    def _flush_to_guest(self, region):
        """Process: copy the writer's bytes across the boundary."""
        start = self._sim.now
        flow = region.flow
        duration = yield from self._planner.copy_via_boundary(region.dirty_bytes)
        region.note_copy(GUEST_LOCATION)
        region.last_flush_duration = duration
        self._flush(
            self._sim.now, duration, region.dirty_bytes, region.region_id, start, flow
        )

    def executor_before_read(self, region, reader_vdev, reader_loc):
        """Fetch: guest memory → reader's copy (second boundary crossing)."""
        valid = self._valid_vdevs.setdefault(region.region_id, set())
        if reader_vdev in valid or reader_vdev == "cpu":
            return ()  # guest CPU reads its own memory mapping for free
        return self._fetch_from_guest(region, reader_vdev, reader_loc, valid)

    def _fetch_from_guest(self, region, reader_vdev, reader_loc, valid):
        """Process: copy guest memory's bytes to the reader."""
        start = self._sim.now
        flow = region.flow
        duration = yield from self._planner.copy_via_boundary(region.dirty_bytes)
        valid.add(reader_vdev)
        region.note_copy(reader_loc)
        flush_cost = region.last_flush_duration
        # Table 2's coherence cost: the fetch plus the flush before it.
        self._maintenance(
            self._sim.now, duration + flush_cost, region.dirty_bytes, "guest-memory",
            region.region_id, start, flow, GUEST_LOCATION, reader_loc,
        )
