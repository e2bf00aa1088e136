"""The SVM Manager (§3.2): unified lifecycle and accounting for SVM regions.

The manager implements the shared-memory interface of Figure 3 on the host
side: 64-bit IDs, lazy per-location backing allocation, a host-side
hashtable of complete metadata, and the twin-hypergraph statistics feed.
Virtual devices identify regions purely by ID — the unified representation
that lets coherence run directly between devices without guest involvement.

Metric definitions (shared with §5.2):

* **access latency** — time a ``begin_access`` call blocks the guest
  caller, including protocol waits and the page-mapping cost;
* **slack interval** — host write retirement → next cross-device
  ``begin_access`` on the same region;
* **coherence cost** — duration of one maintenance (traced by the
  protocols as ``coherence.maintenance`` records).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Iterable, Optional

from repro.core.coherence import CoherenceProtocol
from repro.core.degradation import LEVEL_PREFETCHED, DegradationController
from repro.core.region import AccessUsage, SvmRegion
from repro.core.twin import TwinHypergraphs
from repro.errors import SvmError, UnknownRegionError
from repro.hw.memory import MemoryPool
from repro.sim import Simulator, Timeout
from repro.sim.tracing import TraceLog
from repro.units import VSYNC_PERIOD_MS

if False:  # pragma: no cover - typing only
    from repro.core.prefetch import PrefetchEngine

#: A read blocked longer than this (ms) makes a VSync-scheduled caller miss
#: its frame deadline (§3.3's chain reaction).
CHAIN_REACTION_THRESHOLD_MS = 2.0
#: Only VSync-scheduled render/composition threads suffer the missed-frame
#: chain reaction; pipeline worker threads just absorb the delay into their
#: period.
CHAIN_REACTION_VDEVS = frozenset({"gpu", "display"})


class SvmManager:
    """Host-side manager for every SVM region of one emulator instance."""

    def __init__(
        self,
        sim: Simulator,
        twin: TwinHypergraphs,
        protocol: CoherenceProtocol,
        location_pools: Dict[str, MemoryPool],
        trace: TraceLog,
        page_map_cost: float,
        extra_access_overhead: float = 0.0,
        engine: Optional["PrefetchEngine"] = None,
        degradation: Optional[DegradationController] = None,
    ):
        self._sim = sim
        self.twin = twin
        self.protocol = protocol
        self.engine = engine
        self.degradation = degradation
        self._pools = dict(location_pools)
        self._trace = trace
        self._slack = trace.channel("svm.slack", "region", "slack", "predicted")
        # ``start`` and ``flow`` are the access span's (repro.obs.span.ROW_SPANS).
        self._access_latency = trace.channel(
            "svm.access_latency", "region", "vdev", "usage", "latency", "bytes",
            "start", "flow", "degraded_level",
        )
        self._write_retired = trace.channel(
            "svm.write_retired", "region", "vdev", "bytes", "flow"
        )
        mapping_cost = page_map_cost + extra_access_overhead
        # Every access pays the same mapping cost: one Timeout serves them all.
        self._mapping = Timeout(mapping_cost) if mapping_cost > 0 else None
        self.chain_reactions = 0
        self.accesses_closed = 0
        self._regions: Dict[int, SvmRegion] = {}
        self._next_id = 1
        self.allocs_total = 0
        self.frees_total = 0
        # Optional runtime invariant auditor (see repro.recovery.audit).
        # When installed it gets an inline visibility check on every read
        # access, in addition to its periodic sim-hook sweep.
        self.auditor = None

    # -- lifecycle (alloc / free of Figure 3) ------------------------------------
    def alloc(self, size: int) -> int:
        """Allocate a region; returns its unique 64-bit ID."""
        region = SvmRegion(self._next_id, size)
        self._next_id += 1
        self._regions[region.region_id] = region
        self.twin.register_region(region.region_id)
        self.allocs_total += 1
        self._trace.record(self._sim.now, "svm.alloc", region=region.region_id, size=size)
        return region.region_id

    def free(self, region_id: int) -> None:
        """Free a region; open access brackets make this an error."""
        region = self.get(region_id)
        if region.open_accessors:
            raise SvmError(
                f"freeing region #{region_id} with open accesses: "
                f"{sorted(region.open_accessors)}"
            )
        region.freed = True
        region.release_backing()
        del self._regions[region_id]
        self.twin.drop_region(region_id)
        self.frees_total += 1
        self._trace.record(self._sim.now, "svm.free", region=region_id)

    def get(self, region_id: int) -> SvmRegion:
        """The region with this handle. The access and executor paths read
        ``_regions`` directly and call this only to raise on a miss."""
        try:
            return self._regions[region_id]
        except KeyError:
            raise UnknownRegionError(f"unknown SVM region #{region_id}") from None

    @property
    def live_regions(self) -> int:
        return len(self._regions)

    # -- access brackets (begin_access / end_access of Figure 3) -----------------
    def begin_access(
        self,
        vdev: str,
        region_id: int,
        usage: AccessUsage,
        location: str,
        nbytes: Optional[int] = None,
    ) -> Generator[Any, Any, float]:
        """Process: open an access; returns the blocking latency in ms.

        Lazy backing allocation happens here — the first access reveals
        which location actually needs memory (§3.2).
        """
        region = self._regions.get(region_id) or self.get(region_id)
        window = nbytes if nbytes is not None else region.size
        region.open_access(vdev, usage, window)
        start = self._sim.now
        flow = region.flow
        # Slack is defined from write retirement to access *arrival*, so
        # sample it before the mapping work consumes time.
        slack = self._slack_for(region) if usage.reads else None

        if self._mapping is not None:
            yield self._mapping
        if location not in region.backing:
            self._ensure_backing(region, location)

        if usage.reads:
            predicted = None
            if self.engine is not None:
                predicted = self.engine.on_read(region, vdev, location)
            self.twin.on_read(region_id, vdev, location, slack)
            if slack is not None:
                if predicted is None:
                    self._slack(self._sim.now, region_id, slack)
                else:
                    # Only a scored read carries the engine's prediction.
                    self._slack(self._sim.now, region_id, slack, predicted)
            blocked = yield from self.protocol.begin_access_read(region, vdev, location)
            if self.auditor is not None:
                # "No access observes stale bytes": once the protocol has
                # admitted the read, the reader's location must hold an
                # up-to-date copy. Checked here (not in the periodic sweep)
                # because mid-maintenance states are legal between accesses.
                self.auditor.check_read_visibility(region, vdev, location)
            # The chain reaction of §3.3: mobile services schedule around
            # the assumption that SVM access is instantaneous. An
            # unexpected multi-ms block makes the caller miss its frame
            # deadline and wait for the next VSync ("even a slightly longer
            # SVM access latency (e.g., 2 ms) ... causes apps to miss the
            # current frame deadline and wait for the next").
            if vdev in CHAIN_REACTION_VDEVS and blocked > CHAIN_REACTION_THRESHOLD_MS:
                next_tick = (int(self._sim.now / VSYNC_PERIOD_MS) + 1) * VSYNC_PERIOD_MS
                self.chain_reactions += 1
                yield Timeout(next_tick - self._sim.now)

        if usage.writes:
            # Host retirement does the invalidation; the flag marks that the
            # newest data is still in flight so readers order behind it.
            region.write_in_flight = True

        latency = self._sim.now - start
        degradation = self.degradation
        if degradation is not None and degradation.level > LEVEL_PREFETCHED:
            # Tag accesses made under degraded coherence so metrics can
            # attribute latency spikes to the fault, not the workload.
            self._access_latency(
                self._sim.now, region_id, vdev, usage.code, latency, window,
                start, flow, degradation.level,
            )
        else:
            self._access_latency(
                self._sim.now, region_id, vdev, usage.code, latency, window,
                start, flow,
            )
        return latency

    def end_access(self, vdev: str, region_id: int) -> None:
        """Close an access bracket opened by ``begin_access``."""
        (self._regions.get(region_id) or self.get(region_id)).close_access(vdev)
        self.accesses_closed += 1

    def _slack_for(self, region: SvmRegion) -> Optional[float]:
        """*Natural* slack: write retirement → read arrival, minus any
        compensation the driver injected for this generation.

        Without the discount the predictor would chase its own tail: the
        driver blocks to stretch a short slack, the stretched slack is
        observed, the predicted compensation shrinks, the next read blocks
        again — an oscillation instead of Figure 8's steady state.
        """
        if region.write_in_flight or region.write_complete_time is None:
            return None
        observed = self._sim.now - region.write_complete_time
        return max(0.0, observed - region.applied_compensation)

    def _ensure_backing(self, region: SvmRegion, location: str) -> None:
        """Back ``region`` at ``location``; callers check it has none there."""
        pool = self._pools.get(location)
        if pool is None:
            return  # pseudo-locations without a modelled pool
        region.backing[location] = pool.allocate(region.size, tag=f"svm#{region.region_id}")

    # -- host-executor hooks ------------------------------------------------------
    def host_write_retired(
        self, region_id: int, vdev: str, location: str, nbytes: int
    ) -> Iterable[Any]:
        """Process (executor context): a write op finished on the host.

        Performs the invalidation, timestamps the write for slack
        measurement and feeds the twin hypergraphs at once, then calls the
        protocol's after-write hook and returns what it returns for the
        caller to ``yield from``: the baseline flush as a generator, or
        ``()`` when the hook had nothing to block on (see
        :class:`~repro.core.coherence.CoherenceProtocol`).
        """
        region = self._regions.get(region_id) or self.get(region_id)
        region.note_write(vdev, location, nbytes)
        region.write_in_flight = False
        region.write_complete_time = self._sim.now
        if location not in region.backing:
            self._ensure_backing(region, location)
        self.twin.on_write(region_id, vdev, location, nbytes)
        self._write_retired(self._sim.now, region_id, vdev, nbytes, region.flow)
        return self.protocol.executor_after_write(region, vdev, location)

    def host_before_read(
        self, region_id: int, vdev: str, location: str
    ) -> Iterable[Any]:
        """Process (executor context): coherence net before a device read;
        returns the protocol's hook for the caller to ``yield from``."""
        region = self._regions.get(region_id) or self.get(region_id)
        if location not in region.backing:
            self._ensure_backing(region, location)
        return self.protocol.executor_before_read(region, vdev, location)

    # -- checkpoint (repro.recovery.snapshot) -------------------------------------
    def snapshot_state(self) -> Dict[str, Any]:
        """Deterministic, JSON-able image of all SVM bookkeeping.

        Covers the region hashtable (full coherence state per region), the
        ID allocator, and lifetime counters. Fences and the twin
        hypergraphs snapshot themselves; :class:`repro.recovery.snapshot`
        stitches the pieces into one checksummed document.
        """
        return {
            "next_id": self._next_id,
            "allocs_total": self.allocs_total,
            "frees_total": self.frees_total,
            "chain_reactions": self.chain_reactions,
            "regions": {
                str(region_id): region.state_dict()
                for region_id, region in sorted(self._regions.items())
            },
        }

    # -- §5.2 overhead accounting -------------------------------------------------
    def memory_overhead_bytes(self) -> int:
        """Framework metadata footprint (paper: at most 3.1 MiB)."""
        per_region_metadata = 160
        return self.twin.memory_overhead_bytes() + len(self._regions) * per_region_metadata
