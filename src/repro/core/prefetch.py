"""The prefetch engine (§3.3): robust ahead-of-time coherence.

For each write the engine:

1. at host write retirement, predicts the next reader(s) from the
   region's data flow in the twin hypergraphs (falling back to the
   busiest flow from the writing virtual device — the zero-shot path for
   freshly allocated regions);
2. unless suspended, launches the coherence copy immediately as a
   background DMA process;
3. earlier, at the write's dispatch, tells the guest driver how long to
   block — the *compensation* ``max(0, predicted_prefetch_time −
   predicted_slack)`` — so that by the time the next access arrives, the
   copy has finished (Figure 8). :meth:`PrefetchEngine.predicted_compensation`
   is the only place it is computed: the driver applies it, and the
   launch computes none.

Robustness policies from the paper's corner cases:

* three consecutive prediction failures on a flow suspend prefetching for
  that flow (for :data:`SUSPEND_COOLDOWN` subsequent writes);
* prefetch is skipped while the copy path's available bandwidth sits below
  50% of the maximum this engine has observed on that path.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Optional, Set, Tuple

from repro.core.coherence import (
    MAINTENANCE_FIELDS,
    RECOVERABLE_COPY_ERRORS,
    CopyPlanner,
    join_copies,
)
from repro.core.degradation import LEVEL_PREFETCHED, DegradationController
from repro.core.region import SvmRegion
from repro.core.twin import TwinHypergraphs
from repro.sim import Simulator
from repro.sim.tracing import TraceLog
from repro.units import VSYNC_PERIOD_MS

#: Consecutive failures after which a flow's prefetching is suspended (§3.3).
FAILURE_SUSPEND_THRESHOLD = 3
#: Available/maximum bandwidth ratio below which prefetch is skipped (§3.3).
BANDWIDTH_SUSPEND_RATIO = 0.5
#: Writes to sit out before a suspended flow is retried. The paper says
#: "temporarily suspend" without a figure; one VSync-worth of typical
#: pipeline writes is a conservative re-probe interval.
SUSPEND_COOLDOWN = 20


class PrefetchStats:
    """Counters the §5.2 microbenchmarks report."""

    def __init__(self) -> None:
        self.predictions = 0
        self.hits = 0
        self.misses = 0
        self.cold_starts = 0
        self.launched = 0
        self.suspended_skips = 0
        self.bandwidth_skips = 0
        self.wasted_prefetches = 0
        self.degraded_skips = 0
        self.prefetch_failures = 0

    @property
    def accuracy(self) -> Optional[float]:
        """Device-prediction accuracy (paper: 99-100%)."""
        if self.predictions == 0:
            return None
        return self.hits / self.predictions

    #: Modeled CPU cost of one engine invocation (hash lookups + a couple
    #: of float ops). ~2 µs on a modern core; used only for the §5.2
    #: "<1% CPU overhead" accounting, never charged to simulated time.
    CPU_COST_PER_EVENT_MS = 0.002

    @property
    def bookkeeping_events(self) -> int:
        return self.predictions + self.launched + self.cold_starts + self.suspended_skips

    def cpu_overhead_fraction(self, duration_ms: float) -> float:
        """Estimated fraction of one core spent on engine bookkeeping."""
        if duration_ms <= 0:
            return 0.0
        return self.bookkeeping_events * self.CPU_COST_PER_EVENT_MS / duration_ms


class PrefetchEngine:
    """Prediction + launch + compensation + suspension (§3.3)."""

    def __init__(
        self,
        sim: Simulator,
        twin: TwinHypergraphs,
        planner: CopyPlanner,
        vdev_location: Callable[[str], str],
        trace: TraceLog,
        degradation: DegradationController,
    ):
        self._sim = sim
        self._twin = twin
        self._planner = planner
        self._vdev_location = vdev_location
        self._trace = trace
        self._maintenance = trace.channel("coherence.maintenance", *MAINTENANCE_FIELDS)
        self.degradation = degradation
        # The suspension rule's figures; ablations and tests vary them on a
        # built engine.
        self.failure_threshold = FAILURE_SUSPEND_THRESHOLD
        self.suspend_cooldown = SUSPEND_COOLDOWN
        # Flow-level (coarse-grained) history enables zero-shot predictions
        # for fresh regions (§3.3); False = per-region history only.
        self.zero_shot = True
        self.stats = PrefetchStats()
        self._failures: Dict[object, int] = {}
        self._suspended: Dict[object, int] = {}
        self._suspended_since: Dict[object, float] = {}
        self.suspension_time_ms = 0.0
        self._max_bandwidth: Dict[str, float] = {}
        self._targets: Dict[Tuple[FrozenSet[str], str], Set[str]] = {}

    # -- write-side: prediction and launch -------------------------------------
    def launch(self, region: SvmRegion, writer_vdev: str, writer_loc: str) -> None:
        """Called at host write retirement; spawns the ahead-of-time copy."""
        if self._degraded():
            # The ladder stepped past the prefetched level: stay quiet until
            # the controller offers level 0 again as a probe.
            self.stats.degraded_skips += 1
            region.prefetch_predicted_vdevs = None
            return
        predicted = self._twin.predict_readers(
            region.region_id, writer_vdev, allow_zero_shot=self.zero_shot
        )
        if predicted is None or not predicted.reader_vdevs:
            self.stats.cold_starts += 1
            region.prefetch_predicted_vdevs = None
            return

        vkey = predicted.vedge.key if predicted.vedge is not None else None
        region.prefetch_predicted_vdevs = predicted.reader_vdevs
        region.prefetch_vkey = vkey
        # Remember what we predicted for this generation so the read side
        # can score the slack estimate against the observed interval.
        slack = self._twin.predict_slack(predicted.vedge)
        region.prefetch_predicted_slack = slack

        if self._is_suspended(vkey):
            self.stats.suspended_skips += 1
            return

        targets = self._remote_targets(predicted.reader_vdevs, writer_loc)
        if not targets:
            return  # co-located readers: the in-GPU zero-copy case (§3.2)

        if not self._bandwidth_allows(writer_loc, targets):
            self.stats.bandwidth_skips += 1
            return

        pedge = predicted.pedge
        if len(targets) == 1:
            (target,) = targets
            region.pending_prefetch = self._sim.spawn(
                self._prefetch_copy(region, writer_loc, target, pedge),
                name=f"prefetch:r{region.region_id}->{target}",
            )
        else:
            copies = [
                self._sim.spawn(
                    self._prefetch_copy(region, writer_loc, target, pedge),
                    name=f"prefetch:r{region.region_id}->{target}",
                )
                for target in sorted(targets)
            ]
            region.pending_prefetch = self._sim.spawn(
                join_copies(copies), name=f"prefetch:r{region.region_id}:join"
            )
        region.prefetch_targets = targets
        self.stats.launched += 1

    def _degraded(self) -> bool:
        # At level 0, plan_level() is the level itself.
        degradation = self.degradation
        return (
            degradation.level > LEVEL_PREFETCHED
            and degradation.plan_level() > LEVEL_PREFETCHED
        )

    def _prefetch_copy(self, region: SvmRegion, src: str, dst: str, pedge):
        start = self._sim.now
        flow = region.flow
        try:
            duration = yield from self._planner.copy_unified(
                src, dst, region.dirty_bytes
            )
        except RECOVERABLE_COPY_ERRORS as err:
            # A dead prefetch must not poison its joiners: readers re-check
            # validity after the join and fall back to sync maintenance.
            self.stats.prefetch_failures += 1
            self.degradation.note_failure(LEVEL_PREFETCHED, reason=type(err).__name__)
            self._trace.record(
                self._sim.now,
                "prefetch.failed",
                bytes=region.dirty_bytes,
                region=region.region_id,
                target=dst,
                error=type(err).__name__,
                start=start,
                flow=flow,
                src=src,
            )
            return None
        region.note_copy(dst)
        self.degradation.note_success(LEVEL_PREFETCHED)
        if pedge is not None:
            self._twin.note_prefetch_duration(pedge, duration)
        self._maintenance(
            self._sim.now, duration, region.dirty_bytes, "prefetch", region.region_id,
            start, flow, src, dst,
        )
        return duration

    def _remote_targets(self, reader_vdevs: FrozenSet[str], writer_loc: str) -> Set[str]:
        """Reader locations other than the writer's, memoized per flow.

        Locations are static, so each ``(reader_vdevs, writer_loc)`` is
        answered once. Every call hands out the very set built the first
        time, which callers must not change: :meth:`_bandwidth_allows`
        walks it in iteration order, so a rebuilt copy could change which
        ``_max_bandwidth`` entries a call updates before it stops.
        """
        key = (reader_vdevs, writer_loc)
        targets = self._targets.get(key)
        if targets is None:
            targets = self._targets[key] = {
                loc
                for loc in (self._vdev_location(v) for v in reader_vdevs)
                if loc != writer_loc
            }
        return targets

    def _bandwidth_allows(self, writer_loc: str, targets: Set[str]) -> bool:
        """The 50%-of-max available-bandwidth rule (§3.3)."""
        for target in targets:
            for bus in self._planner.unified_legs(writer_loc, target):
                seen_max = self._max_bandwidth.get(bus.name, 0.0)
                current = bus.effective_bandwidth
                if current > seen_max:
                    self._max_bandwidth[bus.name] = current
                    seen_max = current
                if seen_max > 0 and current < BANDWIDTH_SUSPEND_RATIO * seen_max:
                    return False
        return True

    # -- driver-side prediction (guest context) ---------------------------------
    def predicted_compensation(
        self, region: SvmRegion, writer_vdev: str, writer_loc: str
    ) -> float:
        """``max(0, predicted prefetch time − predicted slack)`` (Figure 8).

        What the guest driver blocks for, computed at dispatch time. This
        is the only place compensation is computed: the driver applies it
        and records it as an ``svm.compensation`` row. It consults the
        (guest-shared) hypergraph statistics before the host retires the
        write, with the predictors and the suspension verdict
        :meth:`launch` uses. Returns 0 when no prediction exists, the ladder
        is past the prefetched level or the flow is suspended (the driver
        then stays fully asynchronous).
        """
        predicted = self._twin.predict_readers(
            region.region_id, writer_vdev, allow_zero_shot=self.zero_shot
        )
        if predicted is None or not predicted.reader_vdevs:
            return 0.0
        vkey = predicted.vedge.key if predicted.vedge is not None else None
        if self._degraded() or self._is_suspended(vkey, consume=False):
            return 0.0
        targets = self._remote_targets(predicted.reader_vdevs, writer_loc)
        if not targets:
            return 0.0
        # The twin's predictions for the flow; with no slack observed yet,
        # one VSync period stands in for it.
        slack = self._twin.predict_slack(predicted.vedge)
        if slack is None:
            slack = VSYNC_PERIOD_MS
        prefetch_time = self._twin.predict_prefetch_time(predicted.pedge)
        if prefetch_time is None:
            prefetch_time = max(
                self._planner.estimate_unified(writer_loc, t, region.dirty_bytes)
                for t in targets
            )
        return max(0.0, prefetch_time - slack)

    # -- read-side: accuracy accounting and suspension -----------------------------
    def on_read(
        self, region: SvmRegion, reader_vdev: str, reader_loc: str
    ) -> Optional[float]:
        """Score the generation's prediction on its first read.

        Returns the slack the engine predicted at launch time for the
        generation it scored (None when it scored nothing). The manager
        puts it on the read's ``svm.slack`` record as ``predicted``, next
        to the observed slack, and the capture-time metrics view turns the
        pair into the §5.2 slack-estimate error.
        """
        predicted = region.prefetch_predicted_vdevs
        if predicted is None:
            return None
        region.prefetch_predicted_vdevs = None  # score once per generation
        self.stats.predictions += 1
        vkey = region.prefetch_vkey
        if reader_vdev in predicted:
            self.stats.hits += 1
            if vkey is not None:
                self._failures[vkey] = 0
        else:
            self.stats.misses += 1
            if region.pending_prefetch is not None:
                self.stats.wasted_prefetches += 1
            if vkey is not None:
                failures = self._failures.get(vkey, 0) + 1
                self._failures[vkey] = failures
                if failures >= self.failure_threshold:
                    self._suspended[vkey] = self.suspend_cooldown
                    self._suspended_since[vkey] = self._sim.now
                    self._failures[vkey] = 0
                    self._trace.record(
                        self._sim.now, "prefetch.suspend", vkey=str(vkey)
                    )
        return region.prefetch_predicted_slack

    def _is_suspended(self, vkey, consume: bool = True) -> bool:
        """Whether this flow's prefetching is in cooldown.

        A cooldown of N skips exactly N writes. The host-side launch path
        passes ``consume=True``, spending one cooldown credit per skipped
        write; the guest-driver path (:meth:`predicted_compensation`)
        passes ``consume=False`` so both sides see the same verdict for
        the same write — the driver reads, the host decrements.
        """
        if vkey is None:
            return False
        remaining = self._suspended.get(vkey)
        if remaining is None:
            return False
        if remaining <= 0:
            del self._suspended[vkey]
            self._note_suspension_end(vkey)
            return False
        if consume:
            self._suspended[vkey] = remaining - 1
        return True

    def _note_suspension_end(self, vkey) -> None:
        """Fold a finished cooldown into :attr:`suspension_time_ms`."""
        since = self._suspended_since.pop(vkey, None)
        if since is None:
            return
        self.suspension_time_ms += self._sim.now - since

    # -- crash recovery ----------------------------------------------------------
    def reset_vdev_history(self, vdev: str) -> int:
        """Drop failure/suspension history for flows involving ``vdev``.

        Called when a crashed device is re-admitted: its pre-crash
        mispredictions must not keep its flows suspended, and its flow keys
        are about to be removed from the twin anyway. Returns the number of
        flow entries cleared.
        """
        def touches(vkey: object) -> bool:
            if not isinstance(vkey, tuple) or len(vkey) != 2:
                return False
            sources, destinations = vkey
            return vdev in sources or vdev in destinations

        doomed = {k for k in self._failures if touches(k)}
        doomed |= {k for k in self._suspended if touches(k)}
        for vkey in doomed:
            self._failures.pop(vkey, None)
            self._suspended.pop(vkey, None)
            self._note_suspension_end(vkey)
        return len(doomed)

    # -- checkpointing -----------------------------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        """Deterministic, JSON-able image of the engine's learned state."""
        from repro.core.hypergraph import serialize_edge_key

        def key_str(vkey: object) -> str:
            return repr(serialize_edge_key(vkey))

        return {
            "stats": {
                name: getattr(self.stats, name)
                for name in sorted(vars(self.stats))
            },
            "failures": {
                key_str(k): v for k, v in sorted(
                    self._failures.items(), key=lambda kv: key_str(kv[0])
                )
            },
            "suspended": {
                key_str(k): v for k, v in sorted(
                    self._suspended.items(), key=lambda kv: key_str(kv[0])
                )
            },
            "suspension_time_ms": self.suspension_time_ms,
            "max_bandwidth": dict(sorted(self._max_bandwidth.items())),
        }
