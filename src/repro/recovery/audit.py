"""Runtime coherence-invariant auditor (ISSUE 4 tentpole, part 3).

The :class:`InvariantAuditor` is a :class:`~repro.sim.kernel.SimHook` that
periodically sweeps the live emulator and asserts the invariants the whole
design rests on:

* **single-writer** — no two different virtual devices hold open *write*
  brackets on one SVM region at the same time;
* **writer-visibility** — once a write has retired, the writer's location
  holds a valid copy (an invalidation that forgot its own writer);
* **fence-liveness** — no fence is waited on longer than the watchdog
  deadline without being signalled or poisoned (the "no fence waited
  before signalled-or-poisoned" property, observed rather than assumed);
* **hashtable-bijection** — the SVM manager's region hashtable and the twin
  hypergraphs' region hashtable hold exactly the same region IDs;
* **monotonic-stats** — hyperedge observation counts and slack sample
  counts never decrease between audits (prediction history only grows,
  except through an announced crash reset), and slack estimates stay
  finite and non-negative;
* **stale-read** (inline, not in the sweep) — a read the coherence protocol
  just admitted must observe an up-to-date copy at the reader's location.

Violations become structured :class:`~repro.errors.InvariantViolation`
records: appended to :attr:`violations`, traced as ``audit.violation``
(an observed run's metrics view counts those records into
``audit.violations{invariant}``), and — in CI strict mode
(``raise_on_violation=True``) — raised, failing the run on the spot.

Hooks must not mutate simulator state; the auditor only reads the emulator
and appends to its own buffers, so observing a run with it leaves the run's
trace bit-identical.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Tuple

from repro.core.coherence import GuestMemoryWriteInvalidate
from repro.errors import InvariantViolation
from repro.sim.kernel import SimHook

#: Default sweep cadence: ~3 VSync periods — frequent enough to catch a
#: broken state before it propagates, cheap enough to leave on everywhere.
DEFAULT_AUDIT_INTERVAL_MS = 50.0
#: A fence waited on longer than this without signalling or poisoning is a
#: liveness violation (matches the order of the copy watchdog deadlines).
DEFAULT_FENCE_WAIT_DEADLINE_MS = 1_000.0


class InvariantAuditor(SimHook):
    """Periodic + inline assertion of the emulator's coherence invariants."""

    def __init__(
        self,
        emulator: Any,
        interval_ms: float = DEFAULT_AUDIT_INTERVAL_MS,
        fence_wait_deadline_ms: float = DEFAULT_FENCE_WAIT_DEADLINE_MS,
        raise_on_violation: bool = False,
    ):
        self._emulator = emulator
        self._sim = emulator.sim
        self.interval_ms = interval_ms
        self.fence_wait_deadline_ms = fence_wait_deadline_ms
        self.raise_on_violation = raise_on_violation
        #: Inline read-visibility checks only make sense for the unified
        #: SVM architecture; the guest-memory baseline tracks validity
        #: through the guest copy, which is not location-resolved.
        self.check_visibility = (
            emulator.config.coherence is not GuestMemoryWriteInvalidate
        )
        self.audits = 0
        self.checks = 0
        self.violations: List[Dict[str, Any]] = []
        self._last_sweep = self._sim.now
        #: serialized edge key -> (observations, slack sample count)
        self._edge_watermarks: Dict[str, Tuple[int, int]] = {}

    # -- SimHook ----------------------------------------------------------------
    def on_event_dispatch(self, time: float, call: Any) -> None:
        if time - self._last_sweep >= self.interval_ms:
            self._last_sweep = time
            self.sweep()

    # -- the periodic sweep -----------------------------------------------------
    def sweep(self) -> int:
        """Run every invariant check once; returns violations found now."""
        before = len(self.violations)
        self.audits += 1
        self._check_single_writer()
        self._check_writer_visibility()
        self._check_fence_liveness()
        self._check_hashtable_bijection()
        self._check_monotonic_stats()
        return len(self.violations) - before

    def _check_single_writer(self) -> None:
        for region_id in sorted(self._emulator.manager._regions):
            region = self._emulator.manager._regions[region_id]
            self.checks += 1
            writers = sorted(
                acc.vdev for acc in region._open.values() if acc.usage.writes
            )
            if len(writers) > 1:
                self._violation(
                    "single-writer",
                    f"region #{region_id} has concurrent open write brackets "
                    f"from {writers}",
                    region=region_id,
                    writers=writers,
                )

    def _check_writer_visibility(self) -> None:
        for region_id in sorted(self._emulator.manager._regions):
            region = self._emulator.manager._regions[region_id]
            self.checks += 1
            if (
                not region.write_in_flight
                and region.last_writer_location is not None
                and region.valid_locations
                and region.last_writer_location not in region.valid_locations
            ):
                self._violation(
                    "writer-visibility",
                    f"region #{region_id}'s last writer location "
                    f"{region.last_writer_location!r} is not in its valid set "
                    f"{sorted(region.valid_locations)}",
                    region=region_id,
                    writer_location=region.last_writer_location,
                    valid=sorted(region.valid_locations),
                )

    def _check_fence_liveness(self) -> None:
        table = self._emulator.fence_table
        now = self._sim.now
        for index in sorted(table._slots):
            fence = table._slots[index]
            self.checks += 1
            if (
                fence.state.value == "pending"
                and fence.waiters > 0
                and fence.first_wait_at is not None
                and now - fence.first_wait_at > self.fence_wait_deadline_ms
            ):
                self._violation(
                    "fence-liveness",
                    f"fence #{index} (owner {fence.owner!r}) has had waiters "
                    f"for {now - fence.first_wait_at:.1f}ms without being "
                    "signalled or poisoned",
                    fence=index,
                    owner=fence.owner,
                    waited_ms=now - fence.first_wait_at,
                )

    def _check_hashtable_bijection(self) -> None:
        self.checks += 1
        manager_ids = set(self._emulator.manager._regions)
        twin_ids = self._emulator.twin.region_ids()
        if manager_ids != twin_ids:
            self._violation(
                "hashtable-bijection",
                "SVM manager and twin hypergraphs disagree on live regions: "
                f"manager-only={sorted(manager_ids - twin_ids)} "
                f"twin-only={sorted(twin_ids - manager_ids)}",
                manager_only=sorted(manager_ids - twin_ids),
                twin_only=sorted(twin_ids - manager_ids),
            )

    def _check_monotonic_stats(self) -> None:
        from repro.core.hypergraph import serialize_edge_key

        seen: Dict[str, Tuple[int, int]] = {}
        for edge in self._emulator.twin.virtual:
            self.checks += 1
            key = repr(serialize_edge_key(edge.key))
            slack = edge.stats.get("slack")
            samples = slack.n if slack is not None else 0
            seen[key] = (edge.observations, samples)
            previous = self._edge_watermarks.get(key)
            if previous is not None and (
                edge.observations < previous[0] or samples < previous[1]
            ):
                self._violation(
                    "monotonic-stats",
                    f"flow {key} went backwards: observations "
                    f"{previous[0]}→{edge.observations}, slack samples "
                    f"{previous[1]}→{samples} (no crash reset was announced)",
                    edge=key,
                )
            level = slack.predict() if slack is not None else None
            if level is not None and (not math.isfinite(level) or level < 0):
                self._violation(
                    "monotonic-stats",
                    f"flow {key} has an invalid slack estimate {level!r}",
                    edge=key,
                    level=level,
                )
        # Edges can legitimately disappear (region churn, crash resets);
        # keeping their watermarks would flag any later re-learning of the
        # same flow as a regression.
        self._edge_watermarks = seen

    # -- inline check (called by the SVM manager) ---------------------------------
    def check_read_visibility(self, region: Any, vdev: str, location: str) -> None:
        """A protocol-admitted read must not observe stale bytes."""
        if not self.check_visibility:
            return
        self.checks += 1
        if not region.is_valid_at(location):
            self._violation(
                "stale-read",
                f"vdev {vdev!r} admitted to read region #{region.region_id} at "
                f"{location!r}, but valid copies are only at "
                f"{sorted(region.valid_locations)}",
                region=region.region_id,
                vdev=vdev,
                location=location,
                valid=sorted(region.valid_locations),
            )

    # -- crash-reset coordination --------------------------------------------------
    def note_history_reset(self, vdev: str) -> None:
        """Recovery wiped flows touching ``vdev``: forget their watermarks."""
        import ast

        def touches(key_repr: str) -> bool:
            sources, destinations = ast.literal_eval(key_repr)
            return vdev in sources or vdev in destinations

        self._edge_watermarks = {
            key: mark
            for key, mark in self._edge_watermarks.items()
            if not touches(key)
        }

    # -- reporting ------------------------------------------------------------------
    def _violation(self, invariant: str, message: str, **context: Any) -> None:
        record = {
            "time": self._sim.now,
            "invariant": invariant,
            "message": message,
            **context,
        }
        self.violations.append(record)
        self._emulator.trace.record(
            self._sim.now, "audit.violation", invariant=invariant
        )
        if self.raise_on_violation:
            raise InvariantViolation(invariant, message, **context)

    def report(self) -> Dict[str, Any]:
        """JSON-able audit summary (the CI artifact)."""
        by_invariant: Dict[str, int] = {}
        for violation in self.violations:
            name = violation["invariant"]
            by_invariant[name] = by_invariant.get(name, 0) + 1
        return {
            "audits": self.audits,
            "checks": self.checks,
            "violations": list(self.violations),
            "violations_by_invariant": dict(sorted(by_invariant.items())),
            "clean": not self.violations,
        }


def install_auditor(
    emulator: Any,
    interval_ms: float = DEFAULT_AUDIT_INTERVAL_MS,
    fence_wait_deadline_ms: float = DEFAULT_FENCE_WAIT_DEADLINE_MS,
    raise_on_violation: bool = False,
) -> InvariantAuditor:
    """Wire an auditor into an emulator: sim hook + inline manager check."""
    auditor = InvariantAuditor(
        emulator,
        interval_ms=interval_ms,
        fence_wait_deadline_ms=fence_wait_deadline_ms,
        raise_on_violation=raise_on_violation,
    )
    emulator.sim.add_hook(auditor)
    emulator.manager.auditor = auditor
    return auditor
