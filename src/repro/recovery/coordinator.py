"""Live device-crash recovery (ISSUE 4 tentpole, part 2).

When a virtual device dies mid-frame — its host executor thread killed with
commands in flight — three failure classes threaten the rest of the
emulator:

1. **Deadlock**: fences the dead device would have signalled never fire, so
   every executor that queued a ``WaitFenceCommand`` on them blocks forever.
2. **Corruption**: a write the device was retiring when it died left torn
   bytes at its location; the single-writer invariant says that location
   was the *only* valid copy-in-the-making.
3. **Poisoned accounting**: its flow-control window holds slots for
   commands that will never retire, and its prediction history describes a
   pipeline that no longer exists.

The :class:`RecoveryCoordinator` runs the recovery state machine
(documented in DESIGN.md §9)::

    CRASH → DRAIN (kill executor, reset queue, abort outstanding commands)
          → POISON (orphan fences release waiters with POISONED status)
          → QUARANTINE (roll back torn writes, drop the torn copy)
          → REPLAY (re-copy lost replicas from the last consistent source)
          → DOWNTIME (the device is simply gone for ``downtime_ms``)
          → READMIT (fresh executor, reset prediction history, poison acks)

Everything is deterministic: no RNG is consumed, and iteration orders are
sorted, so crash-chaos runs are reproducible trace-for-trace.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

from repro.core.coherence import RECOVERABLE_COPY_ERRORS
from repro.errors import RecoveryError
from repro.sim import Timeout
from repro.sim.tracing import TraceLog


class RecoveryStats:
    """What recovery actually did, for metrics and assertions."""

    def __init__(self) -> None:
        self.crashes = 0
        self.recoveries = 0
        self.aborted_commands = 0
        self.poisoned_fences = 0
        self.quarantined_regions = 0
        self.replayed_copies = 0
        self.replay_failures = 0
        self.data_loss_regions = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "crashes": self.crashes,
            "recoveries": self.recoveries,
            "aborted_commands": self.aborted_commands,
            "poisoned_fences": self.poisoned_fences,
            "quarantined_regions": self.quarantined_regions,
            "replayed_copies": self.replayed_copies,
            "replay_failures": self.replay_failures,
            "data_loss_regions": self.data_loss_regions,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"<RecoveryStats {parts}>"


class RecoveryCoordinator:
    """Quarantines and re-admits crashed virtual devices of one emulator."""

    def __init__(self, emulator: Any, trace: Optional[TraceLog] = None):
        self._emulator = emulator
        self._sim = emulator.sim
        self.trace = trace if trace is not None else emulator.trace
        self.stats = RecoveryStats()
        #: Devices currently between CRASH and READMIT.
        self.in_recovery: Set[str] = set()

    # -- entry point ---------------------------------------------------------
    def crash(self, vdev_name: str, downtime_ms: float) -> Any:
        """Kill ``vdev_name`` now; returns the recovery process (joinable)."""
        if not self._emulator.has_vdev(vdev_name):
            raise RecoveryError(
                f"emulator {self._emulator.name!r} has no virtual device {vdev_name!r}"
            )
        if vdev_name in self.in_recovery:
            raise RecoveryError(
                f"virtual device {vdev_name!r} is already in recovery — "
                "overlapping crashes on one device are rejected at plan build time"
            )
        self.in_recovery.add(vdev_name)
        return self._sim.spawn(
            self._recover(vdev_name, downtime_ms), name=f"recover:{vdev_name}"
        )

    # -- the recovery state machine -------------------------------------------
    def _recover(self, vdev_name: str, downtime_ms: float):
        emulator = self._emulator
        sim = self._sim
        vdev = emulator._vdev(vdev_name)
        vdev.crashes += 1
        self.stats.crashes += 1
        self.trace.record(sim.now, "recovery.crash", vdev=vdev_name, downtime=downtime_ms)

        # DRAIN — the executor dies mid-whatever-it-was-doing. GeneratorExit
        # releases the physical device's execution mutex on the way out, and
        # the queue reset unblocks producers parked on a full queue.
        if vdev.executor is not None:
            vdev.executor.kill()
        vdev.queue.reset()
        aborted = 0
        for command in list(vdev.outstanding):
            if not command.done.fired:
                # The guest observes retirement *now*; the frame is charged
                # as presented at crash time. One flow-control completion
                # per abort keeps the MIMD accounting exactly balanced.
                command.done.fire(sim.now)
                vdev.flow.complete()
            vdev.outstanding.pop(command, None)
            aborted += 1
        self.stats.aborted_commands += aborted

        # POISON — orphan fences release their waiters with POISONED status
        # instead of deadlocking them; the coherence protocols re-validate
        # after the wake-up and fall back to synchronous maintenance.
        poisoned = emulator.fence_table.poison_owned(vdev_name)
        self.stats.poisoned_fences += len(poisoned)
        if poisoned:
            self.trace.record(
                sim.now,
                "recovery.fences_poisoned",
                vdev=vdev_name,
                indices=sorted(f.index for f in poisoned),
            )

        # QUARANTINE + REPLAY — roll back torn writes and re-copy replicas
        # the crash destroyed, from the last consistent source.
        location = emulator.vdev_location(vdev_name)
        replays: List[Any] = []
        poisoned_fences = set(poisoned)
        for region_id in sorted(emulator.manager._regions):
            region = emulator.manager._regions[region_id]
            if not self._write_torn_by(region, vdev_name, location, poisoned_fences):
                continue
            self.stats.quarantined_regions += 1
            region.write_in_flight = False
            region.pending_writer_location = None
            region.write_fence = None
            # The torn bytes live at the crashed device's location.
            region.valid_locations.discard(location)
            if not region.valid_locations:
                # Nothing consistent survives: the region reverts to
                # zero-fill semantics (empty set = trivially coherent), and
                # its provenance is wiped so no reader trusts the dead write.
                self.stats.data_loss_regions += 1
                region.last_writer_vdev = None
                region.last_writer_location = None
                region.write_complete_time = None
                self.trace.record(
                    sim.now, "recovery.data_loss", vdev=vdev_name, region=region_id
                )
            else:
                src = region.last_writer_location
                if src is None or src not in region.valid_locations:
                    src = sorted(region.valid_locations)[0]
                    if region.last_writer_location is not None:
                        # The provenance named the torn copy: point it at
                        # the replay source, so maintenance before the
                        # replay lands copies consistent bytes.
                        region.last_writer_location = src
                replays.append(
                    sim.spawn(
                        self._replay_copy(region, src, location),
                        name=f"recovery:replay:r{region_id}",
                    )
                )
            self.trace.record(
                sim.now, "recovery.quarantine", vdev=vdev_name, region=region_id
            )

        # Forget what prediction learned about the dead device's pipelines:
        # the re-admitted device starts with a clean R/W history (and its
        # pre-crash mispredictions must not keep flows suspended).
        emulator.twin.reset_vdev_history(vdev_name)
        if emulator.engine is not None:
            emulator.engine.reset_vdev_history(vdev_name)
        auditor = getattr(emulator.manager, "auditor", None)
        if auditor is not None:
            auditor.note_history_reset(vdev_name)

        # DOWNTIME — replicas are replayed while the device is down, and
        # re-admission waits for both the downtime and every replay.
        yield Timeout(downtime_ms)
        for proc in replays:
            yield proc

        # READMIT — fresh executor, then (and only then) acknowledge the
        # poisons so the fence table may recycle those indices.
        emulator.respawn_executor(vdev_name)
        for fence in sorted(poisoned, key=lambda f: f.index):
            emulator.fence_table.acknowledge_poison(fence.index)
        self.in_recovery.discard(vdev_name)
        self.stats.recoveries += 1
        self.trace.record(
            sim.now,
            "recovery.readmit",
            vdev=vdev_name,
            aborted=aborted,
            poisoned=len(poisoned),
        )

    @staticmethod
    def _write_torn_by(
        region: Any, vdev_name: str, location: str, poisoned_fences: Set[Any]
    ) -> bool:
        """Did the crash interrupt this region's in-flight write?

        Two detection paths: under FENCES ordering the region's write fence
        belongs to the set we just poisoned (the signal will never come);
        under ATOMIC ordering the crashed device holds an open write bracket
        with the write still in flight.
        """
        if region.write_fence is not None and region.write_fence in poisoned_fences:
            return True
        acc = region._open.get(vdev_name)
        return acc is not None and acc.usage.writes and region.write_in_flight

    def _replay_copy(self, region: Any, src: str, dst: str):
        """Process: restore the lost replica at ``dst`` from ``src``."""
        try:
            duration = yield from self._emulator.planner.copy_unified(
                src, dst, region.dirty_bytes
            )
        except RECOVERABLE_COPY_ERRORS as err:
            # The copy path itself is under chaos; readers at dst will fall
            # back to on-demand synchronous maintenance, so this is a lost
            # optimization, not lost data.
            self.stats.replay_failures += 1
            self.trace.record(
                self._sim.now,
                "recovery.replay_failed",
                region=region.region_id,
                src=src,
                dst=dst,
                error=type(err).__name__,
            )
            return
        region.note_copy(dst)
        self.stats.replayed_copies += 1
        self.trace.record(
            self._sim.now,
            "recovery.replay_copy",
            region=region.region_id,
            src=src,
            dst=dst,
            bytes=region.dirty_bytes,
            duration=duration,
        )
