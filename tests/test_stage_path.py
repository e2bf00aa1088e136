"""Tier-1 guard for the stage path: the same events, in shallow frames.

A stage's SVM accesses, coherence copies and virtio kicks all run inside
one process resume, and each resume re-enters every generator frame
between the process and its ``yield``. These runs pin the event sequence
(dispatch and trace-record counts) so that flattening that chain cannot
move an event, and bound how deep any live process is ever parked.
"""

import pytest

from repro.apps.ar import ArApp
from repro.apps.catalog import build_app, popular_app_params
from repro.apps.video import UhdVideoApp
from repro.experiments.runner import build_rig, drive
from repro.sim.kernel import SimHook


def pop_01():
    """Catalog ``pop-01``: its scratch writes take the zero-shot prediction
    path and its atlas writes launch GPU prefetches."""
    return build_app(popular_app_params(0)[0])


class _DepthProbe(SimHook):
    """Counts dispatches and tracks the deepest parked ``yield from`` chain."""

    def __init__(self, sim):
        self._sim = sim
        self.dispatches = 0
        self.max_depth = 0

    def on_event_dispatch(self, time, call):
        self.dispatches += 1
        for process in self._sim.live_processes:
            depth, frame = 0, process._gen
            while frame is not None:
                depth += 1
                frame = getattr(frame, "gi_yieldfrom", None)
            self.max_depth = max(self.max_depth, depth)


@pytest.mark.parametrize(
    "emulator, app, dispatches, records, max_depth",
    [
        # vSoC's deepest frame is a sync-miss copy:
        # run > stage > begin_access > begin_access_read > _maintain > _copy > transfer.
        ("vSoC", ArApp, 7_560, 2_464, 7),
        ("vSoC", UhdVideoApp, 4_880, 1_416, 7),
        ("vSoC", pop_01, 5_929, 2_884, 7),
        # QEMU-KVM's is an executor flush or fetch:
        # _executor > executor_after_write|executor_before_read > _copy > transfer.
        ("QEMU-KVM", ArApp, 3_994, 1_607, 4),
        ("QEMU-KVM", UhdVideoApp, 2_381, 825, 4),
    ],
)
def test_stage_path_keeps_its_events_in_shallow_frames(
    emulator, app, dispatches, records, max_depth
):
    rig = build_rig(emulator, seed=0)
    probe = _DepthProbe(rig.sim)
    rig.sim.add_hook(probe)
    drive(rig, [app()], 2_000.0)
    assert (probe.dispatches, len(rig.trace)) == (dispatches, records)
    assert probe.max_depth <= max_depth
