"""Spans built from trace records: pinned outputs and the kind table.

The pins below were taken while every span was still recorded live, so
they show that building the record-kind spans from their trace rows at
capture changes neither attribution nor the exported trace.
"""

from __future__ import annotations

import hashlib
import json

import pytest

#: sha256 of ``explain --app APP --emulator vsoc [--against qemu_kvm]
#: --quick`` JSON, run without the cache.
EXPLAIN_DIGESTS = {
    ("ar", None): "9e2d3031f71b8052d98c9bdbc728f7ef18c016077f7d722faf57e241030f4fdd",
    ("ar", "qemu_kvm"): "2c144ff2735ccfa832243ea2f53ce5cca58b5ba45930419101b2c89d32cb3d6a",
    ("video", None): "b00bfce969f79ad2bc2c9b2bf5c35d63b6fe1ab9c8ecf41ca194e63755462921",
    ("video", "qemu_kvm"): "6b006dadb1da3b4f829260ad9605420f16f3de7d81b03f2b0a7dcce1e1b52e86",
}

#: Canonical digest (see :func:`canonical_trace`) of ``observe --app ar
#: [--emulator EMULATOR] --quick``'s ``trace.json``.
OBSERVE_DIGESTS = {
    "vSoC": "1af95978dbef70d741dc18352f02e8d404c78a33e3aab1266b8e427065a0cc4c",
    "QEMU-KVM": "257cb9a01cb3766823d7e6df39d88ceefc23e5ee0362c4d2f8c50ccd15a27e14",
}

QUICK_MS = 4_000.0

#: Names of the spans that trace rows carry.
RECORD_SPANS = ("svm.begin_access", "svm.write_retired", "exec:", "coherence.",
                "prefetch.copy", "prefetch.suspend")


def canonical_trace(trace, horizon_ms):
    """A digest of a Chrome trace that ignores how its events are laid out.

    Each event is keyed by its track and group names instead of pid/tid,
    and the events are sorted. Each flow is reduced to the sorted
    ``(ts, track)`` list of its spans, and ring-mode keys leave
    ``otherData``. A record-kind span clamped to the horizon is left out,
    with its place in its flow: a span still open when the clock stops
    has no row, so only a live tracer could record it.
    """
    events = trace["traceEvents"]
    groups = {e["pid"]: e["args"]["name"] for e in events
              if e["ph"] == "M" and e["name"] == "process_name"}
    tracks = {(e["pid"], e["tid"]): e["args"]["name"] for e in events
              if e["ph"] == "M" and e["name"] == "thread_name"}
    horizon_us = horizon_ms * 1000.0
    lines, flows, open_spans = [], {}, []
    for event in events:
        if event["ph"] == "M":
            continue
        track = tracks[(event["pid"], event["tid"])]
        if event["ph"] in ("s", "t", "f"):
            flows.setdefault(event["id"], []).append((event["ts"], track))
            continue
        if (event["ph"] == "X" and event["name"].startswith(RECORD_SPANS)
                and event["ts"] + event["dur"] == horizon_us):
            open_spans.append((event, track))
            continue
        body = {k: v for k, v in event.items() if k not in ("pid", "tid")}
        lines.append(json.dumps([groups[event["pid"]], track, body], sort_keys=True))
    for event, track in open_spans:
        flow = event["args"].get("flow")
        if flow is not None:
            flows[flow].remove((event["ts"], track))
    for flow, chain in flows.items():
        if len(chain) > 1:
            lines.append(json.dumps(["flow", flow, sorted(chain)]))
    lines.sort()
    other = {k: v for k, v in trace["otherData"].items()
             if k not in ("dropped_spans", "span_retention")}
    doc = json.dumps({"events": lines, "otherData": other}, sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


@pytest.mark.parametrize("app, against", sorted(EXPLAIN_DIGESTS, key=str))
def test_explain_json_is_pinned(app, against, tmp_path, capsys):
    from repro.experiments.explain import cmd_explain

    out = tmp_path / "explain.json"
    cmd_explain(app, "vsoc", against=against, duration_ms=QUICK_MS,
                out_path=str(out), cache=False)
    capsys.readouterr()
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == EXPLAIN_DIGESTS[(app, against)]


@pytest.mark.parametrize("emulator", sorted(OBSERVE_DIGESTS))
def test_observe_trace_is_pinned(emulator):
    from repro.experiments.observe import run_observe

    run = run_observe(app="ar", emulator=emulator, duration_ms=QUICK_MS)
    trace = json.loads(json.dumps(run.trace))
    assert canonical_trace(trace, QUICK_MS) == OBSERVE_DIGESTS[emulator]


# -- the view ------------------------------------------------------------------

#: One row of each kind in ``ROW_SPANS``, recorded at 2.0 ms, and the span
#: that was recorded live before the row carried it.
ROWS = [
    ("svm.access_latency",
     dict(region=3, vdev="gpu", usage="ro", latency=0.5, bytes=64, start=1.5, flow=9),
     ("svm.begin_access", "gpu", "svm"),
     {"region": 3, "usage": "ro", "bytes": 64, "latency": 0.5}),
    ("svm.write_retired", dict(region=3, vdev="codec", bytes=64, flow=9),
     ("svm.write_retired", "codec", "svm"), {"region": 3, "bytes": 64}),
    ("host.op_retired",
     dict(vdev="gpu", op="render", queue_delay=0.25, start=1.5, flow=9, bytes=64),
     ("exec:render", "gpu/exec", "exec"),
     {"op": "render", "bytes": 64, "queue_delay": 0.25}),
    ("coherence.maintenance",
     dict(duration=0.5, bytes=64, path="sync-miss", region=3, start=1.5, flow=9,
          src="host", dst="gpu"),
     ("coherence.copy", "coherence", "coherence"),
     {"region": 3, "bytes": 64, "path": "sync-miss", "duration": 0.5}),
    ("coherence.maintenance",
     dict(duration=0.5, bytes=64, path="prefetch", region=3, start=1.5, flow=9,
          src="host", dst="gpu"),
     ("prefetch.copy", "prefetch", "coherence"),
     {"region": 3, "src": "host", "dst": "gpu", "bytes": 64, "duration": 0.5}),
    ("coherence.maintenance",
     dict(duration=0.5, bytes=64, path="broadcast", region=3, start=1.5, flow=9,
          src="host", dst="gpu"),
     ("coherence.copy", "coherence", "coherence"),
     {"region": 3, "bytes": 64, "dst": "gpu", "path": "broadcast", "duration": 0.5}),
    # The row's duration adds the flush before the fetch; the span's is
    # the fetch alone.
    ("coherence.maintenance",
     dict(duration=0.75, bytes=64, path="guest-memory", region=3, start=1.5,
          flow=9, src="guest", dst="gpu"),
     ("coherence.copy", "coherence", "coherence"),
     {"region": 3, "bytes": 64, "path": "guest-memory", "duration": 0.5}),
    ("coherence.flush",
     dict(duration=0.5, bytes=64, region=3, start=1.5, flow=9),
     ("coherence.flush", "coherence", "coherence"),
     {"region": 3, "bytes": 64, "duration": 0.5}),
    ("coherence.failed", dict(bytes=64, region=3, start=1.5, flow=9),
     ("coherence.copy", "coherence", "coherence"),
     {"region": 3, "bytes": 64, "path": "failed"}),
    ("broadcast.failed",
     dict(bytes=64, region=3, error="TransientCopyError", start=1.5, flow=9, dst="gpu"),
     ("coherence.copy", "coherence", "coherence"),
     {"region": 3, "bytes": 64, "dst": "gpu", "path": "broadcast",
      "failed": "TransientCopyError"}),
    ("prefetch.failed",
     dict(bytes=64, region=3, target="gpu", error="TransientCopyError", start=1.5,
          flow=9, src="host"),
     ("prefetch.copy", "prefetch", "coherence"),
     {"region": 3, "src": "host", "dst": "gpu", "bytes": 64,
      "failed": "TransientCopyError"}),
    ("prefetch.suspend", dict(vkey="k"),
     ("prefetch.suspend", "prefetch", "coherence"), {"vkey": "k"}),
]


@pytest.mark.parametrize("kind, fields, where, args", ROWS,
                         ids=[f"{row[0]}-{i}" for i, row in enumerate(ROWS)])
def test_each_row_kind_yields_the_span_it_replaces(kind, fields, where, args):
    from repro.obs import SpanView, Tracer
    from repro.obs.span import ROW_SPANS
    from repro.sim import Simulator
    from repro.sim.tracing import TraceLog

    assert kind in ROW_SPANS
    log = TraceLog()
    log.record(2.0, kind, **fields)
    view = SpanView(Tracer(Simulator()), log)
    instant = "start" not in fields
    (span,) = view.instants if instant else view.spans
    assert len(view.spans) + len(view.instants) == 1
    assert (span.name, span.track, span.cat) == where
    assert span.args == args
    assert (span.start, span.end) == ((2.0, 2.0) if instant else (1.5, 2.0))
    assert span.flow == fields.get("flow", 0)


def test_view_lists_by_start_live_spans_first():
    from repro.obs import SpanView, Tracer
    from repro.sim import Simulator
    from repro.sim.tracing import TraceLog

    sim = Simulator()
    tracer = Tracer(sim)
    sim.now = 1.0
    kick = tracer.begin("transport.kick", "transport", flow=1)
    sim.now = 3.0
    tracer.end(kick)
    log = TraceLog()
    fields = dict(duration=1.0, bytes=8, path="sync-miss", region=1, flow=1,
                  src="host", dst="gpu")
    log.record(2.0, "coherence.maintenance", **fields, start=1.0)
    log.record(2.5, "coherence.maintenance", **fields, start=0.5)
    view = SpanView(tracer, log)
    # The later row started first; the earlier one ties with the live kick.
    assert [(s.name, s.start) for s in view.spans] == [
        ("coherence.copy", 0.5), ("transport.kick", 1.0), ("coherence.copy", 1.0)
    ]
    assert [s.span_id for s in view.spans] == [1, 2, 3]
    assert view.flow_chains() == {1: view.spans}


def test_a_copy_that_fails_for_good_keeps_its_span():
    from repro.core.coherence import CopyPlanner, UnifiedPrefetchProtocol
    from repro.core.degradation import LEVEL_GUEST_ROUNDTRIP, DegradationController
    from repro.core.region import HOST_LOCATION, SvmRegion
    from repro.errors import DegradedModeError
    from repro.hw import build_machine
    from repro.obs import SpanView, Tracer
    from repro.sim import Simulator
    from repro.sim.tracing import TraceLog

    sim = Simulator()
    machine = build_machine(sim)
    trace = TraceLog()
    planner = CopyPlanner(sim, machine, trace=trace)
    machine.boundary.fault_hook = lambda bus, nbytes: 0.0  # every transfer dies
    ladder = DegradationController(sim)
    ladder.level = LEVEL_GUEST_ROUNDTRIP
    protocol = UnifiedPrefetchProtocol(sim, planner, None, trace, degradation=ladder)
    region = SvmRegion(1, 4096)
    region.note_write("codec", HOST_LOCATION, 4096)
    region.flow = 7
    outcome = []

    def read():
        try:
            yield from protocol.begin_access_read(region, "gpu", "gpu")
        except DegradedModeError as err:
            outcome.append(err)

    sim.spawn(read())
    sim.run()
    assert outcome and trace.count("coherence.maintenance") == 0
    (span,) = SpanView(Tracer(sim), trace).spans
    assert (span.name, span.track, span.cat, span.flow) == (
        "coherence.copy", "coherence", "coherence", 7)
    assert span.args == {"region": 1, "bytes": 4096, "path": "failed"}
    assert span.start == 0.0 < span.end


def test_a_prefetch_that_fails_keeps_its_span():
    from repro.apps.video import UhdVideoApp
    from repro.experiments.runner import build_rig, drive
    from repro.obs import SpanView

    rig = build_rig("vSoC", observed=True)
    transfers = []

    def fail_a_burst(bus, nbytes):
        # Transfers 20-39 die on their first byte: long enough to exhaust
        # one prefetch copy's retries.
        transfers.append(nbytes)
        return 0.0 if 20 <= len(transfers) < 40 else None

    rig.machine.pcie.fault_hook = fail_a_burst
    (installed,), _, _ = drive(rig, [UhdVideoApp()], 1_000.0)
    assert installed and rig.trace.count("prefetch.failed") >= 1
    failed = [s for s in SpanView(rig.tracer, rig.trace).spans
              if s.name == "prefetch.copy" and "failed" in s.args]
    assert len(failed) == rig.trace.count("prefetch.failed")
    for span in failed:
        assert list(span.args) == ["region", "src", "dst", "bytes", "failed"]
        assert span.track == "prefetch" and span.flow and span.start < span.end


def test_observed_broadcast_rig_has_one_copy_span_per_maintenance_row():
    from functools import partial

    from repro.apps.video import UhdVideoApp
    from repro.emulators.vsoc import make_vsoc
    from repro.experiments.runner import build_rig, drive
    from repro.obs import SpanView

    rig = build_rig("vSoC", observed=True, factory=partial(make_vsoc, broadcast=True))
    (installed,), _, _ = drive(rig, [UhdVideoApp()], 1_000.0)
    assert installed
    copies = [s for s in SpanView(rig.tracer, rig.trace).spans
              if s.name == "coherence.copy"]
    paths = rig.trace.values("coherence.maintenance", "path")
    assert len(copies) == len(paths) > 0
    assert sorted(span.args["path"] for span in copies) == sorted(paths)


@pytest.mark.parametrize("emulator", ("vSoC", "QEMU-KVM"))
def test_unobserved_run_writes_flow_zero_on_every_row(emulator):
    from repro.apps.ar import ArApp
    from repro.experiments.runner import build_rig, drive

    rig = build_rig(emulator)
    drive(rig, [ArApp()], 1_000.0)
    flows = {
        kind: set(rig.trace.values(kind, "flow"))
        for kind in ("svm.access_latency", "svm.write_retired", "host.op_retired",
                     "coherence.maintenance", "coherence.flush")
        if rig.trace.count(kind)
    }
    assert len(flows) >= 4
    assert all(values == {0} for values in flows.values()), flows
