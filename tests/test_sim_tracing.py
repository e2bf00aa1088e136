"""Unit tests for the trace log (repro.sim.tracing)."""

import hashlib

import pytest

from repro.apps.ar import ArApp
from repro.apps.video import UhdVideoApp
from repro.experiments.recover import trace_tuples
from repro.experiments.runner import build_rig, drive
from repro.sim.tracing import TraceLog
from tests.test_stage_path import pop_01


def test_record_and_filter_by_kind():
    log = TraceLog()
    log.record(1.0, "a", x=1)
    log.record(2.0, "b", x=2)
    log.record(3.0, "a", x=3)
    assert len(log) == 3
    assert [r["x"] for r in log.of_kind("a")] == [1, 3]


def test_values_extraction():
    log = TraceLog()
    for i in range(5):
        log.record(float(i), "svm.slack", slack=i * 2.0)
    assert log.values("svm.slack", "slack") == [0.0, 2.0, 4.0, 6.0, 8.0]


def test_iteration_in_time_order():
    log = TraceLog()
    for t in (1.0, 2.0, 3.0):
        log.record(t, "evt")
    assert [r.time for r in log] == [1.0, 2.0, 3.0]


# -- the store: per-kind tuple rows written through channels --------------------

def test_missing_trailing_field_reads_as_absent():
    log = TraceLog()
    slack = log.channel("svm.slack", "region", "slack", "predicted")
    slack(1.0, 7, 2.5)
    slack(2.0, 7, 3.0, 4.0)
    unscored, scored = log.of_kind("svm.slack")
    assert unscored.fields == {"region": 7, "slack": 2.5}
    assert scored.fields == {"region": 7, "slack": 3.0, "predicted": 4.0}
    assert log.values("svm.slack", "slack") == [2.5, 3.0]


def test_redeclaring_a_kind_with_conflicting_fields_raises():
    log = TraceLog()
    log.channel("a", "x", "y")
    log.channel("a", "x", "y")  # the same list again is fine
    log.record(1.0, "a", x=1)  # so is a record that leaves out "y"
    for fields in (("y", "x"), ("x", "y", "z"), ("y",)):
        with pytest.raises(ValueError):
            log.channel("a", *fields)
    with pytest.raises(ValueError):
        log.record(2.0, "a", y=1)
    assert [r.fields for r in log] == [{"x": 1}]


def test_kind_counts_lists_recorded_kinds_in_first_record_order():
    log = TraceLog()
    a = log.channel("a", "x")
    log.channel("never", "x")
    b = log.channel("b", "x")
    b(1.0, 1)
    a(2.0, 2)
    b(3.0, 3)
    assert list(log.kind_counts().items()) == [("b", 2), ("a", 1)]


def test_iteration_interleaves_kinds_in_record_order():
    log = TraceLog()
    a = log.channel("a", "x")
    a(1.0, 1)
    log.record(2.0, "b", y=2)
    a(3.0, 3)
    log.record(4.0, "a", x=4)
    assert [(r.time, r.kind, r.fields) for r in log] == [
        (1.0, "a", {"x": 1}),
        (2.0, "b", {"y": 2}),
        (3.0, "a", {"x": 3}),
        (4.0, "a", {"x": 4}),
    ]


def test_view_keys_follow_the_declared_order():
    log = TraceLog()
    fields = ("duration", "bytes", "path", "region")
    maintenance = log.channel("coherence.maintenance", *fields)
    maintenance(1.0, 0.5, 1024, "prefetch", 3)
    log.record(2.0, "coherence.maintenance", duration=0.25, bytes=64)
    assert [tuple(r.fields) for r in log] == [fields, fields[:2]]
    assert [tuple(r.fields) for r in log.of_kind("coherence.maintenance")] == [
        fields, fields[:2]
    ]


#: The fields each record kind carries for the span built from it
#: (repro.obs.span.ROW_SPANS).
SPAN_FIELDS = {
    "svm.access_latency": {"start", "flow"},
    "svm.write_retired": {"flow"},
    "host.op_retired": {"start", "flow", "bytes"},
    "coherence.maintenance": {"start", "flow", "src", "dst"},
    "coherence.flush": {"start", "flow"},
}

#: Digest of each whole stream, span fields included.
FULL_STREAM_DIGESTS = {
    ("vSoC", "ArApp"): "4a07d625a1f8f3c4",
    ("vSoC", "UhdVideoApp"): "3b03ec5c6e04268c",
    ("QEMU-KVM", "ArApp"): "e66f81f05910c4be",
    ("QEMU-KVM", "UhdVideoApp"): "85a4c9e5d684c6ff",
    ("vSoC", "pop_01"): "e94948773349de1c",
}


@pytest.mark.parametrize(
    "emulator, app, digest",
    [
        ("vSoC", ArApp, "077da0c06ab94b4a"),
        ("vSoC", UhdVideoApp, "a0ccd60cf84b2c46"),
        ("QEMU-KVM", ArApp, "a7ecbc01f4e040be"),
        ("QEMU-KVM", UhdVideoApp, "7d770577577ba2d1"),
        ("vSoC", pop_01, "a2f3641a5e27f64d"),
    ],
)
def test_record_stream_is_pinned(emulator, app, digest):
    """Every record of a 2-s run, in order: its time, kind and fields.

    ``digest`` covers the stream with the span fields dropped: it is the
    stream recorded before spans were built from records, less its
    ``prefetch.start`` records, so the fields moved no other record.
    """
    rig = build_rig(emulator, seed=0)
    drive(rig, [app()], 2_000.0)
    records = trace_tuples(rig.trace)
    full = hashlib.sha256(repr(records).encode()).hexdigest()[:16]
    assert full == FULL_STREAM_DIGESTS[(emulator, app.__name__)]
    reduced = [
        (time, kind, tuple(f for f in fields if f[0] not in SPAN_FIELDS.get(kind, ())))
        for time, kind, fields in records
    ]
    assert hashlib.sha256(repr(reduced).encode()).hexdigest()[:16] == digest
