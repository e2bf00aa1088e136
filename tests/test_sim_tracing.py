"""Unit tests for the trace log (repro.sim.tracing)."""

from repro.sim.tracing import TraceLog, TraceRecord


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


def test_clear():
    log = TraceLog()
    log.record(1.0, "a")
    log.clear()
    assert len(log) == 0
    log.record(2.0, "a")  # still records after clear
    assert len(log) == 1


def test_record_get_default():
    record = TraceRecord(1.0, "a", {"x": 1})
    assert record.get("x") == 1
    assert record.get("missing", 42) == 42
    assert record["x"] == 1


def test_iteration_in_time_order():
    log = TraceLog()
    for t in (1.0, 2.0, 3.0):
        log.record(t, "evt")
    assert [r.time for r in log] == [1.0, 2.0, 3.0]
