"""Unit tests for metrics collectors and statistics (repro.metrics)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.metrics import FpsCollector, LatencyCollector, cdf_points, mean, percentile
from repro.metrics.collectors import SvmStats
from repro.sim.tracing import TraceLog


# --- stats helpers -------------------------------------------------------------

def test_mean_and_empty_rejection():
    assert mean([1.0, 2.0, 3.0]) == 2.0
    with pytest.raises(ConfigurationError):
        mean([])


def test_percentile_interpolation():
    values = [0.0, 10.0]
    assert percentile(values, 0) == 0.0
    assert percentile(values, 50) == 5.0
    assert percentile(values, 100) == 10.0


def test_percentile_bounds_check():
    with pytest.raises(ConfigurationError):
        percentile([1.0], 101)
    with pytest.raises(ConfigurationError):
        percentile([], 50)


def test_cdf_points_monotone():
    points = cdf_points([3.0, 1.0, 2.0])
    assert [v for v, _p in points] == [1.0, 2.0, 3.0]
    assert [p for _v, p in points] == pytest.approx([1 / 3, 2 / 3, 1.0])
    assert cdf_points([]) == []


@given(st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=1, max_size=100))
def test_percentile_within_range(values):
    for q in (0, 25, 50, 75, 100):
        assert min(values) <= percentile(values, q) <= max(values)


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=100))
def test_cdf_probabilities_valid(values):
    points = cdf_points(values)
    probabilities = [p for _v, p in points]
    assert probabilities == sorted(probabilities)
    assert probabilities[-1] == pytest.approx(1.0)


# --- FpsCollector -------------------------------------------------------------

def test_fps_over_window():
    fps = FpsCollector()
    for i in range(120):
        fps.note_presented(i * 16.67)
    assert fps.fps(2_000.0) == pytest.approx(60.0, rel=0.02)


def test_fps_warmup_exclusion():
    fps = FpsCollector()
    for i in range(60):
        fps.note_presented(1_000.0 + i * 16.67)  # nothing in the first second
    assert fps.fps(2_000.0, warmup_ms=1_000.0) == pytest.approx(60.0, rel=0.02)
    assert fps.fps(2_000.0) == pytest.approx(30.0, rel=0.02)


def test_fps_timeline_buckets():
    fps = FpsCollector()
    for i in range(30):
        fps.note_presented(i * 16.67)  # first half second only
    timeline = fps.fps_timeline(2_000.0, bucket_ms=1_000.0)
    assert len(timeline) == 2
    assert timeline[0] == pytest.approx(30.0)
    assert timeline[1] == 0.0


def test_dropped_reasons_accumulate():
    fps = FpsCollector()
    fps.note_dropped("superseded")
    fps.note_dropped("superseded")
    fps.note_dropped("source-overrun")
    assert fps.dropped == {"superseded": 2, "source-overrun": 1}


def test_fps_zero_window():
    fps = FpsCollector()
    assert fps.fps(1_000.0, warmup_ms=1_000.0) == 0.0


# --- LatencyCollector -----------------------------------------------------------

def test_latency_collector():
    collector = LatencyCollector()
    assert collector.average is None
    assert collector.p95() is None
    for v in (10.0, 20.0, 30.0):
        collector.note(v)
    assert collector.average == 20.0
    assert collector.p95() == pytest.approx(29.0)


# --- SvmStats -------------------------------------------------------------------

def test_svm_stats_from_trace():
    trace = TraceLog()
    trace.record(1.0, "svm.access_latency", latency=0.3, bytes=1000)
    trace.record(2.0, "svm.access_latency", latency=0.5, bytes=3000)
    trace.record(3.0, "coherence.maintenance", duration=2.4)
    trace.record(4.0, "svm.slack", slack=17.2)
    stats = SvmStats.from_trace(trace, duration_ms=10.0)
    assert stats.average_access_latency() == pytest.approx(0.4)
    assert stats.average_coherence_cost() == pytest.approx(2.4)
    assert stats.slack_samples == (17.2,)
    assert stats.throughput_bytes_per_ms() == pytest.approx(400.0)


def test_svm_stats_empty_trace():
    stats = SvmStats.from_trace(TraceLog(), duration_ms=10.0)
    assert stats.average_access_latency() is None
    assert stats.average_coherence_cost() is None
    assert stats.throughput_bytes_per_ms() == 0.0
