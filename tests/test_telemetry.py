"""Tests for run telemetry: snapshots, aggregation, sentinel, dashboard."""

import json
import pickle

import pytest

from repro.apps.ar import ArApp
from repro.apps.video import UhdVideoApp
from repro.experiments.dashboard import telemetry_specs
from repro.experiments.engine import run_many
from repro.experiments.runner import run_app
from repro.obs.baseline import (
    HISTORY_SCHEMA,
    MetricSpec,
    RegressionSentinel,
    extract_metric,
)
from repro.obs.dashboard import render_dashboard
from repro.obs.telemetry import (
    HistogramSample,
    TelemetryAggregator,
    TelemetrySnapshot,
    aggregate_results,
    validate_telemetry_aggregate,
)


def _snapshot(app_cls=UhdVideoApp, emulator="vSoC", duration_ms=1_200.0,
              seed=0):
    run = run_app(app_cls(), emulator, duration_ms=duration_ms, seed=seed,
                  telemetry=True)
    assert run.telemetry is not None
    return run.telemetry


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------

def test_snapshot_pickles_and_compares_structurally():
    snap = _snapshot()
    clone = pickle.loads(pickle.dumps(snap))
    assert clone == snap
    assert clone.group_key == "vSoC/uhd-video"
    assert json.dumps(clone.to_dict(), sort_keys=True) == \
        json.dumps(snap.to_dict(), sort_keys=True)


def test_snapshot_capture_is_deterministic():
    assert _snapshot() == _snapshot()


def test_telemetry_off_by_default():
    run = run_app(UhdVideoApp(), "vSoC", duration_ms=1_200.0)
    assert run.telemetry is None


def test_telemetry_does_not_change_results():
    plain = run_app(UhdVideoApp(), "vSoC", duration_ms=1_200.0)
    observed = run_app(UhdVideoApp(), "vSoC", duration_ms=1_200.0,
                       telemetry=True)
    assert plain.result == observed.result


# ---------------------------------------------------------------------------
# The capture-time metrics view: each derived instrument equals its source
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module", params=["vSoC", "QEMU-KVM"])
def observed_ar(request):
    run = run_app(ArApp(), request.param, duration_ms=4_000.0, telemetry=True)
    assert run.result.ran
    histograms = {(h.name, h.labels): h for h in run.telemetry.histograms}
    counters = {(c.name, c.labels): c.value for c in run.telemetry.counters}
    return run, histograms, counters


def _by_label(histograms, name, label):
    return {
        dict(labels)[label]: hist
        for (hist_name, labels), hist in histograms.items()
        if hist_name == name
    }


def _group(records, label, field):
    groups = {}
    for record in records:
        groups.setdefault(record[label], []).append(record[field])
    return groups


def test_coherence_duration_equals_maintenance_records(observed_ar):
    run, histograms, _ = observed_ar
    derived = _by_label(histograms, "coherence.duration_ms", "path")
    source = _group(run.emulator.trace.of_kind("coherence.maintenance"),
                    "path", "duration")
    assert source and set(derived) == set(source)
    for path, durations in source.items():
        assert derived[path].count == len(durations), path
        assert derived[path].sum == sum(durations), path


def test_access_latency_equals_svm_stats(observed_ar):
    run, histograms, _ = observed_ar
    derived = _by_label(histograms, "svm.access_latency_ms", "vdev")
    source = _group(run.emulator.trace.of_kind("svm.access_latency"),
                    "vdev", "latency")
    assert set(derived) == set(source)
    for vdev, latencies in source.items():
        assert derived[vdev].count == len(latencies), vdev
        assert derived[vdev].sum == sum(latencies), vdev
    latencies = run.stats.access_latencies()
    assert sum(h.count for h in derived.values()) == len(latencies)
    assert sum(h.sum for h in derived.values()) == pytest.approx(sum(latencies))


def test_frame_and_transport_counters_equal_their_sources(observed_ar):
    run, _, counters = observed_ar
    transport = run.emulator.transport
    assert counters[("frames.presented", ())] == run.result.presented
    for reason, count in run.result.dropped.items():
        assert counters[("frames.dropped", (("reason", reason),))] == count
    assert counters[("transport.kicks", ())] == transport.kicks
    assert counters[("transport.commands", ())] == transport.commands


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def test_aggregate_is_order_independent():
    snaps = [_snapshot(UhdVideoApp, "vSoC"), _snapshot(ArApp, "vSoC"),
             _snapshot(UhdVideoApp, "GAE")]
    forward = TelemetryAggregator()
    forward.add_all(snaps)
    backward = TelemetryAggregator()
    backward.add_all(reversed(snaps))
    assert forward.aggregate_json() == backward.aggregate_json()


def test_aggregate_validates_clean():
    agg = TelemetryAggregator()
    agg.add(_snapshot())
    data = agg.aggregate()
    assert validate_telemetry_aggregate(data) == []
    assert data["runs"] == 1
    assert "vSoC/uhd-video" in data["groups"]


def test_histogram_merge_is_exact():
    a = HistogramSample("m", (), count=3, sum=6.0, min=1.0, max=3.0,
                        samples=(1.0, 2.0, 3.0))
    b = HistogramSample("m", (), count=2, sum=9.0, min=4.0, max=5.0,
                        samples=(4.0, 5.0))
    agg = TelemetryAggregator()
    agg.add(TelemetrySnapshot(meta=(("app", "x"), ("emulator", "e")),
                              histograms=(a,)))
    agg.add(TelemetrySnapshot(meta=(("app", "x"), ("emulator", "e")),
                              histograms=(b,)))
    merged = agg.aggregate()["fleet"]["histograms"][0]
    assert merged["count"] == 5
    assert merged["sum"] == 15.0
    assert merged["min"] == 1.0 and merged["max"] == 5.0
    assert merged["samples"] == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_validator_flags_broken_aggregates():
    assert validate_telemetry_aggregate([]) != []
    assert any("schema" in p for p in validate_telemetry_aggregate({"runs": 1}))
    agg = TelemetryAggregator()
    agg.add(_snapshot())
    data = agg.aggregate()
    data["fleet"]["histograms"][0]["samples"] = [0.0] * 10_000
    data["fleet"]["histograms"][0]["count"] = 1
    assert any("exceed count" in p for p in validate_telemetry_aggregate(data))


# ---------------------------------------------------------------------------
# The acceptance criterion: parallel == serial == warm, byte for byte
# ---------------------------------------------------------------------------

def test_aggregate_parallel_serial_warm_identical(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE_OVERSUBSCRIBE", "1")
    specs = telemetry_specs(duration_ms=1_200.0)
    assert len(specs) == 6  # 3 emulators x 2 apps

    serial = run_many(specs, jobs=1, cache=False)
    parallel = run_many(specs, jobs=4, cache=False)
    serial_json = json.dumps(aggregate_results(serial.results),
                             sort_keys=True, separators=(",", ":"))
    parallel_json = json.dumps(aggregate_results(parallel.results),
                               sort_keys=True, separators=(",", ":"))
    assert serial_json == parallel_json

    from repro.experiments.engine import RunCache

    store = RunCache(tmp_path / "cache")
    cold = run_many(specs, jobs=1, cache=store)
    warm = run_many(specs, jobs=1, cache=store)
    assert warm.executed == 0 and warm.cache_hits == len(specs)
    warm_json = json.dumps(aggregate_results(warm.results),
                           sort_keys=True, separators=(",", ":"))
    cold_json = json.dumps(aggregate_results(cold.results),
                           sort_keys=True, separators=(",", ":"))
    assert warm_json == cold_json == serial_json


# ---------------------------------------------------------------------------
# Regression sentinel
# ---------------------------------------------------------------------------

def _sample_report(speedup=3.0, wall=0.5):
    return {"kernel": {"speedup": speedup, "optimized_s": 1.0 / speedup},
            "single_run": {"wall_s": wall}}


def test_sentinel_soft_passes_on_empty_history(tmp_path):
    sentinel = RegressionSentinel(str(tmp_path / "hist.jsonl"))
    verdict = sentinel.check(_sample_report())
    assert verdict.ok
    assert all(v.status == "insufficient-history" for v in verdict.verdicts)


def test_sentinel_flags_regression_and_improvement(tmp_path):
    sentinel = RegressionSentinel(str(tmp_path / "hist.jsonl"), tolerance=0.25)
    for _ in range(4):
        sentinel.append(_sample_report(speedup=3.0, wall=0.5))
    bad = sentinel.check(_sample_report(speedup=1.0, wall=2.0))
    assert not bad.ok
    assert {v.metric for v in bad.regressions} >= {"kernel.speedup",
                                                   "single_run.wall_s"}
    good = sentinel.check(_sample_report(speedup=6.0, wall=0.1))
    assert good.ok
    assert any(v.status == "improved" for v in good.verdicts)
    steady = sentinel.check(_sample_report(speedup=3.1, wall=0.51))
    assert steady.ok


def test_sentinel_skips_corrupt_and_alien_lines(tmp_path):
    path = tmp_path / "hist.jsonl"
    sentinel = RegressionSentinel(str(path))
    sentinel.append(_sample_report())
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("not json at all\n")
        fh.write('{"schema": "other-schema", "metrics": {}}\n')
        fh.write('{"schema": "%s"}\n' % HISTORY_SCHEMA)  # no metrics
        fh.write("\n")
    sentinel.append(_sample_report())
    assert len(sentinel.load()) == 2


def test_sentinel_ewma_matches_paper_predictor(tmp_path):
    from repro.core.smoothing import ExponentialSmoothing

    sentinel = RegressionSentinel(str(tmp_path / "h.jsonl"), min_history=1)
    values = [3.0, 2.0, 4.0, 3.5]
    for v in values:
        sentinel.append(_sample_report(speedup=v))
    ewma = ExponentialSmoothing(alpha=0.5)
    for v in values:
        ewma.update(v)
    level, std, seen = sentinel.baselines()["kernel.speedup"]
    assert level == ewma.predict()
    assert std == ewma.std_error
    assert seen == len(values)


def test_extract_metric_nested_and_flat():
    assert extract_metric({"a": {"b": 2}}, "a.b") == 2.0
    assert extract_metric({"a.b": 2}, "a.b") == 2.0
    assert extract_metric({"a": {"b": True}}, "a.b") is None
    assert extract_metric({}, "a.b") is None


def test_sentinel_honors_custom_metrics(tmp_path):
    sentinel = RegressionSentinel(
        str(tmp_path / "h.jsonl"), min_history=1, tolerance=0.1,
        metrics=(MetricSpec("fps", higher_is_better=True),),
    )
    sentinel.append({"fps": 60.0})
    verdict = sentinel.check({"fps": 30.0})
    assert [v.metric for v in verdict.regressions] == ["fps"]


# ---------------------------------------------------------------------------
# Dashboard
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_aggregate():
    agg = TelemetryAggregator()
    agg.add(_snapshot(UhdVideoApp, "vSoC"))
    agg.add(_snapshot(ArApp, "GAE"))
    return agg.aggregate()


def test_dashboard_is_single_small_self_contained_file(small_aggregate):
    html = render_dashboard(small_aggregate)
    assert len(html.encode("utf-8")) < 2 * 1024 * 1024
    for marker in ("http://", "https://", "src=", "href=", "@import"):
        assert marker not in html
    assert html.startswith("<!DOCTYPE html>")
    assert "</html>" in html


def test_dashboard_embeds_machine_readable_aggregate(small_aggregate):
    import re

    html = render_dashboard(small_aggregate)
    match = re.search(
        r'<script type="application/json" id="fleet-aggregate">\n(.*)\n</script>',
        html, re.S)
    assert match is not None
    payload = json.loads(match.group(1).replace("<\\/", "</"))
    assert payload == json.loads(
        json.dumps(small_aggregate, sort_keys=True, separators=(",", ":")))


def test_dashboard_renders_history_and_verdicts(small_aggregate, tmp_path):
    sentinel = RegressionSentinel(str(tmp_path / "h.jsonl"))
    for sp in (3.0, 3.1, 2.9, 3.2):
        sentinel.append(_sample_report(speedup=sp))
    history = sentinel.load()
    verdict = sentinel.check(_sample_report(speedup=1.0)).to_dict()
    html = render_dashboard(small_aggregate, history=history,
                            sentinel=verdict)
    assert "kernel.speedup" in html
    assert "regression" in html
    assert "EWMA" in html


def test_dashboard_tolerates_empty_aggregate():
    empty = TelemetryAggregator().aggregate()
    html = render_dashboard(empty)
    assert "no bench history yet" in html
    assert "</html>" in html


# ---------------------------------------------------------------------------
# CLI exit codes
# ---------------------------------------------------------------------------

def test_cmd_dashboard_writes_report(tmp_path, monkeypatch):
    from repro.experiments.dashboard import cmd_dashboard

    monkeypatch.chdir(tmp_path)
    out = tmp_path / "report.html"
    snap = tmp_path / "telemetry.json"
    rc = cmd_dashboard(out_path=str(out), snapshot_path=str(snap),
                       history_path=str(tmp_path / "h.jsonl"),
                       quick=True, jobs=1, cache=False)
    assert rc == 0
    assert out.stat().st_size < 2 * 1024 * 1024
    data = json.loads(snap.read_text())
    assert validate_telemetry_aggregate(data) == []
    assert data["runs"] == 6

