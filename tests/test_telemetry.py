"""Tests for run telemetry: snapshots, the capture-time view, sentinel."""

import json
import pickle

import pytest

from repro.apps.ar import ArApp
from repro.apps.video import UhdVideoApp
from repro.experiments.engine import RunCache, RunSpec, run_many
from repro.experiments.runner import run_app
from repro.obs.baseline import (
    HISTORY_SCHEMA,
    MetricSpec,
    RegressionSentinel,
    extract_metric,
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
    assert clone.meta_dict["emulator"] == "vSoC"
    assert clone.meta_dict["app"] == "uhd-video"
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

OBSERVED_AR_MS = 4_000.0


@pytest.fixture(scope="module", params=["vSoC", "QEMU-KVM"])
def observed_ar(request):
    run = run_app(ArApp(), request.param, duration_ms=OBSERVED_AR_MS,
                  telemetry=True)
    assert run.result.ran
    histograms = {(h.name, h.labels): h for h in run.telemetry.histograms}
    counters = {(c.name, c.labels): c.value for c in run.telemetry.counters}
    return run, histograms, counters


def _gauges(run):
    return {(g.name, g.labels): g.value for g in run.telemetry.gauges}


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


def test_slack_error_equals_scored_slack_records(observed_ar):
    run, histograms, _ = observed_ar
    scored = [
        abs(record["predicted"] - record["slack"])
        for record in run.emulator.trace.of_kind("svm.slack")
        if "predicted" in record.fields
    ]
    derived = histograms.get(("prefetch.slack_error_ms", ()))
    if run.emulator.engine is None:
        assert not scored and derived is None
        return
    assert scored
    assert derived.count == len(scored)
    assert derived.sum == sum(scored)


def test_mispredict_rate_equals_engine_stats(observed_ar):
    run, _, _ = observed_ar
    derived = _gauges(run).get(("prefetch.mispredict_rate", ()))
    engine = run.emulator.engine
    if engine is None:
        assert derived is None
        return
    assert engine.stats.predictions > 0
    assert derived == engine.stats.misses / engine.stats.predictions


def test_bus_utilization_equals_busy_time_over_duration(observed_ar):
    run, _, _ = observed_ar
    derived = {
        dict(labels)["link"]: value
        for (name, labels), value in _gauges(run).items()
        if name == "bus.utilization"
    }
    busy = {
        bus.name: bus.busy_time
        for bus in run.emulator.metered_buses() if bus.transfer_count
    }
    assert busy and set(derived) == set(busy)
    for link, busy_time in busy.items():
        assert derived[link] == busy_time / OBSERVED_AR_MS, link


def _device_busy(counters):
    return {
        dict(labels)["device"]: value
        for (name, labels), value in counters.items()
        if name == "device.busy_ms"
    }


def test_device_busy_equals_each_devices_op_time(observed_ar):
    run, _, counters = observed_ar
    busy = {
        name: device.busy_time
        for name, device in run.emulator.machine.devices.items()
        if device.busy_time
    }
    assert busy and _device_busy(counters) == busy


#: ArApp on vSoC at 2 s, seed 0: the simulated ms per device that the
#: kernel self-profiler attributed from executor timeouts. On vSoC every
#: executor timeout is a device op, so the derived counters must agree.
PROFILER_DEVICE_MS = {"camera": 46.8, "cpu": 257.4, "gpu": 375.369424}


def test_device_busy_matches_the_retired_self_profiler():
    run = run_app(ArApp(), "vSoC", duration_ms=2_000.0, telemetry=True)
    counters = {(c.name, c.labels): c.value for c in run.telemetry.counters}
    derived = _device_busy(counters)
    assert set(derived) == set(PROFILER_DEVICE_MS)
    for device, ms in PROFILER_DEVICE_MS.items():
        assert abs(derived[device] - ms) <= 1e-6, device


# ---------------------------------------------------------------------------
# The acceptance criterion: parallel == serial == warm, snapshot for snapshot
# ---------------------------------------------------------------------------

def test_snapshots_parallel_serial_warm_identical(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE_OVERSUBSCRIBE", "1")
    specs = [
        RunSpec(app_factory=factory, app_kwargs={}, emulator=emulator,
                duration_ms=1_200.0, telemetry=True, attribution=True)
        for emulator in ("vSoC", "GAE", "QEMU-KVM")
        for factory in ("repro.apps.video:UhdVideoApp", "repro.apps.ar:ArApp")
    ]

    def snapshots(report):
        return [result.telemetry for result in report.results]

    serial = snapshots(run_many(specs, jobs=1, cache=False))
    assert all(s is not None and s.attribution is not None for s in serial)
    assert snapshots(run_many(specs, jobs=4, cache=False)) == serial

    store = RunCache(tmp_path / "cache")
    cold = run_many(specs, jobs=1, cache=store)
    warm = run_many(specs, jobs=1, cache=store)
    assert warm.executed == 0 and warm.cache_hits == len(specs)
    assert snapshots(cold) == snapshots(warm) == serial


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
