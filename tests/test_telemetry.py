"""Tests for run telemetry: snapshots, the capture-time view, sentinel."""

import hashlib
import json
import pickle

import pytest

from repro.apps.ar import ArApp
from repro.apps.video import UhdVideoApp
from repro.experiments.bench import (
    HISTORY_SCHEMA,
    append_history,
    judge,
    load_history,
)
from repro.experiments.engine import RunCache, RunSpec, run_many
from repro.experiments.runner import run_app


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
    latencies = run.stats.access_latency_samples
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
# Pins: the capture-time view reproduces the metrics registry's output
# ---------------------------------------------------------------------------

#: sha256 of ``observe --app ar [--emulator qemu_kvm]``'s metrics.json (the
#: default 8 s run), taken while metrics still went through a registry of
#: live instruments with a streaming decimating sampler.
OBSERVE_METRICS_SHA256 = {
    "vSoC": "3ae89c036b1d9346b3903719ab10281b119cb9bae091789345f945e00e4774b2",
    "QEMU-KVM": "7f2617a0a825c375933c51c7ef6a8631b46c76061ee56384db653c338e6884fd",
}

#: sha256 of ``json.dumps(snapshot.to_dict(), sort_keys=True)`` for an
#: 8 s ``run_app(..., telemetry=True, attribution=True)``, same origin.
SNAPSHOT_SHA256 = {
    ("ar", "vSoC"): "17fd206ed5c7b91976faec692d0e542d1d9f39a7b4850c65aab2737e8b8c3742",
    ("ar", "QEMU-KVM"): "fcbe1d2df7a430eabab6ebcd85f80de9461e5b6834e9c4c985a1f662473daf63",
    ("video", "vSoC"): "37b4c1f769fb6056c63c75b736ab330f4ec8795c18c26938dbd53d6dc8092d65",
    ("video", "QEMU-KVM"): "a8bfe7c6ae7d37ec7dfb66ac28c2edb34ab192a52f372aa1999eae17b2fd0cae",
}


@pytest.mark.parametrize("emulator", sorted(OBSERVE_METRICS_SHA256))
def test_observe_metrics_file_is_pinned(tmp_path, emulator):
    from repro.experiments.observe import run_observe
    from repro.obs.export import write_metrics
    from repro.obs.telemetry import RESERVOIR

    run = run_observe(app="ar", emulator=emulator)
    histograms = [m for m in run.metrics["metrics"] if m["type"] == "histogram"]
    assert any(m["count"] > RESERVOIR for m in histograms)  # decimation pinned
    path = tmp_path / "metrics.json"
    write_metrics(str(path), run.metrics)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == OBSERVE_METRICS_SHA256[emulator]


@pytest.mark.parametrize("app,emulator", sorted(SNAPSHOT_SHA256))
def test_snapshot_is_pinned(app, emulator):
    from repro.apps.catalog import resolve_callable
    from repro.experiments.explain import APP_FACTORIES

    run = run_app(resolve_callable(APP_FACTORIES[app])(), emulator,
                  duration_ms=8_000.0, telemetry=True, attribution=True)
    blob = json.dumps(run.telemetry.to_dict(), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == SNAPSHOT_SHA256[app, emulator]


# ---------------------------------------------------------------------------
# Regression sentinel
# ---------------------------------------------------------------------------

PAIR = "emerging-vsoc/host_ms_per_sim_s"
BOUNDS = {"host_ms_per_sim_s": {"bound": 0.1, "better": "lower"},
          "fps": {"bound": 0.1, "better": "higher"}}


def _report(medians, python="3.11.7"):
    """The part of a bench report the sentinel reads."""
    return {"host": {"python": python, "cpu_count": 2}, "runs": 5,
            "metrics": {pair: {"median": v} for pair, v in medians.items()}}


def _history(tmp_path, values):
    path = str(tmp_path / "hist.jsonl")
    for value in values:
        append_history(path, _report({PAIR: value}))
    return path


def test_sentinel_soft_passes_on_empty_history():
    verdict = judge(_report({PAIR: 99.0}), [], BOUNDS)
    assert verdict.ok
    assert [v.status for v in verdict.verdicts] == ["insufficient-history"]


def test_sentinel_flags_regression_and_improvement(tmp_path):
    history = load_history(_history(tmp_path, [10.0] * 4))
    bad = judge(_report({PAIR: 12.0}), history, BOUNDS)
    assert [v.pair for v in bad.regressions] == [PAIR]
    assert bad.verdicts[0].rel_change == pytest.approx(0.2)
    good = judge(_report({PAIR: 8.0}), history, BOUNDS)
    assert good.ok
    assert [v.status for v in good.verdicts] == ["improved"]
    steady = judge(_report({PAIR: 10.5}), history, BOUNDS)
    assert [v.status for v in steady.verdicts] == ["ok"]


def test_sentinel_skips_corrupt_and_alien_lines(tmp_path):
    path = _history(tmp_path, [10.0])
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("not json at all\n")
        fh.write('{"schema": "other-schema", "metrics": {}}\n')
        fh.write('{"schema": "%s"}\n' % HISTORY_SCHEMA)  # no metrics
        fh.write('{"schema": "repro-bench-history-v1", "kind": "bench", '
                 '"metrics": {"kernel.speedup": 1.3}}\n')
        fh.write('["a", "list"]\n')
        fh.write("\n")
    append_history(path, _report({PAIR: 10.0}))
    assert len(load_history(path)) == 2
    # A value no gated metric can take counts as corrupt too: the record
    # is read, but it adds nothing to the baseline.
    with open(path, "a", encoding="utf-8") as fh:
        for bad in (0, -1.0, True, "10"):
            fh.write(json.dumps({"schema": HISTORY_SCHEMA, "python": "3.11",
                                 "metrics": {PAIR: bad}}) + "\n")
    verdict = judge(_report({PAIR: 50.0}), load_history(path), BOUNDS)
    assert verdict.history_len == 6
    assert [v.status for v in verdict.verdicts] == ["insufficient-history"]


def test_sentinel_ewma_matches_paper_predictor(tmp_path):
    from repro.core.smoothing import ExponentialSmoothing

    values = [10.0, 12.0, 9.0, 11.5]
    history = load_history(_history(tmp_path, values))
    ewma = ExponentialSmoothing(alpha=0.5)
    for value in values:
        ewma.update(value)
    (verdict,) = judge(_report({PAIR: 11.0}), history, BOUNDS).verdicts
    assert verdict.baseline == ewma.predict()
    assert verdict.rel_change == (11.0 - ewma.predict()) / ewma.predict()


def test_history_record_is_flat_medians(tmp_path):
    path = str(tmp_path / "h.jsonl")
    medians = {PAIR: 10.0, "explain-grid/peak_rss_mb": 37.0}
    record = append_history(path, _report(medians))
    assert record["metrics"] == medians
    assert record["python"] == "3.11"
    assert record["schema"] == HISTORY_SCHEMA
    assert load_history(path) == [record]


def test_sentinel_honors_custom_metrics(tmp_path):
    # Each pair is gated by its own metric's bound and direction; a pair
    # whose metric has no bound is not judged at all.
    path = str(tmp_path / "h.jsonl")
    for _ in range(3):
        append_history(path, _report({"w/fps": 60.0, "w/other": 1.0}))
    verdict = judge(_report({"w/fps": 50.0, "w/other": 9.0}),
                    load_history(path), BOUNDS)
    assert [v.pair for v in verdict.verdicts] == ["w/fps"]
    assert [v.pair for v in verdict.regressions] == ["w/fps"]
