"""Tests for repro.obs: tracing, metrics, exporters, observe CLI."""

from __future__ import annotations

import json
import random

import pytest

from repro.emulators import EMULATOR_FACTORIES
from repro.errors import ConfigurationError
from repro.hw.machine import HIGH_END_DESKTOP, build_machine
from repro.metrics.stats import percentile
from repro.obs import NULL_SPAN, NULL_TRACER, SpanView, TelemetrySnapshot, Tracer
from repro.obs.export import (
    chrome_trace,
    connected_flows,
    metrics_json,
    validate_chrome_trace,
)
from repro.obs.telemetry import (
    RESERVOIR,
    CounterSample,
    GaugeSample,
    HistogramSample,
    derive_run_metrics,
    retained_samples,
)
from repro.sim import Simulator, Timeout
from repro.sim.kernel import SimHook
from repro.sim.tracing import TraceLog


# -- tracer -------------------------------------------------------------------

def test_tracer_spans_and_flows():
    sim = Simulator()
    tracer = Tracer(sim)
    flow = tracer.new_flow()

    def proc():
        span = tracer.begin("stage:decode", "codec", cat="stage", flow=flow)
        yield Timeout(5.0)
        tracer.end(span, duration=5.0)
        tracer.instant("frame.presented", "display", flow=flow, sequence=0)

    sim.spawn(proc())
    sim.run(until=10.0)
    assert len(tracer.spans) == 1
    assert len(tracer.instants) == 1
    span = tracer.spans[0]
    assert span.start == 0.0 and span.end == 5.0 and span.duration == 5.0
    assert span.args["duration"] == 5.0
    view = SpanView(tracer)
    chain = view.flow_chains()[flow]
    assert [s.name for s in chain] == ["stage:decode", "frame.presented"]
    assert view.flows() == [flow]


def test_tracer_requires_sim_when_enabled():
    with pytest.raises(ValueError):
        Tracer()


def test_disabled_tracer_records_nothing():
    tracer = NULL_TRACER
    assert tracer.new_flow() == 0
    span = tracer.begin("anything", "track", flow=7, data=1)
    assert span is NULL_SPAN
    tracer.end(span, more=2)
    tracer.instant("evt", "track")
    assert len(tracer) == 0
    assert SpanView(tracer).flows() == []


# -- metrics -------------------------------------------------------------------

def test_registry_counter_gauge_histogram():
    pcie = (("link", "pcie"),)
    snapshot = TelemetrySnapshot(
        counters=(CounterSample("bytes", pcie, 150.0),),
        gauges=(GaugeSample("util", pcie, 0.5),),
        histograms=(HistogramSample("lat", (), 4, 10.0, 1.0, 4.0,
                                    (1.0, 2.0, 3.0, 4.0)),),
    )
    metrics = metrics_json(snapshot)["metrics"]
    # One row per metric, in (name, labels) order across the three kinds.
    assert [row["name"] for row in metrics] == ["bytes", "lat", "util"]
    rows = {row["name"]: row for row in metrics}
    assert rows["bytes"] == {"name": "bytes", "type": "counter",
                             "labels": {"link": "pcie"}, "value": 150.0}
    assert rows["util"]["type"] == "gauge" and rows["util"]["value"] == 0.5
    hist = rows["lat"]
    assert hist["count"] == 4 and hist["mean"] == 2.5
    assert hist["min"] == 1.0 and hist["max"] == 4.0
    assert hist["p50"] == 2.5 and hist["p99"] == pytest.approx(3.97)


def _decimating_reference(values):
    """A streaming sampler: keep every ``stride``-th value and, when
    :data:`RESERVOIR` are kept, drop every other one and double the stride."""
    stride, kept = 1, []
    for offer, value in enumerate(values):
        if offer % stride:
            continue
        kept.append(value)
        if len(kept) >= RESERVOIR:
            kept = kept[::2]
            stride *= 2
    return tuple(kept)


def test_decimating_sampler_bounded_and_deterministic():
    samples = retained_samples([float(i) for i in range(5_000)])
    assert len(samples) < RESERVOIR
    assert samples == retained_samples([float(i) for i in range(5_000)])
    assert list(samples) == sorted(samples)
    # The closed form keeps exactly what the streaming sampler keeps.
    for n in [*range(1_100), 2_047, 2_048, 2_049, 4_095, 4_096, 4_097]:
        values = [float(i) for i in range(n)]
        assert retained_samples(values) == _decimating_reference(values), n


# -- percentile edge cases (metrics.stats satellite) --------------------------

def test_percentile_empty_with_default():
    assert percentile([], 50, default=None) is None
    assert percentile([], 99, default=-1.0) == -1.0
    with pytest.raises(ConfigurationError):
        percentile([], 50)


def test_percentile_single_sample_and_extremes():
    assert percentile([7.0], 0) == 7.0
    assert percentile([7.0], 50) == 7.0
    assert percentile([7.0], 100) == 7.0
    assert percentile([1.0, 2.0], 0) == 1.0
    assert percentile([1.0, 2.0], 100) == 2.0


def test_percentile_rejects_nan_q():
    with pytest.raises(ConfigurationError):
        percentile([1.0], float("nan"))


# -- kernel hooks -------------------------------------------------------------

class _CountingHook(SimHook):
    def __init__(self):
        self.dispatches = 0

    def on_event_dispatch(self, time, call):
        self.dispatches += 1


def test_a_hook_sees_every_dispatch():
    sim = Simulator()
    hook = _CountingHook()
    sim.add_hook(hook)

    def proc():
        yield Timeout(1.0)
        yield Timeout(1.0)

    sim.spawn(proc(), name="exec:gpu")
    sim.run(until=3.0)
    assert hook.dispatches == 3  # the start and both wake-ups


# -- exporters ----------------------------------------------------------------

def _traced_run():
    sim = Simulator()
    tracer = Tracer(sim)
    flow = tracer.new_flow()

    def proc():
        outer = tracer.begin("svm.begin_access", "gpu", cat="svm", flow=flow)
        yield Timeout(2.0)
        inner = tracer.begin("coherence.copy", "coherence", cat="coherence", flow=flow)
        yield Timeout(3.0)
        tracer.end(inner)
        tracer.end(outer)
        tracer.instant("frame.presented", "display", cat="frame", flow=flow)

    sim.spawn(proc())
    sim.run(until=10.0)
    return sim, tracer, flow


def test_chrome_trace_structure_and_validation():
    sim, tracer, flow = _traced_run()
    trace = chrome_trace(
        SpanView(tracer), track_groups={"gpu": "rtx4090"}, end_time=sim.now
    )
    assert validate_chrome_trace(trace) == []
    events = trace["traceEvents"]
    phases = [e["ph"] for e in events]
    assert "X" in phases and "i" in phases and "M" in phases
    # gpu track got its own process; coherence/display default to host
    process_names = {
        e["args"]["name"] for e in events
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    assert process_names == {"rtx4090", "host"}
    # flow chain is s ... f in event order
    chain = [e["ph"] for e in events if e["ph"] in ("s", "t", "f")]
    assert chain[0] == "s" and chain[-1] == "f"
    # timestamps are in microseconds
    copy_event = next(e for e in events if e.get("name") == "coherence.copy")
    assert copy_event["ts"] == 2000.0 and copy_event["dur"] == 3000.0


def test_chrome_trace_clamps_open_spans():
    sim = Simulator()
    tracer = Tracer(sim)

    def proc():
        tracer.begin("never.closed", "host")
        yield Timeout(1.0)

    sim.spawn(proc())
    sim.run(until=5.0)
    trace = chrome_trace(SpanView(tracer), end_time=sim.now)
    event = next(e for e in trace["traceEvents"] if e["ph"] == "X")
    assert event["dur"] == 5000.0
    assert validate_chrome_trace(trace) == []


def test_validate_chrome_trace_catches_malformed():
    assert validate_chrome_trace([]) != []
    assert validate_chrome_trace({}) != []
    bad_phase = {"traceEvents": [{"ph": "?", "pid": 1, "tid": 1, "ts": 0}]}
    assert any("phase" in e for e in validate_chrome_trace(bad_phase))
    bad_dur = {"traceEvents": [
        {"ph": "X", "name": "x", "pid": 1, "tid": 1, "ts": 0, "dur": -1}
    ]}
    assert any("dur" in e for e in validate_chrome_trace(bad_dur))
    bad_flow = {"traceEvents": [
        {"ph": "t", "pid": 1, "tid": 1, "ts": 0, "id": 9},
    ]}
    assert any("flow 9" in e for e in validate_chrome_trace(bad_flow))


def test_connected_flows_matches_by_prefix():
    _, tracer, flow = _traced_run()
    view = SpanView(tracer)
    assert connected_flows(
        view, ("svm.begin_access", "coherence", "frame.presented")
    ) == [flow]
    assert connected_flows(view, ("svm.begin_access", "prefetch")) == []


def test_metrics_json_bundles_profile_and_extra():
    # The per-device time profile is plain counters.
    snapshot = TelemetrySnapshot(counters=(
        CounterSample("c", (), 3.0),
        CounterSample("device.busy_ms", (("device", "gpu"),), 1.0),
    ))
    out = metrics_json(snapshot, extra={"fps": 60.0})
    assert out["metrics"][0]["value"] == 3.0
    assert out["metrics"][1] == {"name": "device.busy_ms", "type": "counter",
                                 "labels": {"device": "gpu"}, "value": 1.0}
    assert "profile" not in out
    assert out["fps"] == 60.0
    json.dumps(out)  # round-trips


# -- observed rigs -------------------------------------------------------------

def test_observability_installs_no_hook():
    from repro.experiments.runner import build_rig
    from repro.recovery.audit import install_auditor

    observed = build_rig("vSoC", observed=True)
    assert observed.tracer.enabled
    assert observed.emulator.tracer is observed.tracer
    assert observed.sim._hooks == []

    audited = build_rig("vSoC", observed=True)
    auditor = install_auditor(audited.emulator)
    assert audited.sim._hooks == [auditor]


# -- TraceLog satellites: per-kind index --------------------------------------

def test_tracelog_index_consistency():
    log = TraceLog()
    for i in range(10):
        log.record(float(i), "a", v=i)
        log.record(float(i), "b", v=i * 2)
    assert log.count("a") == 10 and log.count("b") == 10
    assert log.values("a", "v") == list(range(10))
    assert [r.kind for r in log.of_kind("b")] == ["b"] * 10
    assert log.kind_counts() == {"a": 10, "b": 10}
    assert len(log) == 20


# -- end-to-end: observed emulator runs ---------------------------------------

def _run_video(duration_ms=1_500.0):
    from repro.apps.video import UhdVideoApp

    sim = Simulator()
    machine = build_machine(sim, HIGH_END_DESKTOP)
    trace = TraceLog()
    emulator = EMULATOR_FACTORIES["vSoC"](
        sim, machine, trace=trace, rng=random.Random(0)
    )
    app = UhdVideoApp()
    assert app.install(sim, emulator)
    sim.run(until=duration_ms)
    return sim, emulator, app


def test_observed_run_is_bit_identical_and_connected():
    # baseline: no observability
    _, _, plain = _run_video()

    # observed: full tracing + metrics + profiling, on the runner's path
    from repro.apps.video import UhdVideoApp
    from repro.experiments.runner import build_rig, drive

    rig = build_rig("vSoC", HIGH_END_DESKTOP, seed=0, observed=True)
    emulator = rig.emulator
    app = UhdVideoApp()
    (installed,), _, _ = drive(rig, [app], 1_500.0)
    assert installed

    # observability never perturbs the simulation: identical frame times
    assert app.fps.present_times == plain.fps.present_times
    assert app.fps.dropped == plain.fps.dropped

    # the trace exports clean and at least one frame flow is connected
    view = SpanView(rig.tracer, rig.trace)
    trace = chrome_trace(view, emulator.track_groups(), end_time=rig.sim.now)
    assert validate_chrome_trace(trace) == []
    connected = set(connected_flows(
        view, ("svm.begin_access", "coherence.copy", "frame.presented")
    )) | set(connected_flows(
        view, ("svm.begin_access", "prefetch", "frame.presented")
    ))
    assert connected

    # metrics carry the acceptance instruments
    metrics = metrics_json(derive_run_metrics(rig.trace, emulator, [app.fps]))
    names = {m["name"] for m in metrics["metrics"]}
    assert "prefetch.mispredict_rate" in names
    assert "bus.utilization" in names
    assert "frames.presented" in names
    assert "profile" not in metrics
    # per-device attribution: each busy device's own op time
    busy = {
        m["labels"]["device"]: m["value"]
        for m in metrics["metrics"] if m["name"] == "device.busy_ms"
    }
    assert busy and busy == {
        name: device.busy_time
        for name, device in rig.machine.devices.items() if device.busy_time
    }
    # frame counters are read from the authoritative collector
    presented = next(
        m for m in metrics["metrics"] if m["name"] == "frames.presented"
    )
    assert presented["value"] == float(app.fps.presented)


def test_drive_sums_frame_metrics_across_an_app_mix():
    from repro.apps.camera import CameraApp
    from repro.apps.video import UhdVideoApp
    from repro.experiments.runner import build_rig, drive

    rig = build_rig("vSoC", HIGH_END_DESKTOP, seed=0, observed=True)
    apps = [UhdVideoApp(), CameraApp()]
    installed, results, _ = drive(rig, apps, 1_500.0)
    assert installed == [True, True]
    assert all(result.presented > 0 for result in results)

    snapshot = derive_run_metrics(rig.trace, rig.emulator, [app.fps for app in apps])
    metrics = metrics_json(snapshot)["metrics"]
    presented = [m["value"] for m in metrics if m["name"] == "frames.presented"]
    assert presented == [float(sum(result.presented for result in results))]
    dropped = {
        m["labels"]["reason"]: m["value"]
        for m in metrics if m["name"] == "frames.dropped"
    }
    expected = {}
    for result in results:
        for reason, count in result.dropped.items():
            expected[reason] = expected.get(reason, 0) + count
    assert dropped == expected


@pytest.mark.parametrize("duration_ms", [float("nan"), float("inf"), 0.0, -5.0])
def test_drive_rejects_a_horizon_that_is_not_finite_and_positive(duration_ms, monkeypatch):
    from repro.apps.video import UhdVideoApp
    from repro.experiments.runner import build_rig, drive

    rig = build_rig("vSoC", HIGH_END_DESKTOP, seed=0)

    def never(*args, **kwargs):
        raise AssertionError("drive ran the clock")

    monkeypatch.setattr(rig.sim, "run", never)
    app = UhdVideoApp()
    with pytest.raises(ValueError, match="duration_ms"):
        drive(rig, [app], duration_ms)
    assert app.fps.presented == 0


def test_drive_refuses_attribution_on_an_unobserved_rig():
    from repro.apps.video import UhdVideoApp
    from repro.experiments.runner import build_rig, drive

    rig = build_rig("vSoC", HIGH_END_DESKTOP, seed=0)
    with pytest.raises(ValueError, match=r"build_rig\(\.\.\., observed=True\)"):
        drive(rig, [UhdVideoApp()], 1_000.0, attribution=True)
    assert rig.sim.now == 0.0


def test_disabled_observability_adds_zero_records():
    sim, emulator, _ = _run_video()
    assert emulator.tracer is NULL_TRACER
    assert len(NULL_TRACER) == 0


def test_unobserved_catalog_runs_skip_every_observation_call(monkeypatch):
    # Hot observation sites test ``obs.enabled`` before building their
    # arguments, so an unobserved run never reaches the null tracer.
    from repro.apps.catalog import emerging_app_params
    from repro.experiments.engine import execute_spec, specs_for_apps

    calls = []

    def count(target, name):
        method = getattr(target, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return method(*args, **kwargs)

        monkeypatch.setitem(vars(target), name, counting)

    for name in ("begin", "instant", "end"):
        count(NULL_TRACER, name)

    params = emerging_app_params(0, per_category=1)[:1]
    for emulator in ("vSoC", "GAE"):
        (spec,) = specs_for_apps(params, emulator, duration_ms=1_000.0)
        out = execute_spec(spec)
        assert out.result.presented > 0
    assert calls == []


# -- observe CLI --------------------------------------------------------------

def test_observe_cli_writes_artifacts(tmp_path):
    from repro.experiments.__main__ import main

    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.json"
    code = main([
        "observe", "--app", "video", "--duration", "1500",
        "--export", str(trace_path), "--metrics", str(metrics_path),
    ])
    assert code == 0
    trace = json.loads(trace_path.read_text())
    assert validate_chrome_trace(trace) == []
    metrics = json.loads(metrics_path.read_text())
    assert metrics["app"] == "uhd-video"
    assert any(m["name"] == "bus.utilization" for m in metrics["metrics"])
    assert any(m["name"] == "device.busy_ms" for m in metrics["metrics"])
    assert "profile" not in metrics


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-5"])
@pytest.mark.parametrize("command,flag", [
    ("observe", "--duration"), ("explain", "--duration"), ("explain", "--deadline"),
])
def test_cli_rejects_a_bad_horizon_before_running(monkeypatch, capsys,
                                                  command, flag, value):
    from repro.experiments import explain, observe
    from repro.experiments.__main__ import main

    def must_not_run(*args, **kwargs):
        raise AssertionError(f"{command} ran with {flag} {value}")

    monkeypatch.setattr(observe, "cmd_observe", must_not_run)
    monkeypatch.setattr(explain, "cmd_explain", must_not_run)
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--app", "ar", flag, value])
    assert exit_info.value.code == 2
    assert "finite number of ms > 0" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_cli_rejects_a_bad_sample_count_before_running(monkeypatch, capsys, value):
    """A count of no samples would report a clean campaign that ran nothing."""
    from repro.experiments import __main__ as cli

    def must_not_run(*args, **kwargs):
        raise AssertionError(f"fuzz ran with --max-samples {value}")

    monkeypatch.setattr(cli, "cmd_fuzz", must_not_run)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["fuzz", "--max-samples", value])
    assert exit_info.value.code == 2
    assert "integer > 0" in capsys.readouterr().err


@pytest.mark.parametrize("kwargs", [
    {"max_samples": 0}, {"max_samples": -3}, {"documents": []},
])
def test_run_fuzz_refuses_an_empty_campaign(monkeypatch, tmp_path, kwargs):
    """The library entry refuses what the CLI refuses: a campaign of no
    sample, before it samples or runs anything."""
    from repro.errors import ConfigurationError
    from repro.experiments import engine
    from repro.scenario import fuzz

    def must_not_run(*args, **kwargs):
        raise AssertionError("run_fuzz sampled or ran an empty campaign")

    monkeypatch.setattr(fuzz, "sample_scenario", must_not_run)
    monkeypatch.setattr(engine, "run_many", must_not_run)
    with pytest.raises(ConfigurationError, match="at least one sample"):
        fuzz.run_fuzz(out_dir=str(tmp_path), **kwargs)


def test_observe_resolves_emulator_names_like_explain():
    from repro.experiments.observe import run_observe

    run = run_observe(app="ar", emulator="qemu_kvm", duration_ms=500.0)
    assert run.result.emulator == "QEMU-KVM"
    assert run.metrics["emulator"] == "QEMU-KVM"


def test_observe_cli_rejects_unknown_app():
    from repro.experiments.observe import run_observe

    with pytest.raises(ValueError):
        run_observe(app="nope")
    with pytest.raises(ValueError):
        run_observe(emulator="nope")


# -- histogram reservoir -------------------------------------------------------

def test_registry_reservoir_override():
    assert len(retained_samples([float(i) for i in range(5_000)])) <= RESERVOIR


# -- bind_id flow validation ---------------------------------------------------

def _bind_event(ph="X", bind_id=7, **flags):
    event = {"ph": ph, "name": "e", "cat": "c", "ts": 1.0, "dur": 1.0,
             "pid": 1, "tid": 1, "bind_id": bind_id}
    event.update(flags)
    return event


def test_validator_flags_unpaired_bind_ids():
    # flow_out with no flow_in: the arrow starts and never lands.
    out_only = {"traceEvents": [_bind_event(flow_out=True)]}
    errors = validate_chrome_trace(out_only)
    assert any("no 'flow_in'" in e for e in errors)

    # flow_in with no flow_out: the arrow lands but never starts.
    in_only = {"traceEvents": [_bind_event(flow_in=True)]}
    errors = validate_chrome_trace(in_only)
    assert any("no 'flow_out'" in e for e in errors)

    # bind_id with neither flag can never pair at all.
    neither = {"traceEvents": [_bind_event()]}
    errors = validate_chrome_trace(neither)
    assert any("can never pair" in e for e in errors)

    # a bad bind_id type is reported rather than crashing the validator
    bad_type = {"traceEvents": [_bind_event(bind_id=[1], flow_out=True)]}
    errors = validate_chrome_trace(bad_type)
    assert any("must be an int or string" in e for e in errors)


def test_validator_accepts_paired_bind_ids():
    paired = {"traceEvents": [
        _bind_event(flow_out=True),
        _bind_event(flow_in=True),
    ]}
    assert validate_chrome_trace(paired) == []
    # one event carrying both directions pairs with itself (a relay hop)
    relay = {"traceEvents": [_bind_event(flow_out=True, flow_in=True)]}
    assert validate_chrome_trace(relay) == []
    # string bind ids are legal in the format
    strings = {"traceEvents": [
        _bind_event(bind_id="0xcafe", flow_out=True),
        _bind_event(bind_id="0xcafe", flow_in=True),
    ]}
    assert validate_chrome_trace(strings) == []
