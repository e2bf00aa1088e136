"""Tests for repro.obs: tracing, metrics, profiling, exporters, observe CLI."""

from __future__ import annotations

import json
import random

import pytest

from repro.emulators import EMULATOR_FACTORIES
from repro.errors import ConfigurationError
from repro.hw.machine import HIGH_END_DESKTOP, build_machine
from repro.metrics.stats import percentile
from repro.obs import (
    DISABLED,
    NULL_SPAN,
    NULL_TRACER,
    MetricsRegistry,
    Observability,
    Tracer,
    chrome_trace,
    connected_flows,
    metrics_json,
    validate_chrome_trace,
)
from repro.obs.profile import SelfProfiler
from repro.obs.registry import _DecimatingSampler
from repro.sim import Simulator, Timeout
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
    chain = tracer.flow_chains()[flow]
    assert [s.name for s in chain] == ["stage:decode", "frame.presented"]
    assert tracer.flows() == [flow]


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
    assert tracer.flows() == []


def test_span_context_manager():
    sim = Simulator()
    tracer = Tracer(sim)

    def proc():
        with tracer.span("critical", "host"):
            pass
        yield Timeout(1.0)

    sim.spawn(proc())
    sim.run(until=2.0)
    assert tracer.spans[0].finished


class _FakeClock:
    def __init__(self):
        self.now = 0.0


def test_tracer_ring_cap_bounds_spans_and_counts_drops():
    clock = _FakeClock()
    tracer = Tracer(clock, max_spans=4)
    for i in range(10):
        clock.now = float(i)
        span = tracer.begin(f"s{i}", "t")
        tracer.end(span)
        tracer.instant(f"i{i}", "t")
    assert len(tracer.spans) == 4
    assert len(tracer.instants) == 4
    assert tracer.dropped_spans == 12  # 6 from each store
    # The ring keeps the newest spans.
    assert [s.name for s in tracer.spans] == ["s6", "s7", "s8", "s9"]


def test_tracer_ring_cap_validated_and_off_by_default():
    clock = _FakeClock()
    with pytest.raises(ValueError):
        Tracer(clock, max_spans=0)
    unbounded = Tracer(clock)
    for i in range(100):
        unbounded.end(unbounded.begin(f"s{i}", "t"))
    assert len(unbounded.spans) == 100
    assert unbounded.dropped_spans == 0


# -- metrics registry ---------------------------------------------------------

def test_registry_counter_gauge_histogram():
    registry = MetricsRegistry()
    registry.counter("bytes", link="pcie").inc(100)
    registry.counter("bytes", link="pcie").inc(50)
    registry.gauge("util", link="pcie").set(0.5)
    for v in (1.0, 2.0, 3.0, 4.0):
        registry.histogram("lat").observe(v)

    assert registry.value("bytes", link="pcie") == 150
    assert registry.value("util", link="pcie") == 0.5
    hist = registry.find("lat")
    assert hist.count == 4 and hist.mean == 2.5
    assert hist.min == 1.0 and hist.max == 4.0
    assert hist.percentile(50) == 2.5
    assert len(registry) == 3


def test_registry_counter_rejects_decrease():
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        registry.counter("c").inc(-1)


def test_registry_kind_conflict():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(TypeError):
        registry.gauge("x")


def test_decimating_sampler_bounded_and_deterministic():
    def fill(n):
        sampler = _DecimatingSampler(capacity=8)
        for i in range(n):
            sampler.offer(i)
        return sampler.samples

    samples = fill(1000)
    assert len(samples) < 8
    assert samples == fill(1000)  # rerun retains identical samples
    assert samples == sorted(samples)


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


# -- self-profiler ------------------------------------------------------------

def test_self_profiler_attributes_sim_time():
    sim = Simulator()
    profiler = SelfProfiler(vdev_to_device={"gpu": "rtx4090"})
    sim.add_hook(profiler)

    def exec_proc():
        yield Timeout(4.0)

    def prefetch_proc():
        yield Timeout(2.0)

    sim.spawn(exec_proc(), name="exec:gpu")
    sim.spawn(prefetch_proc(), name="prefetch:r1")
    sim.run(until=10.0)

    table = profiler.table()
    assert table["subsystem_ms"]["exec:gpu"] == 4.0
    assert table["subsystem_ms"]["prefetch"] == 2.0
    assert table["device_ms"]["rtx4090"] == 4.0
    assert table["timeouts_attributed"] == 2
    assert table["events_dispatched"] > 0


def test_profiler_hook_removal():
    sim = Simulator()
    profiler = SelfProfiler()
    sim.add_hook(profiler)
    sim.remove_hook(profiler)

    def proc():
        yield Timeout(1.0)

    sim.spawn(proc(), name="exec:gpu")
    sim.run(until=2.0)
    assert profiler.timeouts_attributed == 0


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
        tracer, track_groups={"gpu": "rtx4090"}, end_time=sim.now
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
    trace = chrome_trace(tracer, end_time=sim.now)
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
    assert connected_flows(
        tracer, ("svm.begin_access", "coherence", "frame.presented")
    ) == [flow]
    assert connected_flows(tracer, ("svm.begin_access", "prefetch")) == []


def test_tracelog_digestion_into_trace():
    sim, tracer, _ = _traced_run()
    log = TraceLog()
    log.record(1.0, "host.op_retired", vdev="gpu", op="render")
    trace = chrome_trace(tracer, tracelog=log, end_time=sim.now)
    assert validate_chrome_trace(trace) == []
    digested = [e for e in trace["traceEvents"] if e.get("cat") == "tracelog"]
    assert len(digested) == 1
    assert digested[0]["name"] == "host.op_retired"


def test_metrics_json_bundles_profile_and_extra():
    registry = MetricsRegistry()
    registry.counter("c").inc(3)
    out = metrics_json(registry, profile={"device_ms": {"gpu": 1.0}},
                       extra={"fps": 60.0})
    assert out["metrics"][0]["value"] == 3.0
    assert out["profile"]["device_ms"]["gpu"] == 1.0
    assert out["fps"] == 60.0
    json.dumps(out)  # round-trips


# -- Observability bundle -----------------------------------------------------

def test_observability_disabled_is_inert():
    assert not DISABLED.enabled
    assert DISABLED.tracer is NULL_TRACER
    assert len(DISABLED.registry) == 0
    assert DISABLED.profiler is None
    DISABLED.map_devices({"gpu": "x"})  # no-op, no crash


def test_observability_enabled_installs_hook():
    sim = Simulator()
    obs = Observability(sim)
    assert obs.enabled and obs.profiler is not None

    def proc():
        yield Timeout(2.0)

    sim.spawn(proc(), name="exec:gpu")
    sim.run(until=3.0)
    obs.map_devices({"gpu": "dev0"})
    metrics = obs.export_metrics()
    assert metrics["profile"]["timeouts_attributed"] == 1


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
    assert log.recorded_total == 20


# -- end-to-end: observed emulator runs ---------------------------------------

def _run_video(obs=None, duration_ms=1_500.0):
    from repro.apps.video import UhdVideoApp

    sim = Simulator()
    machine = build_machine(sim, HIGH_END_DESKTOP)
    trace = TraceLog()
    emulator = EMULATOR_FACTORIES["vSoC"](
        sim, machine, trace=trace, rng=random.Random(0), obs=obs
    )
    app = UhdVideoApp()
    assert app.install(sim, emulator)
    sim.run(until=duration_ms)
    return sim, emulator, app


def test_observed_run_is_bit_identical_and_connected():
    # baseline: no observability
    _, _, plain = _run_video(obs=None)

    # observed: full tracing + metrics + profiling, on the runner's path
    from repro.apps.video import UhdVideoApp
    from repro.experiments.runner import build_rig, drive

    obs = Observability(Simulator())
    rig = build_rig("vSoC", HIGH_END_DESKTOP, seed=0, obs=obs)
    emulator = rig.emulator
    app = UhdVideoApp()
    (installed,), _, _ = drive(rig, [app], 1_500.0)
    assert installed

    # observability never perturbs the simulation: identical frame times
    assert app.fps.present_times == plain.fps.present_times
    assert app.fps.dropped == plain.fps.dropped

    # the trace exports clean and at least one frame flow is connected
    trace = obs.export_trace(track_groups=emulator.track_groups())
    assert validate_chrome_trace(trace) == []
    connected = set(connected_flows(
        obs.tracer, ("svm.begin_access", "coherence.copy", "frame.presented")
    )) | set(connected_flows(
        obs.tracer, ("svm.begin_access", "prefetch", "frame.presented")
    ))
    assert connected

    # metrics carry the acceptance instruments
    metrics = obs.export_metrics()
    names = {m["name"] for m in metrics["metrics"]}
    assert "prefetch.mispredict_rate" in names
    assert "bus.utilization" in names
    assert "frames.presented" in names
    assert metrics["profile"]["device_ms"]  # per-device attribution
    # frame counters are read from the authoritative collector
    presented = next(
        m for m in metrics["metrics"] if m["name"] == "frames.presented"
    )
    assert presented["value"] == float(app.fps.presented)


def test_drive_sums_frame_metrics_across_an_app_mix():
    from repro.apps.camera import CameraApp
    from repro.apps.video import UhdVideoApp
    from repro.experiments.runner import build_rig, drive

    obs = Observability(Simulator())
    rig = build_rig("vSoC", HIGH_END_DESKTOP, seed=0, obs=obs)
    installed, results, _ = drive(rig, [UhdVideoApp(), CameraApp()], 1_500.0)
    assert installed == [True, True]
    assert all(result.presented > 0 for result in results)

    metrics = obs.export_metrics()["metrics"]
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


def test_disabled_observability_adds_zero_records():
    sim, emulator, _ = _run_video(obs=None)
    assert emulator.obs is DISABLED
    assert len(DISABLED.tracer) == 0
    assert len(DISABLED.registry) == 0


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
    assert "profile" in metrics


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


# -- reservoir overrides -------------------------------------------------------

def test_registry_reservoir_override():
    from repro.obs.registry import DEFAULT_RESERVOIR, MetricsRegistry

    small = MetricsRegistry(reservoir=8)
    hist = small.histogram("h")
    for i in range(1_000):
        hist.observe(float(i))
    assert len(hist.samples()) <= 8

    default = MetricsRegistry().histogram("default")
    for i in range(5_000):
        default.observe(float(i))
    assert len(default.samples()) <= DEFAULT_RESERVOIR


def test_observe_reservoir_threads_through(monkeypatch):
    from repro.experiments import observe
    from repro.obs import Histogram

    observed = []
    real = observe.Observability

    def keep(*args, **kwargs):
        obs = real(*args, **kwargs)
        observed.append(obs)
        return obs

    monkeypatch.setattr(observe, "Observability", keep)
    observe.run_observe(app="video", duration_ms=1_500.0, reservoir=16)
    (obs,) = observed
    histograms = [
        inst for inst in obs.registry.instruments() if isinstance(inst, Histogram)
    ]
    assert histograms
    for hist in histograms:
        assert len(hist.samples()) <= 16, hist.name
    # The cap is exercised, not just respected: some histogram saw more
    # values than it could keep.
    assert max(hist.count for hist in histograms) > 16


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
