"""Self-tests of the benchmark; run with ``PYTHONPATH=src python -m pytest perf -q``."""

from __future__ import annotations

import json

import pytest

import layers
import run
from workloads import WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _row(point, digest, wall=1.0, ran=True, sim_s=2.0, presented=10, error=None,
         ref=run.REFERENCE_S):
    return {"point": point, "digest": digest, "wall_s": wall, "ran": ran,
            "sim_s": sim_s if ran else 0.0, "presented": presented, "error": error,
            "ref_s": ref}


def test_perturbed_pin_raises_error_rate():
    runs = [[_row("a@vSoC", "d1"), _row("b@vSoC", "d2")] for _ in range(3)]
    pin = {"a@vSoC": "d1", "b@vSoC": "d2"}
    assert run.check_points(runs, pin) == []
    assert len(run.check_points(runs, {**pin, "b@vSoC": "ffff"})) == 1
    assert len(run.check_points(runs, {"a@vSoC": "d1"})) == 1  # point not pinned


def test_unpinned_seed_still_fails_on_errors_and_pass_mismatch():
    runs = [[_row("a@GAE", "d1"), _row("b@GAE", "d2")],
            [_row("a@GAE", "d1"), _row("b@GAE", "XX")]]
    assert len(run.check_points(runs, None)) == 1
    runs[1][1] = _row("b@GAE", None, error="ValueError: boom")
    assert "raised" in run.check_points(runs, None)[0]


def test_pins_cover_every_point_of_the_pinned_seeds():
    for seed in (0, 1):
        pin = run.load_pins(seed)
        assert set(pin) == set(WORKLOADS)
        for name, build in WORKLOADS.items():
            labels = [f"{s.app_name}@{s.emulator}" for s in build(seed)]
            assert sorted(labels) == sorted(pin[name])
    assert run.load_pins(12345) is None


def test_metric_names_and_units_equal_benchmark_json():
    def table(section):
        return {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK[section]}

    assert table("end_to_end") == run.E2E_METRICS
    assert table("per_layer") == run.LAYER_METRICS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert BENCHMARK["command"] == ["python3", "perf/run.py"]


def test_printed_metrics_are_exactly_the_declared_ones():
    ref = run.REFERENCE_S
    passes = [{"points": [_row("a@vSoC", "d")], "maxrss_kb": 40960}]
    probes = [{"setup_s": 0.2, "import_s": 0.15, "construct_s": 0.05, "ref_s": ref}]
    assert set(run.e2e_metrics(passes, probes)) == set(run.E2E_METRICS)
    trace = {
        "self_s": {layer: 1.0 for layer in layers.LAYERS},
        "calls": {layer: 3 for layer in layers.LAYERS},
        "counted": {name: 2 for name in layers.COUNTED},
        "counts": dict.fromkeys(
            ("frames", "dropped", "accesses", "access_ms", "copies", "copy_ms",
             "prefetch_launched", "prefetch_wasted"), 1),
        "traced_s": 3.0, "untraced_s": 1.0,
    }
    out = run.layer_metrics(trace, probes)
    assert set(out) == set(run.LAYER_METRICS)
    assert sum(out[f"{layer}.share"] for layer in layers.LAYERS) == pytest.approx(1.0)
    assert out["trace.overhead_x"] == 3.0
    assert out["obs.spans"] == 4


def test_aggregation_math_on_synthetic_samples():
    ref = run.REFERENCE_S
    walls = [(1.0, 0.5, 0.1), (3.0, 0.7, 0.1), (2.0, 0.6, 0.1)]
    passes = [
        {"points": [_row("a", "x", wall=a, ref=pass_ref),
                    _row("b", "y", wall=b, ref=pass_ref),
                    _row("c", "z", wall=c, ran=False, ref=pass_ref)],
         "maxrss_kb": kb}
        for (a, b, c), kb, pass_ref in zip(
            walls, (40 * 1024, 50 * 1024, 45 * 1024), (ref, ref, 2 * ref))
    ]
    # The reference loop took twice as long around the third pass's
    # points, so they scale by s = 0.5 ** 0.7 (0.62): per-point minima 1.0,
    # 0.6 s and 0.1 s (the point that did not run still costs wall time)
    # over the 4 simulated seconds of the two that ran.
    s = 0.5 ** 0.7
    assert run.host_scale(2 * ref) == pytest.approx(s)
    scaled = 1000 * (1.0 + 0.6 * s + 0.1 * s) / 4.0
    assert run.host_ms_per_sim_s(passes) == pytest.approx(scaled)
    unscaled = run.host_ms_per_sim_s(passes, scaled=False)
    assert unscaled == pytest.approx(1000 * 1.6 / 4.0)
    probes = [{"setup_s": 0.4, "ref_s": ref}, {"setup_s": 0.1, "ref_s": ref},
              {"setup_s": 0.6, "ref_s": 2 * ref}]
    out = run.e2e_metrics(passes, probes)
    assert out["host_ms_per_sim_s"] == pytest.approx(scaled)
    assert out["setup_s"] == pytest.approx(0.6 * s)
    assert out["peak_rss_mb"] == 45.0


def test_pass_count_depends_only_on_the_arguments():
    seconds = BENCHMARK["run_seconds"]
    assert {name: run.pass_count(name, seconds) for name in WORKLOADS} == {
        "emerging-vsoc": 3, "emerging-baselines": 3, "popular-vsoc": 3,
        "explain-grid": 4}
    assert run.pass_count("explain-grid", 20) == 5
    assert run.pass_count("explain-grid", 1) == run.MIN_PASSES
    assert set(run.PASS_S) == set(WORKLOADS)


def test_attribution_charges_builtins_to_their_callers():
    kernel = str(layers.SRC_REPRO / "sim" / "kernel.py")
    manager = str(layers.SRC_REPRO / "core" / "manager.py")
    a, b = (kernel, 205, "_step"), (manager, 10, "access")
    builtin = ("~", 0, "<built-in method builtins.len>")
    helper = ("/usr/lib/python3/heapq.py", 1, "helper")
    stats = {
        a: (4, 4, 0.5, 1.0, {}),
        b: (1, 1, 0.25, 0.5, {}),
        builtin: (3, 3, 0.3, 0.3, {a: (1, 1, 0.1, 0.1), helper: (2, 2, 0.2, 0.2)}),
        # A recursive stdlib helper: its self-calls follow its outer caller.
        helper: (2, 3, 0.5, 0.6, {b: (2, 2, 0.4, 0.6), helper: (1, 1, 0.1, 0.1)}),
    }
    self_s, calls, counted = layers.attribute(stats)
    assert self_s["sim"] == pytest.approx(0.6)
    assert self_s["core.manager"] == pytest.approx(0.25 + 0.5 + 0.2)
    assert self_s["other"] == 0.0
    assert sum(self_s.values()) == pytest.approx(0.5 + 0.25 + 0.3 + 0.5)
    assert calls["sim"] == 4 and calls["core.manager"] == 1
    assert counted["resumes"] == 4


def test_guard_catches_an_unmapped_module(tmp_path):
    for rel in ("sim/kernel.py", "hw/bus.py", "sim/newqueue.py", "newpkg/x.py",
                "core/manager.py"):
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("")
    assert layers.unmapped_modules(tmp_path) == ["newpkg/x.py", "sim/newqueue.py"]


def test_every_source_module_maps_to_a_declared_layer():
    assert layers.unmapped_modules() == []
    declared = {m["name"].rsplit(".", 1)[0] for m in BENCHMARK["per_layer"]
                if m["name"].endswith(".share")}
    assert declared == set(layers.LAYERS)
    assert set(layers.LAYER_MAP.values()) <= declared


def test_two_traced_runs_give_identical_counts():
    outs = [
        run.run_child("trace", "explain-grid", 0, "--limit", "1", "--sim-ms", "2000")
        for _ in range(2)
    ]
    for key in ("points", "calls", "counted", "counts"):
        assert outs[0][key] == outs[1][key]
    assert outs[0]["counted"]["span_begins"] > 0
    assert run.check_points([outs[0]["points"]], None) == []
