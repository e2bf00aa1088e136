"""Tests for latency attribution: conservation, critical path, diff, SLO,
the regression sentinel's Python-version filter, and the ``explain`` CLI."""

from __future__ import annotations

import json

import pytest

from repro.obs import SpanView, Tracer
from repro.obs.critical import (
    BUDGET_CATEGORIES,
    CONSERVATION_TOL,
    LatencyBudget,
    analyze_tracer,
    budget_from_snapshot,
)
from repro.obs.diff import diff_budgets
from repro.obs.slo import SloSpec, evaluate_frames
from repro.sim import Simulator

APPS = ("video", "camera", "ar", "livestream")
EMULATORS = ("vSoC", "GAE", "QEMU-KVM")

DURATION_MS = 1_500.0


def _app(app_name: str):
    from repro.apps.catalog import resolve_callable
    from repro.experiments.explain import APP_FACTORIES

    return resolve_callable(APP_FACTORIES[app_name])()


def _attributed_run(app_name: str, emulator: str, seed: int = 0):
    from repro.experiments.runner import run_app

    return run_app(
        _app(app_name), emulator,
        duration_ms=DURATION_MS, seed=seed, attribution=True,
    )


# -- the conservation property (catalog apps × emulators) ---------------------

@pytest.mark.parametrize("emulator", EMULATORS)
@pytest.mark.parametrize("app_name", APPS)
def test_budget_conserves_measured_latency(app_name, emulator):
    run = _attributed_run(app_name, emulator)
    if not run.result.ran:
        pytest.skip(f"{app_name} cannot run on {emulator}")
    budget = budget_from_snapshot(run.telemetry)
    assert budget is not None
    assert budget.frames, "an attributed run must attribute its frames"
    # The invariant: per frame, category × device cells sum to the
    # measured frame latency within float tolerance.
    assert budget.conservation_errors() == []
    for frame in budget.frames:
        assert frame.conservation_error() <= CONSERVATION_TOL
        for cell in frame.cells:
            assert cell.ms >= 0.0
            assert cell.category in BUDGET_CATEGORIES
    # Aggregate views are consistent with each other.
    totals = budget.totals()
    assert abs(sum(totals.values()) - budget.total_latency_ms()) \
        <= CONSERVATION_TOL * max(1, len(budget.frames))


def test_attribution_rides_the_snapshot_dict():
    run = _attributed_run("video", "vSoC")
    budget = budget_from_snapshot(run.telemetry)
    as_dict = run.telemetry.to_dict()
    assert "attribution" in as_dict
    revived = budget_from_snapshot(as_dict)
    assert revived == budget  # dict path reproduces the live object


# -- zero perturbation --------------------------------------------------------

def test_attribution_digest_is_bit_identical_on_and_off():
    from repro.experiments.runner import run_app
    from repro.scenario.runner import app_digest

    plain = run_app(_app("video"), "vSoC", duration_ms=DURATION_MS, seed=0)
    attributed = run_app(_app("video"), "vSoC",
                         duration_ms=DURATION_MS, seed=0, attribution=True)
    assert app_digest([plain.result]) == app_digest([attributed.result])
    assert repr(float(plain.result.fps)) == repr(float(attributed.result.fps))


def test_scenario_digest_is_bit_identical_with_attribution():
    from repro.scenario.runner import run_scenario

    doc = {
        "name": "attr-identity",
        "emulator": "vSoC",
        "machine": "high-end-desktop",
        "duration_ms": 1_500.0,
        "seed": 7,
        "apps": [{"name": "v", "pipeline": "video"}],
    }
    plain = run_scenario(doc)
    observed = run_scenario(doc, attribution=True)
    assert plain.digest == observed.digest
    assert observed.budget is not None
    assert observed.budget.frames
    assert observed.budget.conservation_errors() == []
    assert plain.budget is None


# -- analyzer mechanics -------------------------------------------------------

def _synthetic_spans():
    sim = Simulator()
    tracer = Tracer(sim)
    flow = tracer.new_flow()
    stage = tracer.begin("stage:decode", "codec", cat="stage", flow=flow)
    kick = tracer.begin("transport.kick", "transport", cat="transport", flow=flow)
    sim.now = 1.0  # advance the observed clock deterministically
    tracer.end(kick)
    execute = tracer.begin("exec:decode", "codec/exec", cat="exec", flow=flow)
    sim.now = 4.0
    tracer.end(execute)
    sim.now = 6.0
    tracer.end(stage)
    tracer.instant("frame.presented", "display", cat="frame", flow=flow,
                   sequence=0, latency=6.0)
    return SpanView(tracer)


def test_synthetic_frame_budget_and_critical_path():
    tracer = _synthetic_spans()
    budget = analyze_tracer(tracer)
    assert len(budget.frames) == 1
    frame = budget.frames[0]
    assert frame.latency_ms == 6.0
    by_category = frame.category_ms()
    # 1 ms bus kick, 3 ms device compute, 2 ms uncovered slack.
    assert by_category["bus_transfer"] == pytest.approx(1.0)
    assert by_category["device_compute"] == pytest.approx(3.0)
    assert by_category["sched_slack"] == pytest.approx(2.0)
    assert frame.conservation_error() <= CONSERVATION_TOL
    # Critical path: kick → exec → presented (stage containers excluded).
    names = [step.name for step in budget.critical_path]
    assert names == ["transport.kick", "exec:decode", "frame.presented"]
    # Steps never overlap and end at the present.
    for before, after in zip(budget.critical_path, budget.critical_path[1:]):
        assert before.end_ms <= after.start_ms
    assert budget.critical_path[-1].end_ms == frame.present_ms


def test_analyzer_is_deterministic():
    budgets = [analyze_tracer(_synthetic_spans()) for _ in range(2)]
    assert budgets[0] == budgets[1]
    real = [budget_from_snapshot(_attributed_run("ar", "vSoC").telemetry)
            for _ in range(2)]
    assert real[0] == real[1]


def test_budget_round_trips_through_json():
    budget = budget_from_snapshot(_attributed_run("video", "vSoC").telemetry)
    revived = LatencyBudget.from_dict(
        json.loads(json.dumps(budget.to_dict()))
    )
    assert revived == budget


# -- differential triage ------------------------------------------------------

def test_diff_budgets_localizes_the_regression():
    base = budget_from_snapshot(_attributed_run("ar", "vSoC").telemetry)
    cand = budget_from_snapshot(_attributed_run("ar", "QEMU-KVM").telemetry)
    diff = diff_budgets(base, cand, seed=0)
    assert diff["frames_matched"] > 0
    assert diff["dominant"] is not None
    assert diff["dominant"]["category"] in BUDGET_CATEGORIES
    assert 0.0 < diff["dominant"]["share"] <= 1.0
    assert diff["dominant"]["category"] in diff["headline"]
    assert f"on {diff['dominant']['device']}" in diff["headline"]
    # Seeded bootstrap: identical inputs triage identically.
    assert diff == diff_budgets(base, cand, seed=0)
    p = diff["bootstrap"]["p_value"]
    assert p is not None and 0.0 <= p <= 1.0


def test_diff_budgets_on_identical_runs_finds_nothing():
    base = budget_from_snapshot(_attributed_run("video", "vSoC").telemetry)
    diff = diff_budgets(base, base, seed=0)
    assert diff["frames_matched"] == len(base.frames)
    assert diff["dominant"] is None
    assert diff["latency"]["p99"]["delta_ms"] == 0.0


# -- SLO burn rate ------------------------------------------------------------

def test_slo_windowed_burn_math():
    spec = SloSpec(deadline_ms=10.0, target=0.9, window_frames=4)
    # Window 1: 2/4 miss (burn 5.0); window 2 (partial): 0/2 miss.
    report = evaluate_frames([5.0, 15.0, 12.0, 8.0, 9.0, 7.0], spec)
    assert report.frames == 6 and report.misses == 2
    assert report.burn_rates == pytest.approx((5.0, 0.0))
    assert report.peak_burn == pytest.approx(5.0)
    assert report.overall_burn == pytest.approx((2 / 6) / 0.1)
    assert not report.met
    assert evaluate_frames([1.0] * 8, spec).met


def test_slo_spec_validation():
    with pytest.raises(ValueError):
        SloSpec(target=1.0)
    with pytest.raises(ValueError):
        SloSpec(deadline_ms=0.0)
    with pytest.raises(ValueError):
        SloSpec(deadline_ms=float("nan"))
    with pytest.raises(ValueError):
        SloSpec(deadline_ms=float("inf"))


# -- the regression sentinel ---------------------------------------------------

def test_sentinel_skips_history_of_another_python_minor(tmp_path):
    from repro.experiments.bench import append_history, judge, load_history

    path = str(tmp_path / "history.jsonl")
    pair = "popular-vsoc/peak_rss_mb"
    bounds = {"peak_rss_mb": {"bound": 0.05, "better": "lower"}}

    def report(python, value):
        return {"host": {"python": python, "cpu_count": 2}, "runs": 5,
                "metrics": {pair: {"median": value}}}

    for _ in range(4):
        append_history(path, report("3.12.1", 50.0))
    alone = judge(report("3.11.7", 40.0), load_history(path), bounds)
    assert alone.python == "3.11"
    assert alone.skipped_other_python == 4
    assert alone.history_len == 0  # nothing comparable survives
    assert [v.status for v in alone.verdicts] == ["insufficient-history"]
    for _ in range(3):
        append_history(path, report("3.11.7", 40.0))
    mixed = judge(report("3.11.7", 42.5), load_history(path), bounds)
    assert mixed.skipped_other_python == 4
    assert mixed.history_len == 3
    # +6.25% over the 3.11 level; the 3.12 records would have read -15%.
    assert [v.status for v in mixed.regressions] == ["regression"]
    assert mixed.verdicts[0].baseline == 40.0
