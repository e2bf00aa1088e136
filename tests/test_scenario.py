"""Scenario compiler + fuzzer acceptance tests (ISSUE 9).

Covers the tentpole contract end to end: schema validation with precise
error paths, bit-identity of compiled catalog scenarios against the
hand-written apps, document round-trips (dict → compile → re-serialize →
compile), FaultPlan serialization properties under the fuzzer's raw
sampler, shrinker convergence on an injected invariant violation, and
the fuzz CLI (campaign + reproducer replay).
"""

import json

import pytest

from repro.errors import ConfigurationError, InvariantViolation
from repro.experiments.runner import run_app
from repro.faults.plan import FaultPlan
from repro.scenario import (
    canonical_json,
    compile_scenario,
    load_reproducer,
    run_fuzz,
    run_scenario,
    sample_scenario,
    scenario_digest,
    scenario_document,
    scenario_point,
    shrink_scenario,
    validate_scenario,
)
from repro.scenario.fuzz import sample_fault_plan_dict
from repro.scenario.runner import app_digest


def minimal_doc(**overrides):
    doc = {
        "name": "t",
        "emulator": "vSoC",
        "duration_ms": 2_000.0,
        "apps": [{"name": "a", "pipeline": "ar"}],
    }
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# Schema validation: precise error paths
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d.pop("emulator"), "missing required key 'emulator'"),
    (lambda d: d.update(emulator="NotAnEmulator"), "scenario.emulator"),
    (lambda d: d.update(duration_ms=-1.0), "scenario.duration_ms"),
    (lambda d: d.update(apps=[]), "scenario.apps"),
    (lambda d: d["apps"][0].update(pipeline="nope"), "apps[0].pipeline"),
    (lambda d: d["apps"][0].update(buffers=0),
     "apps[0].buffers"),
    (lambda d: d.update(environment={"bus_load": [
        {"time_ms": 1.0, "bus": "warp", "load": 0.1}]}),
     "environment.bus_load[0].bus"),
    (lambda d: d.update(environment={"faults": {"stalls": [
        {"time_ms": 1.0, "device": "gpu", "duration_ms": -5.0}]}}),
     "environment.faults"),
    (lambda d: d.update(audit={"interval_ms": 0.0}), "audit.interval_ms"),
])
def test_validation_error_paths(mutate, fragment):
    doc = minimal_doc()
    if fragment == "apps[0].buffers":
        doc["apps"][0]["pipeline"] = "video"
    mutate(doc)
    with pytest.raises(ConfigurationError) as err:
        validate_scenario(doc)
    assert fragment in str(err.value)


def test_duplicate_app_names_rejected():
    doc = minimal_doc(apps=[{"name": "a", "pipeline": "ar"},
                            {"name": "a", "pipeline": "video"}])
    with pytest.raises(ConfigurationError, match="apps\\[1\\].name"):
        validate_scenario(doc)


def test_graph_stage_op_must_match_device():
    doc = minimal_doc(apps=[{
        "name": "g", "pipeline": "graph",
        "stages": [{"device": "gpu", "op": "track", "bytes": 1024}],
    }])
    with pytest.raises(ConfigurationError, match="stages\\[0\\].op"):
        validate_scenario(doc)


def test_validate_returns_normalized_copy():
    doc = {"name": "t", "emulator": "vSoC",
           "apps": [{"name": "a", "pipeline": "ar"}]}
    out = validate_scenario(doc)
    assert out["machine"] == "high-end-desktop"
    assert out["duration_ms"] > 0
    assert "machine" not in doc  # the input is never mutated
    assert scenario_digest(doc) == scenario_digest(out)


# ---------------------------------------------------------------------------
# Compiler: bit-identity with the hand-written catalog apps
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("path, factory_path", [
    ("scenarios/ar.json", "repro.apps.ar:ArApp"),
    ("scenarios/video.json", "repro.apps.video:UhdVideoApp"),
])
def test_catalog_scenarios_bit_identical(path, factory_path):
    import importlib

    module_name, _, class_name = factory_path.partition(":")
    factory = getattr(importlib.import_module(module_name), class_name)
    doc = json.load(open(path))
    result = run_scenario(doc, duration_ms=3_500.0)
    reference = run_app(factory(), "vSoC", duration_ms=3_500.0, seed=0).result
    assert result.digest == app_digest([reference])
    assert result.apps[0].fps == reference.fps
    assert result.apps[0].presented == reference.presented


def test_roundtrip_document_compiles_to_identical_digest():
    doc = json.load(open("scenarios/mixed-chaos.json"))
    compiled = compile_scenario(doc)
    rebuilt = scenario_document(compiled)
    first = run_scenario(compiled, duration_ms=2_500.0)
    second = run_scenario(rebuilt, duration_ms=2_500.0)
    assert first.digest == second.digest
    # And the re-serialized document is a fixpoint.
    again = scenario_document(compile_scenario(rebuilt))
    assert canonical_json(again) == canonical_json(rebuilt)


def test_mixed_chaos_scenario_recovers():
    doc = json.load(open("scenarios/mixed-chaos.json"))
    result = run_scenario(doc, strict_audit=True)
    assert result.crashes == 1
    assert result.recoveries == 1
    assert all(app.ran for app in result.apps)


#: Run digests of the committed scenarios: a change that moves one changed
#: what that scenario simulates.
COMMITTED_SCENARIO_DIGESTS = {
    "ar": "6b919de8bdebad8e88c108b5d044405b433b31910a9ac0fbbded48cd09084f33",
    "video": "9cc6050605aa65f25262d7a46614e695da77ff3b08fd1f819b753e7409b0be16",
    "mixed-chaos": "19d9f48db1d491ab9771ecb57c1f447d3720d87159bcb8cac56a5db1b7dae9f4",
    "video-codec-crash": "91b602d6a415c48ed543bcd7f9ffb38bf3b4a5e6c09c270c48e93912b5ee8804",
}


@pytest.mark.parametrize("name", sorted(COMMITTED_SCENARIO_DIGESTS))
def test_committed_scenario_digests_are_pinned(name):
    doc = json.load(open(f"scenarios/{name}.json"))
    outcome = scenario_point(canonical_json(doc))
    assert outcome["status"] == "ok", outcome
    assert outcome["digest"] == COMMITTED_SCENARIO_DIGESTS[name]


# ---------------------------------------------------------------------------
# FaultPlan serialization properties
# ---------------------------------------------------------------------------

def test_raw_plan_documents_validate_or_raise_configuration_error():
    valid = 0
    for seed in range(150):
        doc = sample_fault_plan_dict(seed)
        try:
            plan = FaultPlan.from_dict(doc)
        except ConfigurationError:
            continue
        valid += 1
        # A plan that loaded must round-trip losslessly.
        assert FaultPlan.from_dict(plan.to_dict()).to_dict() == plan.to_dict()
    assert valid > 0  # the sampler does produce some valid plans


def test_plan_roundtrip_behavior_identical_under_injector():
    from repro.experiments.chaos import default_chaos_plan, run_chaos

    plan = default_chaos_plan().crash_device(4_000.0, "codec",
                                             downtime_ms=300.0)
    rebuilt = FaultPlan.from_dict(plan.to_dict())
    first = run_chaos(plan=plan, duration_ms=5_000.0, seed=3)
    second = run_chaos(plan=rebuilt, duration_ms=5_000.0, seed=3)
    assert first.fps == second.fps
    assert first.presented == second.presented
    assert first.injected == second.injected
    assert (first.crashes, first.recoveries) == (second.crashes,
                                                 second.recoveries)


# ---------------------------------------------------------------------------
# Fuzzer: sampling, campaign, shrinking, replay
# ---------------------------------------------------------------------------

def test_sampled_scenarios_are_valid_and_deterministic():
    for seed in range(20):
        doc = sample_scenario(seed, quick=True)
        assert validate_scenario(doc) == doc
        assert canonical_json(sample_scenario(seed, quick=True)) == \
            canonical_json(doc)


def test_fuzz_campaign_runs_clean(tmp_path):
    report = run_fuzz(max_samples=8, seed=0, out_dir=str(tmp_path),
                      quick=True, jobs=1)
    assert report["samples"] == 8
    assert report["findings"] == []
    assert report["ok"] == 8


BROKEN = {
    "name": "broken", "emulator": "vSoC", "duration_ms": 2_500.0,
    "apps": [{"name": "a", "pipeline": "ar"},
             {"name": "b", "pipeline": "video", "buffers": 6}],
    "environment": {"bus_load": [
        {"time_ms": 500.0, "bus": "pcie", "load": 0.2}]},
    # Test-injected violation: no real fence resolves in a microsecond.
    "audit": {"fence_wait_deadline_ms": 0.001},
}


def test_strict_audit_raises_on_injected_violation():
    with pytest.raises(InvariantViolation) as err:
        run_scenario(BROKEN, strict_audit=True)
    assert err.value.invariant == "fence-liveness"
    outcome = scenario_point(canonical_json(validate_scenario(BROKEN)))
    assert outcome["status"] == "violation"
    assert outcome["invariant"] == "fence-liveness"
    assert outcome["scenario_sha256"] == scenario_digest(BROKEN)


def test_shrinker_converges_to_minimal_same_violation_reproducer():
    doc = validate_scenario(BROKEN)

    def still_fails(candidate):
        probe = scenario_point(canonical_json(candidate))
        return (probe["status"], probe.get("invariant")) == \
            ("violation", "fence-liveness")

    shrunk, checks = shrink_scenario(doc, still_fails, max_checks=120)
    assert checks <= 120
    # The reproducer still triggers the same invariant...
    probe = scenario_point(canonical_json(shrunk))
    assert (probe["status"], probe["invariant"]) == \
        ("violation", "fence-liveness")
    # ...and is strictly smaller: one app, no environment, and the
    # injected audit knob is the only audit setting left.
    assert len(shrunk["apps"]) == 1
    assert "environment" not in shrunk
    assert shrunk["audit"] == {"fence_wait_deadline_ms": 0.001}


def test_fuzz_finds_shrinks_and_replays_injected_violation(tmp_path):
    report = run_fuzz(documents=[BROKEN], out_dir=str(tmp_path), jobs=1,
                      max_shrink_checks=120)
    assert len(report["findings"]) == 1
    finding = report["findings"][0]
    assert finding["outcome"]["invariant"] == "fence-liveness"
    # The reproducer file replays to the same violation.
    doc, stored = load_reproducer(finding["reproducer"])
    assert stored["invariant"] == "fence-liveness"
    assert scenario_digest(doc) == finding["scenario_sha256"]
    probe = scenario_point(canonical_json(doc))
    assert (probe["status"], probe["invariant"]) == \
        ("violation", "fence-liveness")


def test_fuzz_cli_campaign_and_replay(tmp_path, capsys):
    from repro.experiments.__main__ import main

    # A bounded clean campaign exits 0.
    rc = main(["fuzz", "--max-samples", "3", "--seed", "11", "--quick",
               "--no-cache", "--fuzz-dir", str(tmp_path / "out")])
    assert rc == 0
    # Replaying an injected-violation reproducer exits 1 and prints a
    # REPRODUCE line carrying the scenario sha256.
    broken_path = tmp_path / "broken.json"
    broken_path.write_text(json.dumps(BROKEN))
    rc = main(["fuzz", "--replay", str(broken_path), "--no-cache",
               "--fuzz-dir", str(tmp_path / "out2")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "fence-liveness" in out
    assert "REPRODUCE: python -m repro.experiments fuzz --replay" in out
    assert scenario_digest(BROKEN)[:12] in out


# ---------------------------------------------------------------------------
# CLI strict-audit plumbing
# ---------------------------------------------------------------------------

def test_run_chaos_strict_audit_clean_baseline():
    from repro.experiments.chaos import run_chaos

    result = run_chaos(plan=FaultPlan(), duration_ms=2_000.0,
                       strict_audit=True)
    assert result.audit_violations == 0
    assert result.presented > 0


def test_recover_reproduce_line_convention():
    from repro.experiments.recover import _recover_reproduce_line

    line = _recover_reproduce_line(quick=True, seed=4, strict_audit=True)
    assert line == ("REPRODUCE: python -m repro.experiments recover "
                    "--seed 4 --quick --strict-audit")

