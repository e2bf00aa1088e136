"""Tests for result export, density, and DOT rendering."""

import io
import json

import pytest

from repro.apps import UhdVideoApp
from repro.experiments import export
from repro.experiments.density import run_density, run_density_comparison
from repro.experiments.microbench import run_svm_microbench
from repro.experiments.runner import run_app
from repro.hw.machine import HIGH_END_DESKTOP


# --- export ----------------------------------------------------------------

def test_microbench_result_round_trips_through_json():
    result = run_svm_microbench("vSoC", HIGH_END_DESKTOP, duration_ms=3_000.0)
    stream = io.StringIO()
    export.dump_json(result, stream)
    data = json.loads(stream.getvalue())
    assert data["emulator"] == "vSoC"
    assert data["coherence_cost_ms"] == pytest.approx(result.coherence_cost_ms)


def test_appbench_export_shape():
    from repro.experiments.appbench import run_appbench

    result = run_appbench("vSoC", duration_ms=4_000.0, apps_per_category=1)
    data = export.appbench_to_dict(result)
    assert set(data["category_fps"]) == {
        "UHD Video", "360 Video", "Camera", "AR", "Livestream",
    }
    assert data["runnable"] == 5
    assert json.dumps(data)  # fully serializable


def test_measurement_export_contains_cdfs():
    from repro.experiments.measurement import run_measurement

    result = run_measurement("device-proxy", duration_ms=3_000.0,
                             apps_per_category=1)
    data = export.measurement_to_dict(result)
    assert data["region_size_cdf"]
    assert data["slack_cdf"]
    assert json.dumps(data)


def test_dump_json_to_path(tmp_path):
    result = run_svm_microbench("vSoC", HIGH_END_DESKTOP, duration_ms=2_000.0)
    path = tmp_path / "table2.json"
    export.dump_json(result, str(path))
    assert json.loads(path.read_text())["machine"] == "high-end-desktop"


def test_to_plain_handles_nested_structures():
    data = export.to_plain({"a": [1, (2.0, None)], "b": {"c": True}})
    assert data == {"a": [1, [2.0, None]], "b": {"c": True}}


# --- density ----------------------------------------------------------------------

def test_density_declines_with_instances():
    result = run_density("vSoC", instance_counts=(1, 2), duration_ms=5_000.0)
    assert result.fps_by_instances[1] > result.fps_by_instances[2]
    assert result.max_instances_at(50.0) == 1


def test_density_vsoc_at_least_matches_gae():
    results = run_density_comparison(("vSoC", "GAE"), instance_counts=(1, 2),
                                     duration_ms=5_000.0)
    for count in (1, 2):
        assert (results["vSoC"].fps_by_instances[count]
                >= results["GAE"].fps_by_instances[count])


# --- twin DOT export ------------------------------------------------------------

def test_twin_to_dot_renders_flows():
    run = run_app(UhdVideoApp(), "vSoC", duration_ms=3_000.0)
    dot = run.emulator.twin.to_dot()
    assert dot.startswith("digraph")
    assert '"virtual:codec"' in dot
    assert "virtual layer" in dot and "physical layer" in dot
    assert "->" in dot


def test_zero_shot_flag_controls_fallback():
    from repro.core.twin import TwinHypergraphs

    twin = TwinHypergraphs(["codec", "gpu"], ["host", "gpu"])
    twin.register_region(1)
    for _ in range(3):
        twin.on_write(1, "codec", "host", 100)
        twin.on_read(1, "gpu", "gpu", 10.0)
    twin.register_region(2)  # fresh region
    assert twin.predict_readers(2, "codec") is not None
    assert twin.predict_readers(2, "codec", allow_zero_shot=False) is None
