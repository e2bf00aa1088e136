"""Tests for the experiment harness (repro.experiments)."""

from repro.apps.catalog import EMERGING_CATEGORIES
from repro.experiments.appbench import run_fig10
from repro.experiments.breakdown import run_fig12, run_fig16
from repro.experiments.measurement import prevalent_sizes, run_measurement
from repro.experiments.microbench import run_svm_microbench
from repro.experiments.popular import pairwise_improvement, run_fig15
from repro.experiments.report import fmt, format_cdf_summary, format_table
from repro.experiments.runner import run_app
from repro.apps import UhdVideoApp
from repro.hw.machine import HIGH_END_DESKTOP
from repro.units import UHD_FRAME_BYTES

QUICK = dict(duration_ms=5_000.0, apps_per_category=1)


def test_runner_returns_stats():
    run = run_app(UhdVideoApp(), "vSoC", duration_ms=5_000.0)
    assert run.result.ran
    assert run.stats is not None
    assert run.stats.access_latency_samples


def test_microbench_coherence_ordering():
    results = {
        name: run_svm_microbench(name, HIGH_END_DESKTOP, duration_ms=5_000.0)
        for name in ("vSoC", "GAE", "QEMU-KVM")
    }
    # Table 2's orderings: vSoC < QEMU < GAE on coherence cost;
    # QEMU < vSoC < GAE on access latency.
    assert (results["vSoC"].coherence_cost_ms
            < results["QEMU-KVM"].coherence_cost_ms
            < results["GAE"].coherence_cost_ms)
    assert (results["QEMU-KVM"].access_latency_ms
            < results["vSoC"].access_latency_ms
            < results["GAE"].access_latency_ms)


def test_measurement_finds_uhd_frame_spike():
    result = run_measurement("device-proxy", duration_ms=5_000.0,
                             apps_per_category=1)
    assert UHD_FRAME_BYTES in prevalent_sizes(result, top=3)
    assert result.size_cdf() and result.slack_cdf()
    assert result.api_calls_per_second > 50.0  # paper: 261-323 per app


def test_measurement_section23_observations():
    """The §2.3 prose: hardware services dominate SVM use, regions serve
    1-2 accessors (99%), and pipeline regions cycle W/R (96%)."""
    result = run_measurement("device-proxy", duration_ms=5_000.0,
                             apps_per_category=2)
    shares = result.access_share_by_service()
    hardware = (shares.get("media service", 0) + shares.get("SurfaceFlinger", 0)
                + shares.get("camera service", 0))
    assert hardware > 0.6  # paper: 28+23+19 = 70%
    assert result.few_accessor_fraction() > 0.9  # paper: 99%
    assert result.cyclic_fraction is not None
    assert result.cyclic_fraction > 0.75  # paper: 96%


def test_fig10_quick_shape():
    results = run_fig10(HIGH_END_DESKTOP, emulators=("vSoC", "GAE"), **QUICK)
    assert results["vSoC"].mean_fps > results["GAE"].mean_fps
    assert set(results["vSoC"].category_fps) == set(EMERGING_CATEGORIES)
    assert results["vSoC"].runnable == 5  # one app per category, all compatible
    # §5.3's pairwise ratio over the apps both can run: vSoC/GAE > 1.3.
    assert pairwise_improvement(results, "GAE") > 30.0


def test_fig12_prefetch_hurts_video_most():
    result = run_fig12(duration_ms=5_000.0, apps_per_category=1)
    video = result.category_fps["UHD Video"]
    camera = result.category_fps["Camera"]
    video_drop = 1.0 - video["no-prefetch"] / video["vSoC"]
    camera_drop = 1.0 - camera["no-prefetch"] / camera["vSoC"]
    assert video_drop > camera_drop  # paper: video -66%, average -30%


def test_fig16_write_invalidate_tail():
    off = run_fig16(duration_ms=6_000.0, prefetch=False)
    on = run_fig16(duration_ms=6_000.0, prefetch=True)
    assert off.maximum > 10.0  # paper: up to 40.54 ms
    assert on.mean < off.mean


def test_fig15_runnable_counts():
    results = run_fig15(duration_ms=4_000.0, emulators=("vSoC", "QEMU-KVM"))
    assert results["vSoC"].runnable == 25
    assert results["QEMU-KVM"].runnable == 17
    assert pairwise_improvement(results, "QEMU-KVM") > 0


# --- report formatting ---------------------------------------------------------

def test_format_table_alignment():
    table = format_table(["A", "Bee"], [["1", "2"], ["333", "4"]])
    lines = table.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("A")
    assert "333" in lines[3]


def test_fmt_handles_none():
    assert fmt(None) == "--"
    assert fmt(1.2345, 2) == "1.23"


def test_cdf_summary():
    points = [(float(i), (i + 1) / 10) for i in range(10)]
    text = format_cdf_summary(points, "demo")
    assert "n=10" in text and "p50=" in text
    assert format_cdf_summary([], "empty") == "empty: (no samples)"
