"""Tests for the density experiment and the twin's zero-shot fallback."""

from repro.experiments.density import run_density_comparison


# --- density ----------------------------------------------------------------------

def test_density_declines_with_instances():
    result = run_density_comparison(("vSoC",), (1, 2), duration_ms=5_000.0)["vSoC"]
    # One instance holds 50 FPS; two sharing the host fall below it.
    assert result.fps_by_instances[1] >= 50.0 > result.fps_by_instances[2]


def test_density_vsoc_at_least_matches_gae():
    results = run_density_comparison(("vSoC", "GAE"), instance_counts=(1, 2),
                                     duration_ms=5_000.0)
    for count in (1, 2):
        assert (results["vSoC"].fps_by_instances[count]
                >= results["GAE"].fps_by_instances[count])


# --- twin ----------------------------------------------------------------------

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
