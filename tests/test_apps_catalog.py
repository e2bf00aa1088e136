"""Tests for workloads and the compatibility catalog (repro.apps)."""

from repro.apps import (
    ArApp,
    CameraApp,
    LivestreamApp,
    UhdVideoApp,
    Video360App,
    can_run,
    emerging_apps,
)
from repro.apps.catalog import (
    EMERGING_CATEGORIES,
    EMERGING_INCOMPATIBLE,
    POPULAR_INCOMPATIBLE,
    build_app,
    popular_app_params,
)
from repro.units import UHD_FRAME_BYTES


def test_catalog_has_fifty_emerging_apps():
    apps = emerging_apps()
    assert len(apps) == 50
    for category in EMERGING_CATEGORIES:
        assert sum(1 for a in apps if a.category == category) == 10


def test_catalog_names_unique():
    names = ([a.name for a in emerging_apps()]
             + [kwargs["name"] for _factory, kwargs in popular_app_params()])
    assert len(names) == len(set(names))


def test_catalog_is_deterministic():
    first = [(a.name, a.category) for a in emerging_apps(seed=7)]
    second = [(a.name, a.category) for a in emerging_apps(seed=7)]
    assert first == second


def test_catalog_returns_fresh_instances():
    a = emerging_apps()[0]
    b = emerging_apps()[0]
    assert a is not b  # collectors must not be shared between runs


def test_popular_catalog_has_25_apps():
    assert len(popular_app_params()) == 25


def test_heavy_3d_catalog():
    """The popular mix ends in six heavy games, pop-20 ... pop-25."""
    apps = [build_app(p) for p in popular_app_params()]
    games = [a for a in apps if a.category == "Heavy3D"]
    assert [g.name for g in games] == [f"pop-{i}" for i in range(20, 26)]


def test_emerging_runnable_counts_match_paper():
    """§5.3: vSoC/GAE/QEMU/LD/BS run 48/47/42/43/44 of 50; Trinity runs
    20 (it structurally lacks camera + encoder, so Camera/AR/Livestream
    are excluded by capability, not by this table)."""
    apps = emerging_apps()
    expected = {"vSoC": 48, "GAE": 47, "QEMU-KVM": 42, "LDPlayer": 43, "Bluestacks": 44}
    for emulator, count in expected.items():
        runnable = sum(1 for a in apps if can_run(a.name, emulator))
        assert runnable == count, emulator
    # Trinity's table lists no extra failures; capability gates do the rest.
    trinity_capable = [
        a for a in apps
        if a.category in ("UHD Video", "360 Video") and can_run(a.name, "Trinity")
    ]
    assert len(trinity_capable) == 20


def test_popular_runnable_counts_match_paper():
    """§5.5: 25/21/17/25/24/24 of the top-25 popular apps."""
    names = [kwargs["name"] for _factory, kwargs in popular_app_params()]
    expected = {"vSoC": 25, "GAE": 21, "QEMU-KVM": 17,
                "LDPlayer": 25, "Bluestacks": 24, "Trinity": 24}
    for emulator, count in expected.items():
        runnable = sum(1 for name in names if can_run(name, emulator))
        assert runnable == count, emulator


def test_incompatible_names_exist_in_catalog():
    emerging_names = {a.name for a in emerging_apps()}
    for names in EMERGING_INCOMPATIBLE.values():
        assert set(names) <= emerging_names
    popular_names = {kwargs["name"] for _factory, kwargs in popular_app_params()}
    for names in POPULAR_INCOMPATIBLE.values():
        assert set(names) <= popular_names


def test_video_apps_use_uhd_frames():
    """Fig 4's 15.8 MiB spike: video buffers are UHD frames."""
    for app in emerging_apps():
        if app.category == "UHD Video":
            assert app.frame_bytes == UHD_FRAME_BYTES


def test_360_apps_render_heavier_than_flat_video():
    flat = UhdVideoApp()
    sphere = Video360App()
    assert sphere.projection_extra_bytes() > flat.projection_extra_bytes()


def test_latency_measurement_flags():
    """§5.3: latency only measured on AR, camera, and livestream apps."""
    assert not UhdVideoApp.measures_latency
    assert not Video360App.measures_latency
    assert CameraApp.measures_latency
    assert ArApp.measures_latency
    assert LivestreamApp.measures_latency
