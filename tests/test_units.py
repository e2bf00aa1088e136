"""Unit tests for units and conversions (repro.units)."""

import pytest

from repro import units


def test_time_constants():
    assert units.MS == 1.0
    assert units.SECOND == 1000.0
    assert units.US == pytest.approx(0.001)


def test_paper_buffer_sizes():
    """Fig 4's callouts: 9.9 MiB display buffers, 15.8 MiB UHD frames."""
    assert units.DISPLAY_BUFFER_BYTES / units.MIB == pytest.approx(9.9, abs=0.05)
    assert units.UHD_FRAME_BYTES / units.MIB == pytest.approx(15.8, abs=0.05)
    assert units.UHD_DISPLAY_BUFFER_BYTES == 2 * units.UHD_FRAME_BYTES


def test_vsync_budget():
    """§2.4: only 16.7 ms per frame at 60 FPS."""
    assert units.VSYNC_PERIOD_MS == pytest.approx(16.667, abs=0.01)


def test_bandwidth_roundtrip():
    bw = units.gb_per_s(7.0)
    assert units.to_gb_per_s(bw) == pytest.approx(7.0)


def test_transfer_time():
    # 15.8 MiB at 7 GB/s ≈ 2.37 ms — the Table 2 coherence figure.
    t = units.UHD_FRAME_BYTES / units.gb_per_s(7.0)
    assert t == pytest.approx(2.37, abs=0.02)


def test_page_size():
    assert units.PAGE_SIZE == 4096
