"""Units and conversion helpers used throughout the reproduction.

The simulation time base is the **millisecond**, stored as a ``float``.
Every quantity in the vSoC paper is quoted in milliseconds (slack intervals,
coherence cost, access latency, frame deadlines), so using ms as the base
unit keeps model parameters and reported numbers directly comparable to the
paper without mental conversion.

Sizes are plain byte counts (``int``). Bandwidths are stored in
bytes-per-millisecond internally; the :func:`gb_per_s` helper converts the
familiar GB/s figure used in datasheets and in Table 2 of the paper.
"""

from __future__ import annotations

# --- time ---------------------------------------------------------------
#: One microsecond, in simulation time units (milliseconds).
US = 1e-3
#: One millisecond — the simulation base unit.
MS = 1.0
#: One second.
SECOND = 1000.0

# --- sizes --------------------------------------------------------------
KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

#: Size of one memory page, the paper's fence-table budget (§4).
PAGE_SIZE = 4 * KIB

# --- paper-defined buffer sizes (§2.3, Figure 4) --------------------------
#: Full-HD+ display buffer: 2400 x 1080 x 4 bytes = 9.9 MiB.
DISPLAY_BUFFER_BYTES = 2400 * 1080 * 4
#: UHD video frame in a packed YUV format: 3840 x 2160 x 2 bytes = 15.8 MiB.
UHD_FRAME_BYTES = 3840 * 2160 * 2
#: UHD display buffer used in the §5 evaluation (3840x2160 RGBA).
UHD_DISPLAY_BUFFER_BYTES = 3840 * 2160 * 4

# --- frame timing ---------------------------------------------------------
#: Target frame rate of every workload in the paper's evaluation.
TARGET_FPS = 60
#: Frame period at 60 FPS: the 16.7 ms budget quoted in §2.4.
VSYNC_PERIOD_MS = SECOND / TARGET_FPS


def gb_per_s(gigabytes_per_second: float) -> float:
    """Convert a GB/s bandwidth figure into bytes per millisecond.

    >>> round(gb_per_s(1.0))
    1000000
    """
    return gigabytes_per_second * 1e9 / SECOND


def to_gb_per_s(bytes_per_ms: float) -> float:
    """Convert internal bytes/ms back into GB/s for reporting."""
    return bytes_per_ms * SECOND / 1e9
