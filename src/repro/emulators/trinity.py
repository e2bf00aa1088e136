"""Trinity (OSDI '22) model — the substrate vSoC is built upon.

Trinity minimizes GPU virtualization overhead through graphics projection,
so its render path is essentially native speed. Everything else is
inherited from Android-x86: a slow software codec, no camera, and no video
encoders (§5.3: "Trinity does not support cameras or video encoders"; its
UHD-video FPS is poor "because Trinity only has a software virtual codec
device inherited from Android-x86").

Calibration:

* ``render_scale = 0.95`` — marginally better than vSoC's GPU path on pure
  rendering (vSoC improves heavy-3D apps by only ~1%, §5.3);
* ``decode_scale = 2.0`` — the Android-x86 software decoder is roughly
  half the speed of a tuned libavcodec software path;
* guest-memory SVM with atomic ordering (modular architecture).
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.ordering import OrderingMode
from repro.emulators.base import Emulator, EmulatorConfig
from repro.hw.machine import HostMachine
from repro.obs.span import NULL_TRACER, Tracer
from repro.sim import Simulator
from repro.sim.tracing import TraceLog


def trinity_config() -> EmulatorConfig:
    """Trinity configuration (calibration in module docstring)."""
    return EmulatorConfig(
        name="Trinity",
        ordering=OrderingMode.ATOMIC,
        hw_codec=False,
        can_encode=False,
        has_camera=False,
        isp_on_gpu=True,
        render_scale=0.95,
        # The Android-x86 software codec: no threading tuning, mandatory
        # CPU colorspace conversion, extra copies — several times slower
        # than a tuned libavcodec software path.
        decode_scale=4.5,
        extra_access_overhead_ms=0.25,
        coherence_bandwidth_scale=1.0,
    )


def make_trinity(
    sim: Simulator,
    machine: HostMachine,
    trace: Optional[TraceLog] = None,
    rng: Optional[random.Random] = None,
    tracer: Tracer = NULL_TRACER,
) -> Emulator:
    """Build a Trinity model instance."""
    return Emulator(sim, machine, trinity_config(), trace=trace, rng=rng, tracer=tracer)
