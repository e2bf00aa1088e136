"""Google Android Emulator (GAE) model.

Architecture per §2.2: modular virtual devices, SVM coherence through
guest memory (two boundary crossings per maintenance), atomic ordering for
shared-resource operations.

Calibration (sources: §2.3 measurement + Table 2 + §5.3 observations):

* **video decode on the CPU** — §5.3 attributes GAE's laptop collapse to
  CPU thermal throttling of its video decoder, so the codec maps to
  software decode;
* ``extra_access_overhead_ms = 0.52`` — lifts average access latency to
  ≈0.76 ms (Table 2) over the 0.22 ms page-map floor;
* boundary bandwidth scale 1.0 — GAE *defines* the machine's calibrated
  boundary figure (7.05 ms per UHD-frame maintenance);
* mild render scale (its GPU translation layer is decent but not
  Trinity-class).
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


def gae_config() -> EmulatorConfig:
    """Google Android Emulator configuration (calibration in module docstring)."""
    return EmulatorConfig(
        name="GAE",
        ordering=OrderingMode.ATOMIC,
        hw_codec=False,  # software decoder (the §5.3 thermal story)
        has_camera=True,
        isp_on_gpu=True,  # GAE's YUVConverter is the in-GPU path vSoC reuses
        render_scale=1.15,
        decode_scale=1.0,
        extra_access_overhead_ms=0.52,
        coherence_bandwidth_scale=1.0,
    )


def make_gae(
    sim: Simulator,
    machine: HostMachine,
    trace: Optional[TraceLog] = None,
    rng: Optional[random.Random] = None,
    tracer: Tracer = NULL_TRACER,
) -> Emulator:
    """Build a Google Android Emulator model instance."""
    return Emulator(sim, machine, gae_config(), trace=trace, rng=rng, tracer=tracer)
