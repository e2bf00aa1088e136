"""QEMU-KVM model.

Plain QEMU with KVM acceleration: software codec and ISP, a paravirtual
GPU (virgl-style) that renders markedly slower than a native stack, and
guest-memory SVM.

Calibration (Table 2 + §5.3):

* access latency is the page-map floor (0.22 ms — lowest of the three,
  "since its SVM is based on guest memory and only involves page mapping
  costs");
* coherence is *faster* than GAE's (6.15 vs 7.05 ms): its virtio path is
  leaner, hence ``coherence_bandwidth_scale = 7.05/6.15 ≈ 1.146``;
* ``render_scale = 2.2`` — the virgl translation overhead that keeps its
  app FPS well below GAE's despite cheaper coherence.
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


def qemu_kvm_config() -> EmulatorConfig:
    """QEMU-KVM configuration (calibration in module docstring)."""
    return EmulatorConfig(
        name="QEMU-KVM",
        ordering=OrderingMode.ATOMIC,
        hw_codec=False,
        has_camera=True,
        isp_on_gpu=False,  # libswscale on the CPU
        render_scale=2.2,
        decode_scale=1.45,
        extra_access_overhead_ms=0.0,
        coherence_bandwidth_scale=7.05 / 6.15,
    )


def make_qemu_kvm(
    sim: Simulator,
    machine: HostMachine,
    trace: Optional[TraceLog] = None,
    rng: Optional[random.Random] = None,
    tracer: Tracer = NULL_TRACER,
) -> Emulator:
    """Build a QEMU-KVM model instance."""
    return Emulator(sim, machine, qemu_kvm_config(), trace=trace, rng=rng, tracer=tracer)
