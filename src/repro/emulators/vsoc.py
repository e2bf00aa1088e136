"""vSoC: the paper's emulator (§3, §4).

Unified SVM framework, prefetch coherence protocol, virtual command
fences, MIMD flow control. Hardware decode/encode run on the GPU's codec
engines (libavcodec + interop in the real system), ISP conversion runs
in-GPU (the YUVConverter path), and the virtual display is a GPU-managed
host window.

The two §5.4 ablation switches are exposed directly:

* ``prefetch=False`` swaps in the classic write-invalidate protocol over
  the same unified copy paths (Figure 12 / Figure 16);
* ``fences=False`` falls back to atomic shared-resource operations
  (Figure 12's fence ablation).
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


def vsoc_config(prefetch: bool = True, fences: bool = True) -> EmulatorConfig:
    """vSoC's configuration; all efficiency scales are 1.0 (the reference).

    With ``prefetch=False``, SVM-touching stages additionally become
    atomic: §5.4 — "coherence maintenance needs synchronous guest-host
    execution, and thus virtual command fences cannot be used (other
    usages of the fences are not touched)".
    """
    return EmulatorConfig(
        name="vSoC",
        unified_svm=True,
        prefetch_enabled=prefetch,
        ordering=OrderingMode.FENCES if fences else OrderingMode.ATOMIC,
        atomic_svm_stages=not prefetch,
        hw_decode=True,
        hw_encode=True,
        has_camera=True,
        isp_on_gpu=True,
    )


def make_vsoc(
    sim: Simulator,
    machine: HostMachine,
    trace: Optional[TraceLog] = None,
    rng: Optional[random.Random] = None,
    prefetch: bool = True,
    fences: bool = True,
    broadcast: bool = False,
    tracer: Tracer = NULL_TRACER,
) -> Emulator:
    """Build a vSoC instance; ablation flags mirror §5.4.

    ``broadcast=True`` swaps in the §7-related-work broadcast protocol on
    the same unified framework — reads never block, but every write is
    pushed to every location (the bandwidth overhead the paper rejects).
    """
    config = vsoc_config(prefetch=prefetch and not broadcast, fences=fences)
    if broadcast:
        config.prefetch_enabled = False
        config.broadcast_coherence = True
        config.atomic_svm_stages = False
        config.name = "vSoC(broadcast)"
    elif not (prefetch and fences):
        suffix = []
        if not prefetch:
            suffix.append("no-prefetch")
        if not fences:
            suffix.append("no-fence")
        config.name = "vSoC(" + ",".join(suffix) + ")"
    return Emulator(sim, machine, config, trace=trace, rng=rng, tracer=tracer)
