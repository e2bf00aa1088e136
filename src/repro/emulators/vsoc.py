"""vSoC: the paper's emulator (§3, §4).

Unified SVM framework, prefetch coherence protocol, virtual command
fences, MIMD flow control. Hardware decode/encode run on the GPU's codec
engines (libavcodec + interop in the real system), ISP conversion runs
in-GPU (the YUVConverter path), and the virtual display is a GPU-managed
host window.

The §5.4 ablation switches and the §7 broadcast protocol are flags of
:func:`vsoc_config` (and :func:`make_vsoc`), which picks the coherence
protocol class and names the configuration after every flag it changes.
All three protocols share the unified framework's read side and direct
copy paths (:mod:`repro.core.coherence`):

* ``prefetch=False`` swaps in :class:`~repro.core.coherence.UnifiedWriteInvalidate`,
  the classic write-invalidate protocol over the same unified copy paths
  (Figure 12 / Figure 16); its SVM stages are atomic even under fences;
* ``fences=False`` falls back to atomic shared-resource operations
  (Figure 12's fence ablation), named ``no-fence``;
* ``broadcast=True`` swaps in :class:`~repro.core.coherence.UnifiedBroadcast`
  in place of the prefetch protocol, so it refuses ``prefetch=False``.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.coherence import (
    UnifiedBroadcast,
    UnifiedPrefetchProtocol,
    UnifiedWriteInvalidate,
)
from repro.core.ordering import OrderingMode
from repro.emulators.base import Emulator, EmulatorConfig
from repro.errors import ConfigurationError
from repro.hw.machine import HostMachine
from repro.obs.span import NULL_TRACER, Tracer
from repro.sim import Simulator
from repro.sim.tracing import TraceLog


def vsoc_config(
    prefetch: bool = True, fences: bool = True, broadcast: bool = False
) -> EmulatorConfig:
    """vSoC's configuration; all efficiency scales are 1.0 (the reference).

    With ``prefetch=False``, SVM-touching stages additionally become
    atomic: §5.4 — "coherence maintenance needs synchronous guest-host
    execution, and thus virtual command fences cannot be used (other
    usages of the fences are not touched)". ``broadcast=True`` swaps in
    the §7-related-work broadcast protocol on the same unified framework
    in place of the prefetch protocol; reads never block, but every write
    is pushed to every location (the bandwidth overhead the paper
    rejects). It replaces the prefetch protocol, so ``prefetch=False``
    with it raises :class:`ConfigurationError`.
    """
    if broadcast:
        if not prefetch:
            raise ConfigurationError(
                "broadcast=True replaces the prefetch protocol; "
                "prefetch=False would be ignored"
            )
        coherence, changed = UnifiedBroadcast, ["broadcast"]
    elif prefetch:
        coherence, changed = UnifiedPrefetchProtocol, []
    else:
        coherence, changed = UnifiedWriteInvalidate, ["no-prefetch"]
    if not fences:
        changed.append("no-fence")
    name = f"vSoC({','.join(changed)})" if changed else "vSoC"
    return EmulatorConfig(
        name=name,
        coherence=coherence,
        ordering=OrderingMode.FENCES if fences else OrderingMode.ATOMIC,
        hw_codec=True,
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
    """Build a vSoC instance; the flags are :func:`vsoc_config`'s (§5.4, §7)."""
    config = vsoc_config(prefetch=prefetch, fences=fences, broadcast=broadcast)
    return Emulator(sim, machine, config, trace=trace, rng=rng, tracer=tracer)
