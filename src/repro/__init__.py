"""Reproduction of "vSoC: Efficient Virtual System-on-Chip on Heterogeneous
Hardware" (Qiu et al., SOSP 2024).

Package map:

* :mod:`repro.sim` — deterministic discrete-event kernel (substrate).
* :mod:`repro.hw` — host machines: devices, buses, memory, thermal.
* :mod:`repro.guest` — mobile-OS substrate: shared-memory HAL, BufferQueue,
  VSync, virtio transport, system services.
* :mod:`repro.core` — the paper's contribution: SVM manager, twin
  hypergraphs, prefetch engine, coherence protocols, virtual command
  fences, MIMD flow control.
* :mod:`repro.emulators` — vSoC and the five comparison emulators.
* :mod:`repro.apps` — the Table-1 emerging apps, popular apps, heavy-3D
  games, short-form video.
* :mod:`repro.metrics` — FPS / latency / SVM statistics and trace analysis.
* :mod:`repro.workloads` — SVM trace record/replay.
* :mod:`repro.experiments` — one module per table and figure, plus the
  extension experiments; CLI via ``python -m repro.experiments``.

Quick start::

    from repro.experiments.runner import build_rig

    rig = build_rig("vSoC")  # simulator, host machine, trace log, emulator
    sim, emulator = rig.sim, rig.emulator

See README.md for the full tour and DESIGN.md for the system inventory.
"""

__version__ = "1.0.0"
__paper__ = (
    "vSoC: Efficient Virtual System-on-Chip on Heterogeneous Hardware, "
    "SOSP 2024, doi:10.1145/3694715.3695946"
)
