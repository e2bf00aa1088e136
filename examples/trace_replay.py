#!/usr/bin/env python3
"""Record once, replay everywhere: the §2.3 methodology as a tool.

Records the exact shared-memory access pattern a UHD video app produces on
vSoC, saves it to JSON, then replays that identical sequence against all
three instrumentable emulators, each event no earlier than its recorded
time. With the workload held constant, the remaining difference is purely
the memory architecture's coherence bill.

Run:  python examples/trace_replay.py
"""

import os
import tempfile

from repro.apps import UhdVideoApp
from repro.experiments.runner import run_app
from repro.workloads import WorkloadTrace, record_workload, replay_workload


def main() -> None:
    print("Recording: UHD video on vSoC, 8 simulated seconds ...")
    source = run_app(UhdVideoApp(), "vSoC", duration_ms=8_000.0)
    trace = record_workload(source.stats.trace, name="uhd-video-8s")
    print(f"  captured {len(trace.events)} events over {trace.regions} regions")

    path = os.path.join(tempfile.gettempdir(), "vsoc-uhd-trace.json")
    trace.dump(path)
    reloaded = WorkloadTrace.load(path)
    print(f"  saved + reloaded {path} ({os.path.getsize(path) // 1024} KiB)")

    print(f"\n{'Emulator':10s} {'maintenances':>13s} {'mean ms':>8s} "
          f"{'total ms':>9s} {'copied GiB':>11s}")
    print("-" * 58)
    for emulator in ("vSoC", "GAE", "QEMU-KVM"):
        result = replay_workload(reloaded, emulator)
        count = (result.total_coherence_ms / result.mean_coherence_ms
                 if result.mean_coherence_ms else 0)
        print(f"{emulator:10s} {count:13.0f} {result.mean_coherence_ms:8.2f} "
              f"{result.total_coherence_ms:9.1f} {result.bytes_copied / 2**30:11.2f}")

    print("\nSame accesses, different architectures: the guest-memory "
          "emulators pay ~3x per coherence maintenance (Table 2's ratio), "
          "with no app-side feedback muddying the comparison.")


if __name__ == "__main__":
    main()
