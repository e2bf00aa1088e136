#!/usr/bin/env python3
"""Quickstart: build vSoC, run a camera→GPU data pipeline, watch prefetch work.

This walks the core loop of the paper in ~40 lines of user code:

1. build a run rig: a simulator, the §5.1 high-end desktop and a vSoC
   emulator on it (unified SVM + prefetch + fences);
2. allocate a shared-memory region and drive write→read cycles across two
   devices with a realistic slack interval between them;
3. print what the SVM framework did: prediction accuracy, coherence cost,
   and the access latency the guest actually observed.

Run:  python examples/quickstart.py
"""

from repro.experiments.runner import build_rig
from repro.sim import Timeout
from repro.units import MIB, UHD_FRAME_BYTES


def main() -> None:
    rig = build_rig("vSoC")
    sim, emulator = rig.sim, rig.emulator

    read_latencies = []

    def pipeline():
        # One SVM region, used as intermediate storage between the camera
        # (writes into host memory) and the GPU (reads into VRAM).
        region = emulator.svm_alloc(UHD_FRAME_BYTES)
        for frame in range(120):
            write = yield from emulator.stage(
                "camera", "deliver", UHD_FRAME_BYTES, writes=[region]
            )
            yield write.done  # the camera HAL callback
            yield Timeout(12.0)  # the slack interval (VSync pacing)
            read = yield from emulator.stage(
                "gpu", "render", UHD_FRAME_BYTES, reads=[region]
            )
            read_latencies.append(read.access_latency)
            yield read.done
        emulator.svm_free(region)

    sim.spawn(pipeline(), name="quickstart-pipeline")
    sim.run(until=5_000.0)

    stats = emulator.engine.stats
    coherence = emulator.trace.values("coherence.maintenance", "duration")
    print("vSoC quickstart — camera → GPU pipeline, 120 UHD frames")
    print(f"  prediction accuracy : {100 * stats.accuracy:.1f}% "
          f"({stats.hits}/{stats.predictions} predictions)")
    print(f"  prefetches launched : {stats.launched} "
          f"(cold starts: {stats.cold_starts})")
    print(f"  coherence cost      : {sum(coherence) / len(coherence):.2f} ms avg "
          f"(paper Table 2: 2.38 ms)")
    print(f"  read access latency : "
          f"first frame {read_latencies[0]:.2f} ms (cold miss), "
          f"steady state {sum(read_latencies[5:]) / len(read_latencies[5:]):.2f} ms")
    print(f"  framework overhead  : "
          f"{emulator.manager.memory_overhead_bytes() / MIB:.4f} MiB")


if __name__ == "__main__":
    main()
