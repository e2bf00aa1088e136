#!/usr/bin/env python3
"""The prefetch engine's corner cases, exercised one by one (§3.3).

Four acts:

1. **Warm-up** — the first write of a new region has no history: no
   prefetch, the read pays a synchronous miss.
2. **Steady state** — predictions hit, copies hide under slack, reads cost
   only the page-map time.
3. **Short slack** — the pipeline tightens below the copy time; the driver
   starts *compensating* (Figure 8's time delta) so reads still don't block.
4. **Congestion** — external load drops the PCIe bandwidth under 50% of
   max; the engine suspends prefetching rather than waste the bus.

Run:  python examples/prefetch_anatomy.py
"""

import random

from repro.emulators import make_vsoc
from repro.hw import HIGH_END_DESKTOP, build_machine
from repro.sim import Simulator, Timeout
from repro.units import UHD_FRAME_BYTES


def run_phase(emulator, sim, region, cycles, slack):
    latencies, compensations = [], []

    def phase():
        for _ in range(cycles):
            write = yield from emulator.stage(
                "camera", "deliver", UHD_FRAME_BYTES, writes=[region]
            )
            compensations.append(write.compensation)
            yield write.done
            if slack > 0:
                yield Timeout(slack)
            read = yield from emulator.stage(
                "gpu", "render", UHD_FRAME_BYTES, reads=[region]
            )
            latencies.append(read.access_latency)
            yield read.done

    process = sim.spawn(phase(), name="phase")
    sim.run(until=sim.now + cycles * 80.0)
    assert not process.alive
    return latencies, compensations


def main() -> None:
    sim = Simulator()
    machine = build_machine(sim, HIGH_END_DESKTOP)
    emulator = make_vsoc(sim, machine, rng=random.Random(0))
    engine = emulator.engine
    region = emulator.svm_alloc(UHD_FRAME_BYTES)

    print("Act 1 — cold start (no flow history)")
    lats, _ = run_phase(emulator, sim, region, cycles=1, slack=12.0)
    print(f"  first read blocked {lats[0]:.2f} ms (synchronous miss); "
          f"cold starts: {engine.stats.cold_starts}")

    print("\nAct 2 — steady state (slack 12 ms > copy 2.4 ms)")
    lats, comps = run_phase(emulator, sim, region, cycles=20, slack=12.0)
    print(f"  read latency {sum(lats) / len(lats):.2f} ms avg; "
          f"compensation {sum(comps):.2f} ms total; "
          f"accuracy {100 * engine.stats.accuracy:.0f}%")

    print("\nAct 3 — tight pipeline (slack 0.5 ms < copy 2.4 ms)")
    lats, comps = run_phase(emulator, sim, region, cycles=20, slack=0.5)
    blocking = [c for c in comps if c > 0]
    print(f"  driver compensated on {len(blocking)}/20 writes "
          f"({sum(comps) / max(1, len(blocking)):.2f} ms each) — "
          f"reads still averaged {sum(lats) / len(lats):.2f} ms")

    print("\nAct 4 — bus congestion (PCIe at 40% of max bandwidth)")
    machine.pcie.set_load(0.6)
    run_phase(emulator, sim, region, cycles=10, slack=12.0)
    print(f"  bandwidth-rule skips: {engine.stats.bandwidth_skips} "
          f"(prefetch suspended instead of fighting the bus)")
    machine.pcie.set_load(0.0)

    stats = engine.stats
    compensated = emulator.trace.count("svm.compensation")  # one per blocking write
    print(f"\nTotals: {stats.launched} prefetches, {stats.predictions} "
          f"predictions, {stats.misses} misses, "
          f"{compensated} compensated writes.")


if __name__ == "__main__":
    main()
