"""One measurement in a fresh interpreter; ``perf/run.py`` starts it.

    python3 perf/child.py pass|setup|trace WORKLOAD SEED [--limit N] [--sim-ms MS]

``pass`` runs every point once through ``execute_spec`` and times each
call. ``setup`` times the child from its first statement to the first
``Simulator.run`` entry, then stops. ``trace`` runs the points untraced
and then under cProfile, and charges self time to layers. Each mode
prints one JSON object as its last line of output.

Every point starts from a collected heap, so neither its time nor its
memory depends on the garbage the previous point left behind.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

PERF_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(PERF_DIR.parent / "src"))

import workloads  # noqa: E402


def _import_repro() -> None:
    """The imports every child makes before it times a point."""
    import repro.experiments.engine  # noqa: F401
    import repro.experiments.explain  # noqa: F401
    import repro.experiments.runner  # noqa: F401
    import repro.obs  # noqa: F401
    import repro.obs.critical  # noqa: F401


def build_specs(workload: str, seed: int, limit=None, sim_ms=None):
    from dataclasses import replace

    specs = workloads.WORKLOADS[workload](seed)[:limit]
    if sim_ms is not None:
        specs = [replace(spec, duration_ms=sim_ms) for spec in specs]
    return specs


def _point(spec, result, stats, budget) -> dict:
    row = {
        "point": workloads.point_label(spec),
        "ran": result.ran,
        "presented": result.presented,
        "sim_s": spec.duration_ms / 1000.0 if result.ran else 0.0,
        "digest": workloads.digest(result, stats, budget),
        "error": None,
    }
    if budget is not None:
        row["conserved"] = not budget.conservation_errors()
    return row


def _failed(spec, err: BaseException) -> dict:
    return {
        "point": workloads.point_label(spec), "ran": False, "presented": 0,
        "sim_s": 0.0, "digest": None, "error": f"{type(err).__name__}: {err}",
    }


def reference_loop(events: int = 10_000) -> None:
    """A fixed stdlib-only event loop: generators, a heap and a dict.

    It shares no code with ``src/repro``, so its speed tracks only the
    host's. ``run.py`` scales wall times by it to cancel host drift.
    """
    import heapq

    def proc(k):
        tick, seen = 0, {}
        while True:
            tick += 1
            seen[tick & 15] = k
            yield (k * 7 + tick) % 13 + 1

    gens = [proc(k) for k in range(16)]
    heap = [(0, k, k) for k in range(16)]
    for seq in range(16, 16 + events):
        now, _, k = heapq.heappop(heap)
        heapq.heappush(heap, (now + next(gens[k]), seq, k))


def reference_s(repeats: int = 3) -> float:
    """Fastest of ``repeats`` timed reference loops.

    The collector is off meanwhile, so the time does not depend on what
    ``src/repro`` left on the heap.
    """
    best = float("inf")
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            reference_loop()
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best


def run_point(spec):
    """One point through the engine's worker body, plus its budget.

    Every mode runs points through this function, so the timed, the set-up
    and the traced runs execute the same code.
    """
    from repro.experiments.engine import execute_spec

    out = execute_spec(spec)
    return out, workloads.budget_of(spec, out.telemetry)


def run_pass(specs) -> dict:
    """Every point once, each timed after a collection.

    The reference loop runs right before and right after each point; the
    point's ``ref_s`` is the mean of the two.
    """
    import resource

    points = []
    for spec in specs:
        gc.collect()
        before = reference_s()
        start = time.perf_counter()
        try:
            out, budget = run_point(spec)
        except Exception as err:  # a failing point is counted, not fatal
            points.append(_failed(spec, err))
            continue
        wall = time.perf_counter() - start
        row = _point(spec, out.result, out.stats, budget)
        row["wall_s"] = wall
        row["ref_s"] = (before + reference_s()) / 2
        points.append(row)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"points": points, "maxrss_kb": rss_kb}


class _SetupDone(Exception):
    pass


def run_setup(workload: str, seed: int) -> dict:
    """Time imports and the first point's construction, then stop."""
    _import_repro()
    imported = time.perf_counter()
    from repro.sim import Simulator

    entered = []

    def stop(self, *args, **kwargs):
        entered.append(time.perf_counter())
        raise _SetupDone

    Simulator.run = stop
    for spec in build_specs(workload, seed):
        try:
            run_point(spec)
        except _SetupDone:
            break
    if not entered:
        raise RuntimeError(f"no point of {workload!r} reached Simulator.run")
    return {
        "import_s": imported - T0,
        "construct_s": entered[0] - imported,
        "setup_s": entered[0] - T0,
        "ref_s": reference_s(),
    }


def _record_vsoc(built: list) -> None:
    """Make ``run_app`` append every vSoC emulator it builds to ``built``.

    ``execute_spec`` returns no emulator; this is how the traced run reads
    the prefetch engine's statistics.
    """
    from repro.emulators import EMULATOR_FACTORIES

    make = EMULATOR_FACTORIES["vSoC"]

    def recording(*args, **kwargs):
        built.append(make(*args, **kwargs))
        return built[-1]

    EMULATOR_FACTORIES["vSoC"] = recording


def _sim_counts(out, vsoc, counts: dict) -> None:
    """Add one point's simulated statistics to ``counts``.

    ``out`` is the point's ``RunResult``; ``vsoc`` its vSoC emulator, or
    None on another emulator.
    """
    counts["frames"] += out.result.presented
    counts["dropped"] += sum(out.result.dropped.values())
    if out.stats is None:
        return
    accesses = out.stats.access_latency_samples
    copies = out.stats.coherence_samples
    counts["accesses"] += len(accesses)
    counts["access_ms"] += sum(accesses)
    counts["copies"] += len(copies)
    counts["copy_ms"] += sum(copies)
    if vsoc is not None and vsoc.engine is not None:
        counts["prefetch_launched"] += vsoc.engine.stats.launched
        counts["prefetch_wasted"] += vsoc.engine.stats.wasted_prefetches


def run_trace(specs, pstats_path=None) -> dict:
    """Untraced, then cProfiled :func:`run_point` over the points."""
    import cProfile
    import pstats

    from layers import attribute

    built: list = []
    _record_vsoc(built)
    untraced = 0.0
    for spec in specs:
        gc.collect()
        start = time.perf_counter()
        run_point(spec)
        untraced += time.perf_counter() - start

    profile = cProfile.Profile()
    counts = dict.fromkeys(
        ("frames", "dropped", "accesses", "access_ms", "copies", "copy_ms",
         "prefetch_launched", "prefetch_wasted"), 0)
    points = []
    traced = 0.0
    for spec in specs:
        gc.collect()
        built.clear()
        start = time.perf_counter()
        out, budget = profile.runcall(run_point, spec)
        traced += time.perf_counter() - start
        points.append(_point(spec, out.result, out.stats, budget))
        _sim_counts(out, built[-1] if built else None, counts)
    profile.create_stats()
    if pstats_path is not None:
        profile.dump_stats(pstats_path)
    self_s, calls, counted = attribute(pstats.Stats(profile).stats)
    return {
        "points": points,
        "untraced_s": untraced,
        "traced_s": traced,
        "self_s": self_s,
        "calls": calls,
        "counted": counted,
        "counts": counts,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("pass", "setup", "trace"))
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("--limit", type=int, default=None,
                        help="run only the first N points")
    parser.add_argument("--sim-ms", type=float, default=None,
                        help="override every point's simulated duration")
    parser.add_argument("--pstats", default=None,
                        help="trace mode: write the raw profile here")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        out = run_setup(args.workload, args.seed)
    else:
        _import_repro()
        specs = build_specs(args.workload, args.seed, args.limit, args.sim_ms)
        if args.mode == "pass":
            out = run_pass(specs)
        else:
            out = run_trace(specs, args.pstats)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
