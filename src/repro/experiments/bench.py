"""Benchmarks of the experiment engine itself → ``BENCH_engine.json``.

Three measurements, from the inside out:

* **Kernel** — the optimized simulation kernel versus a frozen
  pre-optimization copy (:mod:`repro.experiments._baseline_kernel`), both
  driven by an identical synthetic stress workload (timer-heavy processes,
  event waits, cancelled timers, process churn, trace records — the same
  mix a real app run produces). The workloads assert identical event
  counts before timing is trusted.
* **Single run** — wall-clock of one representative app point
  (UHD video on vSoC) through :func:`~repro.experiments.engine.execute_spec`.
* **Suite** — a small emulator×app sweep run three ways: cold serial, cold
  parallel (``--jobs``), and warm (same cache as the parallel run). Reports
  the parallel speedup, the execution mode (``inline`` vs ``pool``), the
  warm-rerun cache hit rate, and whether parallel results were
  bit-identical to serial.

Usage::

    python -m repro.experiments bench --jobs 4 [--quick] [--out PATH]
    python -m repro.experiments bench --check [--history PATH] [--tolerance F]

``validate_bench_schema`` is the single source of truth for the JSON's
shape; CI calls it against the generated artifact. Every run appends its
headline metrics to ``BENCH_history.jsonl``; ``--check`` gates the run on
the history's EWMA baselines (see :mod:`repro.obs.baseline`).
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

from repro.experiments.engine import (
    RunCache,
    default_jobs,
    execute_spec,
    run_many,
    specs_for_apps,
)

#: Schema identifier written into (and required from) every bench JSON.
#: v2 added ``kernel.scales`` and ``suites.*.parallel_mode``; v3 dropped
#: ``kernel.scales`` again, so ``kernel`` is the stress A/B alone.
BENCH_SCHEMA = "repro-bench-engine-v3"


# ---------------------------------------------------------------------------
# Kernel stress workload (runs on both the live and the frozen kernel)
# ---------------------------------------------------------------------------

def kernel_stress(ns: Any, workers: int = 32, duration_ms: float = 2_000.0) -> int:
    """Drive one kernel namespace with the synthetic hot-path mix.

    ``ns`` is any module-like object exposing ``Simulator``, ``Timeout``,
    ``SimEvent`` and ``TraceLog`` with the kernel API. Returns the number
    of trace records produced — identical across kernels by construction,
    which the benchmark asserts before trusting the timing.
    """
    sim = ns.Simulator()
    trace = ns.TraceLog()
    record = trace.record
    Timeout = ns.Timeout
    SimEvent = ns.SimEvent

    def child(i: int):
        yield Timeout(0.05)
        record(sim.now, "bench.child", worker=i)
        return i

    def pacer(i: int):
        period = 0.8 + (i % 7) * 0.21
        tick = 0
        while True:
            yield Timeout(period)
            tick += 1
            record(sim.now, "bench.tick", worker=i, tick=tick)
            if tick % 8 == 0:
                # A timer that never fires: exercises cancel + lazy deletion.
                call = sim.schedule(period * 2.0, record, sim.now, "bench.never")
                call.cancel()
            if tick % 16 == 0:
                # One-shot event fired by a scheduled callback.
                event = SimEvent(sim, name=f"ev-{i}-{tick}")
                sim.schedule(0.2, event.fire, tick)
                value = yield event
                record(sim.now, "bench.event", worker=i, value=value)
            if tick % 32 == 0:
                # Short-lived child process, joined on: process churn.
                value = yield sim.spawn(child(i), name=f"child-{i}-{tick}")
                record(sim.now, "bench.joined", worker=i, value=value)

    for i in range(workers):
        sim.spawn(pacer(i), name=f"pacer-{i}")
    sim.run(until=duration_ms)
    return trace.recorded_total


def bench_kernel(workers: int = 32, duration_ms: float = 2_000.0,
                 repeats: int = 3) -> Dict[str, Any]:
    """Best-of-N timing of the frozen baseline vs the live kernel."""
    from types import SimpleNamespace

    import repro.experiments._baseline_kernel as baseline_ns
    from repro.sim.kernel import Simulator
    from repro.sim.primitives import SimEvent, Timeout
    from repro.sim.tracing import TraceLog

    live_ns = SimpleNamespace(
        Simulator=Simulator, Timeout=Timeout, SimEvent=SimEvent, TraceLog=TraceLog
    )
    import gc

    counts: Dict[str, int] = {}
    timings = {"baseline": float("inf"), "optimized": float("inf")}
    # Interleave repeats so slow host-level drift hits both kernels equally,
    # and keep the collector out of the timed sections.
    for _ in range(repeats):
        for label, ns in (("baseline", baseline_ns), ("optimized", live_ns)):
            gc.collect()
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                t0 = time.perf_counter()
                counts[label] = kernel_stress(ns, workers, duration_ms)
                timings[label] = min(timings[label], time.perf_counter() - t0)
            finally:
                if gc_was_enabled:
                    gc.enable()
    if counts["baseline"] != counts["optimized"]:
        raise RuntimeError(
            f"kernel stress diverged: baseline produced {counts['baseline']} "
            f"records, optimized {counts['optimized']} — timing not comparable"
        )
    return {
        "workers": workers,
        "duration_ms": duration_ms,
        "events": counts["optimized"],
        "baseline_s": round(timings["baseline"], 4),
        "optimized_s": round(timings["optimized"], 4),
        "speedup": round(timings["baseline"] / timings["optimized"], 3),
    }


# ---------------------------------------------------------------------------
# Engine benchmarks
# ---------------------------------------------------------------------------

def _suite_specs(duration_ms: float, per_category: int, emulators) -> List[Any]:
    from repro.apps.catalog import emerging_app_params

    params = emerging_app_params(seed=0, per_category=per_category)
    specs: List[Any] = []
    for name in emulators:
        specs.extend(specs_for_apps(params, name, duration_ms=duration_ms))
    return specs


def bench_single_run(duration_ms: float = 8_000.0) -> Dict[str, Any]:
    """Wall-clock of one representative uncached app point."""
    from repro.experiments.engine import RunSpec

    spec = RunSpec(
        app_factory="repro.apps.video:UhdVideoApp",
        app_kwargs={},
        emulator="vSoC",
        duration_ms=duration_ms,
    )
    t0 = time.perf_counter()
    run = execute_spec(spec)
    wall = time.perf_counter() - t0
    return {
        "app": run.result.app,
        "emulator": "vSoC",
        "duration_ms": duration_ms,
        "wall_s": round(wall, 4),
        "fps": round(run.result.fps, 2),
    }


def bench_suite(jobs: int, duration_ms: float = 4_000.0, per_category: int = 1,
                emulators=("vSoC", "GAE", "QEMU-KVM"),
                warm: bool = True) -> Dict[str, Any]:
    """Cold-serial vs cold-parallel vs warm-rerun over one sweep."""
    specs = _suite_specs(duration_ms, per_category, emulators)
    tmp = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        serial_cache = RunCache(os.path.join(tmp, "serial"))
        parallel_cache = RunCache(os.path.join(tmp, "parallel"))

        serial = run_many(specs, jobs=1, cache=serial_cache)
        parallel = run_many(specs, jobs=jobs, cache=parallel_cache)
        identical = serial.results == parallel.results

        suite: Dict[str, Any] = {
            "specs": len(specs),
            # "jobs" is what the sweep *got*; requested vs effective make an
            # oversubscribed host visible (a 1-CPU runner asked for --jobs 4
            # used to report a meaningless 0.3x "speedup").
            "jobs": parallel.effective_jobs,
            "jobs_requested": jobs,
            "jobs_effective": parallel.effective_jobs,
            # How the "parallel" leg actually executed. On a 1-CPU host the
            # engine never spins a pool up, so parallel_speedup there is
            # inline-vs-inline noise (~1.0x), not pool overhead.
            "parallel_mode": parallel.parallel_mode,
            "serial_s": round(serial.wall_s, 4),
            "parallel_s": round(parallel.wall_s, 4),
            "parallel_speedup": round(serial.wall_s / parallel.wall_s, 3)
            if parallel.wall_s > 0 else None,
            "parallel_identical": identical,
            "warm_s": None,
            "warm_cache_hit_rate": None,
        }
        if warm:
            rerun = run_many(specs, jobs=jobs, cache=parallel_cache)
            suite["warm_s"] = round(rerun.wall_s, 4)
            suite["warm_cache_hit_rate"] = round(rerun.hit_rate, 4)
            suite["warm_identical"] = rerun.results == serial.results
        return suite
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_bench(jobs: Optional[int] = None, quick: bool = False,
              warm: bool = True) -> Dict[str, Any]:
    """All three benchmarks → the BENCH_engine.json payload."""
    if jobs is None:
        jobs = default_jobs()
    duration = 2_000.0 if quick else 4_000.0
    report = {
        "schema": BENCH_SCHEMA,
        "host": {
            "cpu_count": os.cpu_count(),
            "available_cpus": default_jobs(),
            "python": platform.python_version(),
            "platform": sys.platform,
        },
        # The kernel stress keeps its full duration even under --quick:
        # sub-second workloads are dominated by noise and report junk ratios.
        "kernel": bench_kernel(),
        "single_run": bench_single_run(duration_ms=4_000.0 if quick else 8_000.0),
        "suites": {
            "emerging": bench_suite(jobs=jobs, duration_ms=duration, warm=warm),
        },
    }
    return report


def validate_bench_schema(data: Any) -> List[str]:
    """Schema check for a bench report; returns the list of problems."""
    problems: List[str] = []

    def need(mapping, key, types, where):
        if not isinstance(mapping, dict) or key not in mapping:
            problems.append(f"{where}: missing {key!r}")
            return None
        value = mapping[key]
        if not isinstance(value, types):
            problems.append(f"{where}.{key}: expected {types}, got {type(value).__name__}")
            return None
        return value

    if need(data, "schema", str, "root") != BENCH_SCHEMA:
        problems.append(f"root.schema: expected {BENCH_SCHEMA!r}")
    host = need(data, "host", dict, "root")
    if host is not None:
        need(host, "cpu_count", int, "host")
        need(host, "python", str, "host")
    kernel = need(data, "kernel", dict, "root")
    if kernel is not None:
        for key in ("baseline_s", "optimized_s", "speedup"):
            value = need(kernel, key, (int, float), "kernel")
            if value is not None and value <= 0:
                problems.append(f"kernel.{key}: must be positive, got {value}")
        need(kernel, "events", int, "kernel")
    single = need(data, "single_run", dict, "root")
    if single is not None:
        need(single, "wall_s", (int, float), "single_run")
    suites = need(data, "suites", dict, "root")
    if isinstance(suites, dict):
        if not suites:
            problems.append("suites: must contain at least one suite")
        for name, suite in suites.items():
            where = f"suites.{name}"
            need(suite, "specs", int, where)
            need(suite, "jobs", int, where)
            requested = need(suite, "jobs_requested", int, where)
            effective = need(suite, "jobs_effective", int, where)
            if isinstance(requested, int) and isinstance(effective, int):
                if effective < 1:
                    problems.append(f"{where}.jobs_effective: must be >= 1")
                if effective > max(requested, 1):
                    problems.append(f"{where}.jobs_effective: {effective} "
                                    f"exceeds requested {requested}")
            mode = need(suite, "parallel_mode", str, where)
            if mode is not None and mode not in ("inline", "pool"):
                problems.append(
                    f"{where}.parallel_mode: expected 'inline' or 'pool', "
                    f"got {mode!r}"
                )
            need(suite, "serial_s", (int, float), where)
            need(suite, "parallel_s", (int, float), where)
            identical = need(suite, "parallel_identical", bool, where)
            if identical is False:
                problems.append(f"{where}.parallel_identical: parallel results "
                                "diverged from serial")
            rate = suite.get("warm_cache_hit_rate") if isinstance(suite, dict) else None
            if rate is not None and not (
                isinstance(rate, (int, float)) and 0.0 <= rate <= 1.0
            ):
                problems.append(f"{where}.warm_cache_hit_rate: not in [0, 1]")
    return problems


def cmd_bench(jobs: Optional[int] = None, out_path: str = "BENCH_engine.json",
              quick: bool = False, cache: bool = True,
              check: bool = False, history_path: Optional[str] = None,
              tolerance: Optional[float] = None) -> int:
    """CLI entry point: run the benchmarks, print and write the report.

    With ``check``, the report is judged against the EWMA baselines of the
    recorded history *before* being appended to it; a regression verdict
    turns into a nonzero exit code (the CI gate). Without ``check`` the run
    is still appended, so the history grows either way.
    """
    from repro.obs.baseline import (
        DEFAULT_HISTORY_PATH,
        DEFAULT_TOLERANCE,
        RegressionSentinel,
    )

    report = run_bench(jobs=jobs, quick=quick, warm=cache)
    problems = validate_bench_schema(report)
    kernel = report["kernel"]
    suite = report["suites"]["emerging"]
    print(f"Kernel: baseline {kernel['baseline_s']:.3f}s -> optimized "
          f"{kernel['optimized_s']:.3f}s ({kernel['speedup']:.2f}x, "
          f"{kernel['events']} events)")
    print(f"Single run: {report['single_run']['wall_s']:.3f}s "
          f"({report['single_run']['app']} on vSoC, "
          f"{report['single_run']['duration_ms']:.0f} sim-ms)")
    print(f"Suite ({suite['specs']} specs): serial {suite['serial_s']:.2f}s, "
          f"parallel x{suite['jobs_effective']} "
          f"(requested {suite['jobs_requested']}, "
          f"mode {suite['parallel_mode']}) {suite['parallel_s']:.2f}s "
          f"(speedup {suite['parallel_speedup']}), "
          f"identical={suite['parallel_identical']}")
    if suite["warm_cache_hit_rate"] is not None:
        print(f"Warm rerun: {suite['warm_s']:.3f}s, "
              f"cache hit rate {100 * suite['warm_cache_hit_rate']:.0f}%")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"Wrote {out_path}")

    sentinel = RegressionSentinel(
        path=history_path or DEFAULT_HISTORY_PATH,
        tolerance=tolerance if tolerance is not None else DEFAULT_TOLERANCE,
    )
    verdict = sentinel.check(report)
    sentinel.append(report, note="quick" if quick else None)
    print(f"Sentinel ({verdict.history_len} prior runs, "
          f"tolerance ±{100 * sentinel.tolerance:.0f}%):")
    if verdict.skipped_mismatched:
        print(f"  skipped {verdict.skipped_mismatched} history entr"
              f"{'y' if verdict.skipped_mismatched == 1 else 'ies'} recorded "
              f"under a different parallel_mode "
              f"(current: {verdict.parallel_mode})")
    for v in verdict.verdicts:
        print(f"  {v.describe()}")
    if not verdict.ok:
        print(f"REGRESSION: {len(verdict.regressions)} metric(s) beyond "
              "tolerance" + ("" if check else " (advisory; rerun with --check "
                             "to gate on this)"))

    if problems:
        for problem in problems:
            print(f"SCHEMA PROBLEM: {problem}")
        return 1
    if check and not verdict.ok:
        return 2
    return 0
