"""CLI: regenerate any table or figure of the paper.

Usage::

    python -m repro.experiments table2
    python -m repro.experiments fig10 [--quick] [--jobs 4]
    python -m repro.experiments all --quick --jobs 4
    python -m repro.experiments bench --jobs 4 [--check]
    python -m repro.experiments observe --app ar --export trace.json \
        --metrics metrics.json
    python -m repro.experiments dashboard --out report.html
    python -m repro.experiments recover [--quick] [--report audit.json] \
        [--strict-audit]
    python -m repro.experiments chaos [--seed 0] [--fault-class device-crash] \
        [--strict-audit]
    python -m repro.experiments fuzz [--max-samples 50] [--seed 0] \
        [--fuzz-dir fuzz-reproducers] [--replay repro.json]
    python -m repro.experiments fleetserve [--quick] [--seed 0] \
        [--out fleet.html] [--report fleet.json] [--live out/]
    python -m repro.experiments flightdeck --events out/events.jsonl \
        [--out flightdeck.html]
    python -m repro.experiments explain --app ar --emulator vsoc \
        [--against qemu_kvm] [--out attribution.json] [--deadline 50]

Each command prints the regenerated rows/series next to the paper's
reference values. ``--quick`` shortens simulated durations and app counts
(same shapes, coarser numbers). ``--jobs N`` fans the engine-backed sweeps
over N worker processes and ``--no-cache`` disables the on-disk run cache
(both apply to every command). ``observe`` runs one app with the
observability stack enabled and exports a Perfetto-compatible trace plus
a metrics/self-profile JSON; ``bench`` measures the engine itself, writes
``BENCH_engine.json``, appends to ``BENCH_history.jsonl`` and — with
``--check`` — gates on the history's EWMA baselines; ``dashboard`` sweeps
the telemetry grid and renders a self-contained HTML report (all three are
excluded from ``all``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict

from repro.experiments import appbench, breakdown, measurement, microbench, popular
from repro.experiments.report import (
    PAPER_FIG10_IMPROVEMENT,
    PAPER_FIG15_IMPROVEMENT,
    PAPER_RUNNABLE_EMERGING,
    PAPER_RUNNABLE_POPULAR,
    PAPER_TABLE2,
    fmt,
    format_cdf_summary,
    format_sizes_mib,
    format_table,
)
from repro.hw.machine import HIGH_END_DESKTOP, MIDDLE_END_LAPTOP
from repro.units import MIB


def _durations(quick: bool):
    if quick:
        return dict(duration_ms=8_000.0, apps_per_category=3)
    return dict(duration_ms=22_000.0, apps_per_category=10)


def cmd_table2(quick: bool) -> None:
    duration = 8_000.0 if quick else 15_000.0
    table = microbench.run_table2(duration_ms=duration)
    rows = []
    for emu, machines in table.items():
        for machine, r in machines.items():
            paper = PAPER_TABLE2[(emu, machine)]
            rows.append([
                emu, machine,
                f"{r.access_latency_ms:.2f} ({paper[0]})",
                f"{r.coherence_cost_ms:.2f} ({paper[1]})",
                f"{r.throughput_gbps:.2f} ({paper[2]})",
                fmt(r.prediction_accuracy and r.prediction_accuracy * 100, 1),
            ])
    print("Table 2 — SVM performance, measured (paper):")
    print(format_table(
        ["Emulator", "Machine", "AccessLat ms", "Coherence ms", "Thru GB/s", "PredAcc %"],
        rows,
    ))
    vsoc = table["vSoC"]["high-end-desktop"]
    print(f"\nPrediction std errors (paper: slack 0.9 ms, prefetch 0.3 ms): "
          f"slack={fmt(vsoc.slack_std_error_ms)} ms, "
          f"prefetch={fmt(vsoc.prefetch_std_error_ms, 4)} ms")
    print(f"Framework memory overhead (paper: <=3.1 MiB): "
          f"{vsoc.framework_overhead_bytes / MIB:.3f} MiB")


def cmd_fig4(quick: bool) -> None:
    kw = _durations(quick)
    results = measurement.run_fig4(**kw)
    print("Figure 4 — shared memory sizes (paper spikes: 9.9 MiB and 15.8 MiB):")
    for platform, r in results.items():
        sizes = measurement.prevalent_sizes(r)
        big = sum(1 for s in r.region_sizes if s > MIB) / max(1, len(r.region_sizes))
        print(f"  {platform:14s} prevalent: {format_sizes_mib(sizes)}; "
              f">1 MiB: {100 * big:.0f}% (paper: 49%)")
        print("    " + format_cdf_summary(
            [(s / MIB, p) for s, p in r.size_cdf()], "size MiB CDF"))
    proxy = results["device-proxy"]
    shares = sorted(proxy.access_share_by_service().items(), key=lambda kv: -kv[1])
    print("\n§2.3 observations (device-proxy):")
    print("  top shared-memory users (paper: media 28%, SurfaceFlinger 23%, "
          "camera 19%):")
    for service, share in shares:
        print(f"    {service:16s} {100 * share:4.0f}%")
    print(f"  regions serving <=2 accessors: "
          f"{100 * proxy.few_accessor_fraction():.0f}% (paper: 99%)")
    if proxy.cyclic_fraction is not None:
        print(f"  cyclic W/R pattern in pipeline regions: "
              f"{100 * proxy.cyclic_fraction:.0f}% (paper: 96%)")
    print(f"  shared-memory API call rate: {proxy.api_calls_per_second:.0f}/s "
          f"per app incl. end_access (paper: 261-323 begin/s)")


def cmd_fig5(quick: bool) -> None:
    kw = _durations(quick)
    results = measurement.run_fig5(**kw)
    print("Figure 5 — coherence durations (paper avg: GAE 7.1 ms, QEMU 6.2 ms):")
    for platform, r in results.items():
        print(f"  {platform:10s} mean={fmt(r.mean_coherence)} ms")
        print("    " + format_cdf_summary(r.coherence_cdf(), "coherence ms CDF"))


def cmd_fig6(quick: bool) -> None:
    kw = _durations(quick)
    results = measurement.run_fig6(**kw)
    print("Figure 6 — slack intervals (paper avg 17.2 ms; >30 ms tail from buffering):")
    for platform, r in results.items():
        print(f"  {platform:14s} mean={fmt(r.mean_slack)} ms")
        print("    " + format_cdf_summary(r.slack_cdf(), "slack ms CDF"))


def _print_appbench(results: Dict[str, appbench.AppBenchResult], paper_label: str) -> None:
    categories = list(next(iter(results.values())).category_fps)
    rows = []
    for name, r in results.items():
        rows.append([
            name,
            *(fmt(r.category_fps.get(c), 1) for c in categories),
            fmt(r.mean_fps, 1),
            str(r.runnable),
        ])
    print(format_table(["Emulator", *categories, "Mean", "Runnable"], rows))
    print(f"\nvSoC mean-FPS improvement over each (paper {paper_label}):")
    vsoc_mean = results["vSoC"].mean_fps
    for name, r in results.items():
        if name == "vSoC" or r.mean_fps <= 0:
            continue
        paper = PAPER_FIG10_IMPROVEMENT.get(name)
        print(f"  {name:12s} +{100 * (vsoc_mean / r.mean_fps - 1):5.0f}% "
              f"(paper: +{paper}%)" if paper else f"  {name}: n/a")
    print("\nRunnable counts (paper:",
          ", ".join(f"{k}={v}" for k, v in PAPER_RUNNABLE_EMERGING.items()) + ")")


def cmd_fig10(quick: bool) -> None:
    kw = _durations(quick)
    print("Figure 10 — FPS on the high-end PC:")
    results = appbench.run_fig10(HIGH_END_DESKTOP, **kw)
    _print_appbench(results, "§5.3 high-end")
    _print_latency(results, "Figure 13 — motion-to-photon latency (high-end)")


def cmd_fig11(quick: bool) -> None:
    kw = _durations(quick)
    if not quick:
        kw["duration_ms"] = 90_000.0  # let thermal throttling develop
    print("Figure 11 — FPS on the middle-end laptop (thermal effects active):")
    results = appbench.run_fig10(MIDDLE_END_LAPTOP, **kw)
    _print_appbench(results, "§5.3 middle-end")
    _print_latency(results, "Figure 14 — motion-to-photon latency (middle-end)")


def _print_latency(results: Dict[str, appbench.AppBenchResult], title: str) -> None:
    print(f"\n{title}:")
    rows = []
    for name, r in results.items():
        if not r.category_latency:
            continue
        rows.append([
            name,
            *(fmt(r.category_latency.get(c), 0) for c in appbench.LATENCY_CATEGORIES),
            fmt(r.mean_latency, 0),
        ])
    print(format_table(["Emulator", *appbench.LATENCY_CATEGORIES, "Mean ms"], rows))


def cmd_fig13(quick: bool) -> None:
    kw = _durations(quick)
    results = appbench.run_fig10(HIGH_END_DESKTOP, **kw)
    _print_latency(results, "Figure 13 — motion-to-photon latency (high-end)")


def cmd_fig14(quick: bool) -> None:
    kw = _durations(quick)
    results = appbench.run_fig10(MIDDLE_END_LAPTOP, **kw)
    _print_latency(results, "Figure 14 — motion-to-photon latency (middle-end)")


def cmd_fig12(quick: bool) -> None:
    kw = _durations(quick)
    result = breakdown.run_fig12(**kw)
    print("Figure 12 — FPS breakdown on the high-end PC:")
    rows = []
    for category, per_variant in result.category_fps.items():
        rows.append([category, *(fmt(per_variant.get(v), 1) for v in breakdown.VARIANTS)])
    print(format_table(["Category", *breakdown.VARIANTS], rows))
    print(f"\nAverage drop: no-prefetch {result.drop_percent('no-prefetch'):.0f}% "
          f"(paper: 30%, video 66%); "
          f"no-fence {result.drop_percent('no-fence'):.0f}% (paper: 11%)")


def cmd_fig16(quick: bool) -> None:
    duration = 8_000.0 if quick else 22_000.0
    off = breakdown.run_fig16(duration_ms=duration, prefetch=False)
    on = breakdown.run_fig16(duration_ms=duration, prefetch=True)
    print("Figure 16 — SVM access latency, UHD video, prefetch OFF "
          "(paper: blocks up to 40.54 ms):")
    print("  " + format_cdf_summary(off.cdf(), "prefetch-off ms"))
    print("  " + format_cdf_summary(on.cdf(), "prefetch-on  ms"))
    print(f"  max observed with write-invalidate: {off.maximum:.2f} ms")


def cmd_fig15(quick: bool) -> None:
    duration = 8_000.0 if quick else 15_000.0
    results = popular.run_fig15(duration_ms=duration)
    print("Figure 15 — FPS of the top-25 popular apps (high-end):")
    rows = [
        [name, fmt(r.mean_fps, 1), str(r.runnable)]
        for name, r in results.items()
    ]
    print(format_table(["Emulator", "Mean FPS", "Runnable"], rows))
    print("\nPairwise vSoC improvement (paper: 12%-49%):")
    for name in results:
        if name == "vSoC":
            continue
        gain = popular.pairwise_improvement(results, name)
        paper = PAPER_FIG15_IMPROVEMENT.get(name)
        print(f"  {name:12s} +{fmt(gain, 0)}% (paper: +{paper}%)")
    print("\nRunnable counts (paper:",
          ", ".join(f"{k}={v}" for k, v in PAPER_RUNNABLE_POPULAR.items()) + ")")


def cmd_popular_breakdown(quick: bool) -> None:
    duration = 8_000.0 if quick else 15_000.0
    results = breakdown.run_popular_breakdown(duration_ms=duration)
    print("§5.5 — popular-app ablations "
          "(paper: prefetch-off 20 apps / -6%; fence-off 24 apps / -8%):")
    for variant, r in results.items():
        print(f"  {variant:12s} apps-with-drops={r.apps_with_drops}/25 "
              f"avg-drop={r.average_drop_percent:.1f}%")


def cmd_pred(quick: bool) -> None:
    duration = 8_000.0 if quick else 15_000.0
    r = microbench.run_svm_microbench("vSoC", duration_ms=duration)
    print("§5.2 — prediction statistics:")
    print(f"  device-prediction accuracy: {fmt(r.prediction_accuracy and r.prediction_accuracy * 100, 2)}% "
          f"(paper: 99-100%)")
    print(f"  slack std error: {fmt(r.slack_std_error_ms)} ms (paper: 0.9 ms)")
    print(f"  prefetch-time std error: {fmt(r.prefetch_std_error_ms, 4)} ms (paper: 0.3 ms)")
    print(f"  framework memory overhead: {r.framework_overhead_bytes / MIB:.3f} MiB "
          f"(paper: <=3.1 MiB)")
    print(f"  engine CPU overhead: {100 * r.cpu_overhead_fraction:.3f}% of one core "
          f"(paper: <1%)")


def cmd_ablations(quick: bool) -> None:
    from repro.experiments import ablations

    print("Design-choice ablations (see DESIGN.md §5):")
    errors = ablations.sweep_alpha()
    print("  exponential-smoothing α sweep (paper picks 0.5):")
    for alpha, error in errors.items():
        marker = "  <- chosen" if alpha == 0.5 else ""
        print(f"    α={alpha:.1f}  slack RMS error {error:.3f} ms{marker}")
    comp = ablations.compensation_ablation()
    print(f"  compensation (Fig 8): reads {comp[True].mean_read_latency_ms:.2f} ms "
          f"with vs {comp[False].mean_read_latency_ms:.2f} ms without")
    susp = ablations.suspension_ablation()
    print(f"  3-failure suspension: {susp[3].wasted_prefetches} wasted prefetches "
          f"vs {susp[10**9].wasted_prefetches} without the policy")
    slack = ablations.sweep_buffering()
    print("  buffering → slack (Fig 6's >30 ms bucket): "
          + ", ".join(f"depth {d}: {s:.1f} ms" for d, s in slack.items()))


def cmd_density(quick: bool) -> None:
    from repro.experiments.density import run_density_comparison

    duration = 6_000.0 if quick else 12_000.0
    results = run_density_comparison(("vSoC", "GAE"), (1, 2, 4), duration_ms=duration)
    print("Instance density — mean per-instance UHD-video FPS on one host:")
    rows = [
        [name, *(fmt(r.fps_by_instances.get(n), 1) for n in (1, 2, 4))]
        for name, r in results.items()
    ]
    print(format_table(["Emulator", "x1", "x2", "x4"], rows))


def cmd_validate(quick: bool) -> None:
    from repro.experiments.validate import validate

    duration = 6_000.0 if quick else 10_000.0
    failures = [c for c in validate(duration_ms=duration) if not c.passed]
    if failures:
        raise SystemExit(1)


def cmd_sweeps(quick: bool) -> None:
    from repro.experiments.sweeps import (
        boundary_crossover,
        sweep_boundary_bandwidth,
        sweep_pcie_bandwidth,
    )

    duration = 5_000.0 if quick else 10_000.0
    print("Bandwidth sensitivity (extension experiments):")
    boundary = sweep_boundary_bandwidth(duration_ms=duration)
    print("  GAE UHD-video FPS vs boundary bandwidth:")
    for gbps, fps in boundary.items():
        print(f"    {gbps:5.1f} GB/s -> {fps:5.1f} FPS")
    crossover = boundary_crossover(duration_ms=duration)
    print(f"  crossover with vSoC: {crossover if crossover else 'never'} "
          "(the software decoder is the second bottleneck)")
    pcie = sweep_pcie_bandwidth(duration_ms=duration)
    print("  vSoC UHD-video FPS vs host-GPU DMA bandwidth:")
    for gbps, fps in pcie.items():
        print(f"    {gbps:5.1f} GB/s -> {fps:5.1f} FPS")


def cmd_chaos(quick: bool, seed: int = 0, fault_class: str = None,
              strict_audit: bool = False) -> int:
    from repro.errors import InvariantViolation
    from repro.experiments.chaos import run_fault_classes

    duration = 6_000.0 if quick else 10_000.0
    quick_flag = " --quick" if quick else ""
    strict_flag = " --strict-audit" if strict_audit else ""
    try:
        results = run_fault_classes(duration_ms=duration, seed=seed,
                                    only=fault_class,
                                    strict_audit=strict_audit)
    except InvariantViolation as err:
        class_flag = f" --fault-class {fault_class}" if fault_class else ""
        print(f"FAIL: invariant {err.invariant!r} violated under strict "
              f"audit: {err}")
        print(f"REPRODUCE: python -m repro.experiments chaos "
              f"--seed {seed}{class_flag}{quick_flag}{strict_flag}")
        return 1
    print("Chaos harness — UHD video on vSoC per fault class:")
    rows = []
    for label, r in results.items():
        rows.append([
            label,
            f"{r.fps:.1f}",
            f"{r.steady_fps:.1f}",
            str(r.degrades),
            str(r.restores),
            f"{r.time_degraded_ms:.0f}",
            str(r.retries),
        ])
    print(format_table(
        ["Fault class", "FPS", "Steady FPS", "Degr", "Rest", "DegrMs", "Retries"],
        rows,
    ))
    baseline = results["fault-free"]
    if "full-chaos" in results:
        chaos = results["full-chaos"]
        print(f"\nFull-chaos steady-state FPS {chaos.steady_fps:.1f} vs "
              f"fault-free {baseline.steady_fps:.1f} "
              f"(bar: within 2x after fault clearance)")
        print(f"Injected: {chaos.injected}")
    # The acceptance bar, per class: steady-state FPS after the faults
    # clear must be within 2x of the fault-free baseline. A run whose
    # faults extend past the end of the (quick) duration has no steady
    # window to judge and is skipped. Every failing run prints the
    # one-line command that replays it exactly.
    failing = []
    for label, r in results.items():
        if r.duration_ms - r.steady_after_ms <= 0:
            continue
        ok = (r.steady_fps > 0.0 if label == "fault-free"
              else r.steady_fps * 2.0 >= baseline.steady_fps)
        if not ok:
            failing.append(label)
    for label in failing:
        print(f"FAIL {label}: steady FPS {results[label].steady_fps:.1f} "
              f"vs baseline {baseline.steady_fps:.1f}")
        print(f"REPRODUCE: python -m repro.experiments chaos "
              f"--seed {seed} --fault-class {label}{quick_flag}{strict_flag}")
    return 1 if failing else 0


def cmd_fuzz(max_samples: int, seed: int, out_dir: str, jobs=None,
             cache: bool = True, quick: bool = False,
             replay_path: str = None, shrink: bool = True) -> int:
    """Property-based scenario fuzzing (or reproducer replay).

    Samples schema-valid scenario documents from a seeded RNG, runs each
    through the experiment engine under the strict invariant auditor plus
    the crash-recovery bar, shrinks every failure to a minimal reproducer
    file, and prints one REPRODUCE line per finding. ``--replay PATH``
    re-runs one reproducer (or bare scenario) file instead of sampling.
    Exit code 1 iff any sample (or the replayed file) fails.
    """
    from repro.scenario import load_reproducer, run_fuzz, scenario_digest

    documents = None
    if replay_path is not None:
        document, stored = load_reproducer(replay_path)
        documents = [document]
        print(f"Replaying {replay_path} "
              f"(scenario sha256 {scenario_digest(document)[:12]}...)")
        if stored is not None:
            expect = stored.get("invariant") or stored.get("error") or ""
            print(f"  recorded finding: {stored.get('status')} {expect}".rstrip())
        shrink = False  # a reproducer is already minimal; just re-run it

    report = run_fuzz(
        max_samples=max_samples,
        seed=seed,
        out_dir=out_dir,
        strict_audit=True,
        jobs=jobs,
        cache=cache,
        quick=quick,
        documents=documents,
        shrink=shrink,
    )

    print(f"Fuzz campaign: {report['samples']} samples, base seed {seed}, "
          f"strict audit on")
    print(f"  ok={report['ok']} findings={len(report['findings'])} "
          f"executed={report['executed']} cache-hits={report['cache_hits']} "
          f"wall={report['wall_s']:.1f}s")
    quick_flag = " --quick" if quick else ""
    for finding in report["findings"]:
        outcome = finding["outcome"]
        what = outcome.get("invariant") or outcome.get("error") or ""
        print(f"\nFINDING [{outcome['status']}] {what}: "
              f"{outcome.get('message', '')}")
        print(f"  fuzz seed {finding['fuzz_seed']}, shrunk with "
              f"{finding['shrink_checks']} re-runs -> {finding['reproducer']}")
        print(f"  scenario sha256 {finding['scenario_sha256']}")
        print(f"REPRODUCE: python -m repro.experiments fuzz "
              f"--replay {finding['reproducer']}"
              f"  # sha256 {finding['scenario_sha256'][:12]}")
    if not report["findings"]:
        if replay_path is not None:
            print("  replay ran clean — the finding did not reproduce")
        else:
            print(f"  all samples clean; replay the campaign with:")
            print(f"  REPRODUCE: python -m repro.experiments fuzz "
                  f"--seed {seed} --max-samples {max_samples}{quick_flag}")
    return 1 if report["findings"] else 0


COMMANDS = {
    "table2": cmd_table2,
    "chaos": cmd_chaos,
    "ablations": cmd_ablations,
    "density": cmd_density,
    "sweeps": cmd_sweeps,
    "validate": cmd_validate,
    "fig4": cmd_fig4,
    "fig5": cmd_fig5,
    "fig6": cmd_fig6,
    "fig10": cmd_fig10,
    "fig11": cmd_fig11,
    "fig12": cmd_fig12,
    "fig13": cmd_fig13,
    "fig14": cmd_fig14,
    "fig15": cmd_fig15,
    "fig16": cmd_fig16,
    "popular-breakdown": cmd_popular_breakdown,
    "pred": cmd_pred,
}


def main(argv=None) -> int:
    """CLI entry point: regenerate one experiment (or ``all``)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the vSoC paper's tables and figures.",
    )
    parser.add_argument("experiment",
                        choices=[*COMMANDS, "all", "observe", "bench",
                                 "dashboard", "recover", "fleetserve",
                                 "flightdeck", "fuzz", "explain"])
    parser.add_argument("--quick", action="store_true",
                        help="shorter runs, fewer apps (same shapes)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="fan engine-backed sweeps over N worker processes")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk run cache (.repro-cache/)")
    parser.add_argument("--history", metavar="PATH", default=None,
                        help="bench-history JSONL for the regression sentinel "
                             "(default BENCH_history.jsonl; bench/dashboard)")
    bench_group = parser.add_argument_group("bench options")
    bench_group.add_argument("--out", metavar="PATH", default=None,
                             help="output path (bench: BENCH_engine.json; "
                                  "dashboard: report.html)")
    bench_group.add_argument("--check", action="store_true",
                             help="exit nonzero when a metric regresses "
                                  "beyond tolerance vs the EWMA baseline")
    bench_group.add_argument("--tolerance", type=float, default=None,
                             metavar="FRAC",
                             help="relative regression tolerance "
                                  "(default 0.25)")
    dashboard_group = parser.add_argument_group("dashboard options")
    dashboard_group.add_argument("--snapshot", metavar="PATH", default=None,
                                 help="also write the canonical fleet "
                                      "aggregate JSON here")
    observe_group = parser.add_argument_group("observe options")
    observe_group.add_argument("--app", default="ar",
                               help="workload to observe (ar/video/camera/livestream)")
    observe_group.add_argument("--emulator", default="vSoC",
                               help="emulator to observe (default vSoC)")
    observe_group.add_argument("--export", metavar="PATH", default=None,
                               help="write a Chrome/Perfetto trace JSON here")
    observe_group.add_argument("--metrics", metavar="PATH", default=None,
                               help="write the metrics/self-profile JSON here")
    observe_group.add_argument("--duration", type=float, default=None,
                               help="simulated ms to observe (default 8000)")
    observe_group.add_argument("--seed", type=int, default=0,
                               help="run seed (default 0)")
    observe_group.add_argument("--include-tracelog", action="store_true",
                               help="also digest legacy TraceLog records into "
                                    "the exported trace")
    observe_group.add_argument("--reservoir", type=int, default=None,
                               metavar="N",
                               help="per-instrument sample retention (gauge "
                                    "timelines / histogram reservoirs; "
                                    "default 512)")
    observe_group.add_argument("--max-spans", type=int, default=None,
                               metavar="N",
                               help="bounded ring mode: keep only the newest "
                                    "N spans/instants (evictions are counted "
                                    "and surfaced; attribution refuses "
                                    "truncated traces)")
    explain_group = parser.add_argument_group("explain options")
    explain_group.add_argument("--against", metavar="EMULATOR", default=None,
                               help="diff mode: run EMULATOR on the same app "
                                    "and localize where it spends more than "
                                    "--emulator (case-insensitive, "
                                    "qemu_kvm == QEMU-KVM)")
    explain_group.add_argument("--deadline", type=float, default=None,
                               metavar="MS",
                               help="frame-deadline SLO to grade against "
                                    "(default 50 ms)")
    recover_group = parser.add_argument_group("recover options")
    recover_group.add_argument("--report", metavar="PATH", default=None,
                               help="write the recovery/audit JSON report here "
                                    "(recover/fleetserve)")
    chaos_group = parser.add_argument_group("chaos options")
    chaos_group.add_argument("--fault-class", metavar="LABEL", default=None,
                             help="run only this fault class (plus the "
                                  "fault-free baseline)")
    chaos_group.add_argument("--strict-audit", action="store_true",
                             help="arm the invariant auditor in strict mode: "
                                  "the first violation fails the run with a "
                                  "REPRODUCE line (chaos/recover; fuzz is "
                                  "always strict)")
    fuzz_group = parser.add_argument_group("fuzz options")
    fuzz_group.add_argument("--max-samples", type=int, default=50, metavar="N",
                            help="scenario samples to draw (default 50)")
    fuzz_group.add_argument("--fuzz-dir", metavar="DIR",
                            default="fuzz-reproducers",
                            help="where shrunken reproducer scenario files "
                                 "land (default fuzz-reproducers/)")
    fuzz_group.add_argument("--replay", metavar="PATH", default=None,
                            help="re-run one reproducer (or bare scenario) "
                                 "file instead of sampling")
    fuzz_group.add_argument("--no-shrink", action="store_true",
                            help="report findings without delta-debugging "
                                 "them to minimal reproducers")
    fleet_group = parser.add_argument_group("fleetserve options")
    fleet_group.add_argument("--workers", type=int, default=None, metavar="N",
                             help="override the simulation-worker pool size")
    fleet_group.add_argument("--crashes", type=int, default=None, metavar="N",
                             help="override the injected worker-crash count")
    fleet_group.add_argument("--live", metavar="DIR", default=None,
                             help="record the run: streaming event log, "
                                  "live-refreshing dashboard, and "
                                  "Chrome/Perfetto trace land in DIR")
    deck_group = parser.add_argument_group("flightdeck options")
    deck_group.add_argument("--events", metavar="PATH", default=None,
                            help="recorded event log (JSONL) to replay "
                                 "into the dashboard")
    args = parser.parse_args(argv)
    from repro.experiments import engine

    engine.set_default_jobs(args.jobs)
    engine.set_cache_default(not args.no_cache)
    if args.experiment == "bench":
        from repro.experiments.bench import cmd_bench

        return cmd_bench(jobs=args.jobs,
                         out_path=args.out or "BENCH_engine.json",
                         quick=args.quick, cache=not args.no_cache,
                         check=args.check, history_path=args.history,
                         tolerance=args.tolerance)
    if args.experiment == "dashboard":
        from repro.experiments.dashboard import cmd_dashboard

        return cmd_dashboard(out_path=args.out or "report.html",
                             snapshot_path=args.snapshot,
                             history_path=args.history,
                             quick=args.quick, jobs=args.jobs,
                             cache=not args.no_cache,
                             seed=args.seed)
    if args.experiment == "observe":
        from repro.experiments.observe import DEFAULT_DURATION_MS, cmd_observe

        duration = args.duration
        if duration is None:
            duration = 4_000.0 if args.quick else DEFAULT_DURATION_MS
        return cmd_observe(
            app=args.app,
            emulator=args.emulator,
            duration_ms=duration,
            export_path=args.export,
            metrics_path=args.metrics,
            seed=args.seed,
            include_tracelog=args.include_tracelog,
            reservoir=args.reservoir,
            max_spans=args.max_spans,
        )
    if args.experiment == "explain":
        from repro.experiments.explain import DEFAULT_DURATION_MS, cmd_explain

        duration = args.duration
        if duration is None:
            duration = 4_000.0 if args.quick else DEFAULT_DURATION_MS
        return cmd_explain(
            app=args.app,
            emulator=args.emulator,
            against=args.against,
            duration_ms=duration,
            seed=args.seed,
            out_path=args.out,
            deadline_ms=args.deadline,
            cache=not args.no_cache,
        )
    if args.experiment == "recover":
        from repro.experiments.recover import cmd_recover

        return cmd_recover(
            quick=args.quick, report_path=args.report, seed=args.seed,
            strict_audit=args.strict_audit,
        )
    if args.experiment == "fleetserve":
        from repro.experiments.fleetserve import cmd_fleetserve

        return cmd_fleetserve(
            quick=args.quick, seed=args.seed, out_path=args.out,
            report_path=args.report, crashes=args.crashes,
            workers=args.workers, live_dir=args.live,
        )
    if args.experiment == "flightdeck":
        from repro.experiments.fleetserve import cmd_flightdeck

        if not args.events:
            parser.error("flightdeck needs --events PATH (a recorded "
                         "events.jsonl)")
        return cmd_flightdeck(events_path=args.events, out_path=args.out)
    if args.experiment == "chaos":
        return cmd_chaos(args.quick, seed=args.seed,
                         fault_class=args.fault_class,
                         strict_audit=args.strict_audit)
    if args.experiment == "fuzz":
        return cmd_fuzz(max_samples=args.max_samples, seed=args.seed,
                        out_dir=args.fuzz_dir, jobs=args.jobs,
                        cache=not args.no_cache, quick=args.quick,
                        replay_path=args.replay,
                        shrink=not args.no_shrink)
    if args.experiment == "all":
        for name, command in COMMANDS.items():
            print(f"\n{'=' * 72}\n{name}\n{'=' * 72}")
            command(args.quick)
    else:
        COMMANDS[args.experiment](args.quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())
