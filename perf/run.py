"""Host time per simulated second on four catalog workloads.

    python3 perf/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Untraced (``--trace 0``): fresh single-threaded children each run one
pass of a workload's points through the engine's worker body
(``repro.experiments.engine.execute_spec``), one child at a time. The
number of passes depends only on the workload and ``--seconds`` (see
:func:`pass_count`), never on how fast the code runs. Several more fresh
interpreters time set-up. The run prints the end-to-end metrics.

Traced (``--trace 1``): one child runs the points untraced and then under
cProfile and charges self time to layers (see ``layers.py``). The run
prints the per-layer metrics.

Every point's outputs are hashed and checked against ``pins.json`` when
the seed is pinned, and across passes always. The last line of output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
OUT_DIR = PERF_DIR / "out"
PINS = PERF_DIR / "pins.json"

sys.path.insert(0, str(PERF_DIR))

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Fresh interpreters timed for ``setup_s`` per workload.
SETUP_PROBES = 7
MIN_PASSES = 3
CHILD_TIMEOUT_S = 150

#: Nominal wall seconds of one pass of each workload on the calibrating
#: host. Constants, so that the pass count never depends on the code's speed.
PASS_S = {
    "emerging-vsoc": 6.0,
    "emerging-baselines": 5.0,
    "popular-vsoc": 7.0,
    "explain-grid": 4.0,
}

#: Scaled times are those of a host on which ``child.reference_s`` takes
#: this long; it takes 4.0-4.4 ms on the calibrating host, a 2-vCPU Xeon VM.
REFERENCE_S = 0.004

#: When contention slows the reference loop by a factor k, the points and
#: the set-up probes slow by about k ** HOST_ELASTICITY: fits on the
#: calibrating host gave 0.65-0.73 over 470 (point, loop) pairs and 0.68
#: over 671 set-up probes.
HOST_ELASTICITY = 0.7

#: name -> (unit, better); the end-to-end metrics of an untraced run.
E2E_METRICS = {
    "host_ms_per_sim_s": ("ms/s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}


def _layer_metrics() -> Dict[str, Tuple[str, str]]:
    metrics: Dict[str, Tuple[str, str]] = {}
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_s"] = ("s", "lower")
        metrics[f"{layer}.share"] = ("fraction", "lower")
        metrics[f"{layer}.calls"] = ("count", "lower")
    metrics.update({
        "sim.resumes": ("count", "lower"),
        "sim.us_per_resume": ("us", "lower"),
        "sim.cancel_ratio": ("ratio", "lower"),
        "setup.import_s": ("s", "lower"),
        "setup.construct_s": ("s", "lower"),
        "core.manager.accesses": ("count", "higher"),
        "core.manager.access_latency_sim_ms": ("sim_ms", "lower"),
        "core.coherence.copies": ("count", "lower"),
        "core.coherence.copy_sim_ms": ("sim_ms", "lower"),
        "core.coherence.prefetch_launched": ("count", "higher"),
        "core.coherence.prefetch_wasted_ratio": ("ratio", "lower"),
        "guest.frames": ("count", "higher"),
        "guest.drop_ratio": ("ratio", "lower"),
        "obs.spans": ("count", "lower"),
        "trace.overhead_x": ("x", "lower"),
    })
    return metrics


#: name -> (unit, better); the per-layer metrics of a traced run.
LAYER_METRICS = _layer_metrics()


class ChildError(RuntimeError):
    """A measurement child exited abnormally."""


def run_child(mode: str, workload: str, seed: int, *extra: str) -> Dict[str, Any]:
    """Run ``child.py`` to completion and parse its last output line."""
    cmd = [sys.executable, str(PERF_DIR / "child.py"), mode, workload, str(seed), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise ChildError(f"{mode} child for {workload} exited {proc.returncode}:\n{tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_pins(seed: int, path: Path = PINS) -> Optional[Dict[str, Dict[str, str]]]:
    """``{workload: {point: digest}}`` for a pinned seed, else None."""
    if not path.exists():
        return None
    return json.loads(path.read_text())["seeds"].get(str(seed))


def check_points(runs: List[List[Dict[str, Any]]], pin: Optional[Dict[str, str]]
                 ) -> List[str]:
    """Failure reasons, one per failed point, over every pass of one workload.

    A point fails if it raised, if its digest differs between passes or
    from the pin, if it ran but presented no frame, or if its latency
    budget does not sum to the measured latency.
    """
    problems = []
    for rows in zip(*runs):
        label = rows[0]["point"]
        errors = [r["error"] for r in rows if r["error"]]
        digests = {r["digest"] for r in rows}
        if errors:
            problems.append(f"{label}: raised {errors[0]}")
        elif len(digests) > 1:
            problems.append(f"{label}: digest differs between passes {sorted(digests)}")
        elif pin is not None and pin.get(label) not in digests:
            problems.append(f"{label}: digest {rows[0]['digest']} != pin {pin.get(label)}")
        elif rows[0]["ran"] and rows[0]["presented"] == 0:
            problems.append(f"{label}: ran but presented no frame")
        elif rows[0].get("conserved") is False:
            problems.append(f"{label}: latency budget does not conserve")
    return problems


def pass_count(workload: str, seconds: float) -> int:
    """Passes of ``workload`` that fill ``seconds`` on the calibrating host."""
    return max(MIN_PASSES, int(seconds / PASS_S[workload]))


def host_scale(ref_s: float) -> float:
    """Factor that takes a time measured while the reference loop took
    ``ref_s`` to a host on which it takes :data:`REFERENCE_S`."""
    return (REFERENCE_S / ref_s) ** HOST_ELASTICITY


def host_ms_per_sim_s(passes: List[Dict[str, Any]], scaled: bool = True) -> float:
    """Wall ms per simulated second.

    Sums each point's fastest wall time across passes and divides by the
    simulated seconds of the points that ran; a point that did not run
    still costs its wall time. ``scaled`` first multiplies each wall time
    by :func:`host_scale` of the reference loops timed around it.
    """
    rows_per_point = list(zip(*(p["points"] for p in passes)))
    wall = 0.0
    for rows in rows_per_point:
        times = [r["wall_s"] * (host_scale(r["ref_s"]) if scaled else 1.0)
                 for r in rows if r["error"] is None]
        if times:
            wall += min(times)
    sim_s = sum(rows[0]["sim_s"] for rows in rows_per_point)
    return 1000.0 * wall / sim_s


def e2e_metrics(passes: List[Dict[str, Any]], probes: List[Dict[str, float]]
                ) -> Dict[str, float]:
    """Aggregate pass and set-up children into the end-to-end metrics.

    Each set-up probe is scaled by the reference loop it timed itself.
    """
    return {
        "host_ms_per_sim_s": host_ms_per_sim_s(passes),
        "setup_s": statistics.median(
            p["setup_s"] * host_scale(p["ref_s"]) for p in probes),
        "peak_rss_mb": statistics.median(p["maxrss_kb"] / 1024.0 for p in passes),
    }


def layer_metrics(trace: Dict[str, Any], probes: List[Dict[str, float]]
                  ) -> Dict[str, float]:
    """The per-layer metrics of one traced child plus set-up probes."""
    self_s, calls, counted, counts = (
        trace["self_s"], trace["calls"], trace["counted"], trace["counts"])
    total = sum(self_s.values())
    out: Dict[str, float] = {}
    for layer in layers.LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.share"] = self_s[layer] / total if total else 0.0
        out[f"{layer}.calls"] = calls[layer]
    resumes = counted["resumes"]
    out["sim.resumes"] = resumes
    out["sim.us_per_resume"] = 1e6 * self_s["sim"] / resumes if resumes else 0.0
    out["sim.cancel_ratio"] = (
        counted["cancels"] / counted["schedules"] if counted["schedules"] else 0.0)
    for part in ("import_s", "construct_s"):
        out[f"setup.{part}"] = statistics.median(
            p[part] * host_scale(p["ref_s"]) for p in probes)
    out["core.manager.accesses"] = counts["accesses"]
    out["core.manager.access_latency_sim_ms"] = counts["access_ms"]
    out["core.coherence.copies"] = counts["copies"]
    out["core.coherence.copy_sim_ms"] = counts["copy_ms"]
    launched = counts["prefetch_launched"]
    out["core.coherence.prefetch_launched"] = launched
    out["core.coherence.prefetch_wasted_ratio"] = (
        counts["prefetch_wasted"] / launched if launched else 0.0)
    shown = counts["frames"] + counts["dropped"]
    out["guest.frames"] = counts["frames"]
    out["guest.drop_ratio"] = counts["dropped"] / shown if shown else 0.0
    out["obs.spans"] = counted["span_begins"] + counted["span_instants"]
    out["trace.overhead_x"] = trace["traced_s"] / trace["untraced_s"]
    return out


def measure_passes(names: List[str], seed: int, seconds: float
                   ) -> Dict[str, List[Dict[str, Any]]]:
    """Interleaved rounds W1..Wn, W1..Wn, ...; a workload drops out of the
    rounds once it has its :func:`pass_count` passes."""
    passes: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    for round_no in range(max(pass_count(name, seconds) for name in names)):
        for name in names:
            if round_no < pass_count(name, seconds):
                passes[name].append(run_child("pass", name, seed))
    return passes


def probe_setup(name: str, seed: int) -> List[Dict[str, float]]:
    return [run_child("setup", name, seed) for _ in range(SETUP_PROBES)]


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _print_metrics(metrics: Dict[str, float], spec: Dict[str, Tuple[str, str]],
                   notes: Dict[str, str]) -> None:
    for name, (unit, _better) in spec.items():
        print(f"  {name:40s} {_fmt(metrics[name]):>12s} {unit:8s} {notes.get(name, '')}")


def run_untraced(names: List[str], seed: int, seconds: float,
                 pins: Optional[Dict[str, Dict[str, str]]]
                 ) -> Tuple[Dict[str, Dict[str, float]], int, List[str], Dict[str, Any]]:
    passes = measure_passes(names, seed, seconds)
    results: Dict[str, Dict[str, float]] = {}
    raw: Dict[str, Any] = {}
    attempted, problems = 0, []
    for name in names:
        probes = probe_setup(name, seed)
        runs = passes[name]
        metrics = e2e_metrics(runs, probes)
        failed = check_points([r["points"] for r in runs],
                              None if pins is None else pins.get(name, {}))
        points = len(runs[0]["points"])
        ran = sum(1 for r in runs[0]["points"] if r["ran"])
        sim_s = sum(r["sim_s"] for r in runs[0]["points"])
        totals = [sum(r.get("wall_s", 0.0) for r in run["points"]) for run in runs]
        refs = " ".join(
            f"{1000 * statistics.median(r['ref_s'] for r in run['points'] if 'ref_s' in r):.3f}"
            for run in runs)
        print(f"{name}: {len(runs)} passes x {points} points "
              f"({ran} ran, {sim_s:g} sim-s), pass wall "
              f"{' '.join(f'{t:.2f}' for t in totals)} s, median reference "
              f"loop {refs} ms")
        _print_metrics(metrics, E2E_METRICS, {
            "host_ms_per_sim_s": (
                f"sum of per-point minima over {len(runs)} passes, scaled; "
                f"unscaled {_fmt(host_ms_per_sim_s(runs, scaled=False))}"),
            "setup_s": f"median of {len(probes)} fresh interpreters, scaled",
            "peak_rss_mb": f"median of {len(runs)} pass children",
        })
        print(f"  {'error_rate':40s} {len(failed)}/{points} points")
        attempted += points
        problems += [f"{name}: {p}" for p in failed]
        results[name] = metrics
        raw[name] = {"passes": runs, "probes": probes, "metrics": metrics}
    return results, attempted, problems, raw


def run_traced(names: List[str], seed: int,
               pins: Optional[Dict[str, Dict[str, str]]]
               ) -> Tuple[Dict[str, Dict[str, float]], int, List[str], Dict[str, Any]]:
    results: Dict[str, Dict[str, float]] = {}
    raw: Dict[str, Any] = {}
    attempted, problems = 0, []
    for name in names:
        pstats_path = OUT_DIR / f"{name}-seed{seed}.pstats"
        trace = run_child("trace", name, seed, "--pstats", str(pstats_path))
        probes = probe_setup(name, seed)
        metrics = layer_metrics(trace, probes)
        failed = check_points([trace["points"]],
                              None if pins is None else pins.get(name, {}))
        print(f"{name}: traced {len(trace['points'])} points, "
              f"{trace['traced_s']:.2f} s traced / {trace['untraced_s']:.2f} s untraced")
        _print_metrics(metrics, LAYER_METRICS, {})
        print(f"  {'error_rate':40s} {len(failed)}/{len(trace['points'])} points")
        attempted += len(trace["points"])
        problems += [f"{name}: {p}" for p in failed]
        results[name] = metrics
        raw[name] = {"trace": trace, "probes": probes, "metrics": metrics}
    return results, attempted, problems, raw


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0,
                        help="measuring time per workload on the calibrating "
                             "host; sets the pass count (untraced runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    unmapped = layers.unmapped_modules()
    if unmapped:
        print(f"warning: modules with no layer, charged to 'other': {unmapped}",
              file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    pins = load_pins(args.seed)
    print(f"seed {args.seed}, pinned: {'true' if pins is not None else 'false'}")
    try:
        if args.trace:
            results, attempted, problems, raw = run_traced(names, args.seed, pins)
            spec = LAYER_METRICS
        else:
            results, attempted, problems, raw = run_untraced(
                names, args.seed, args.seconds, pins)
            spec = E2E_METRICS
    except (ChildError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for problem in problems:
        print(f"FAILED {problem}")

    def key(workload: str, metric: str) -> str:
        return metric if len(names) == 1 else f"{workload}/{metric}"

    metrics = {
        key(name, metric): {"value": results[name][metric], "unit": unit}
        for name in names
        for metric, (unit, _better) in spec.items()
    }
    tag = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(
        {"seed": args.seed, "pinned": pins is not None, "problems": problems,
         "workloads": raw}, indent=1))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
