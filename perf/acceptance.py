"""Two sets of untraced runs plus a traced run per set, of one commit.

    python3 perf/acceptance.py [--seed 0] [--runs 5] [--seconds 16]

Each set runs ``run.py --workload all`` ``--runs`` times, then once with
``--trace 1``. For every workload and end-to-end metric, the two sets'
medians must differ by less than the metric's bound in
``BENCHMARK.json``. Every count, ratio and simulated-time metric of the
two traced runs must be identical. The result goes to
``perf/results/seed<N>.json``; the exit code is 1 if a check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Any, Dict, List

from run import PERF_DIR, ROOT

#: Units of metrics that must repeat exactly between traced runs.
EXACT_UNITS = ("count", "ratio", "sim_ms")


def invoke(seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    cmd = [sys.executable, str(PERF_DIR / "run.py"), "--workload", "all",
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _nest(metrics: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {}
    for key, entry in metrics.items():
        workload, metric = key.split("/", 1)
        out.setdefault(workload, {})[metric] = entry["value"]
    return out


def summarize(runs: List[Dict[str, Dict[str, float]]]) -> Dict[str, Any]:
    """Median and quartiles per workload x metric over a set of runs."""
    out: Dict[str, Any] = {}
    for workload, metrics in runs[0].items():
        for metric in metrics:
            values = [r[workload][metric] for r in runs]
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            out.setdefault(workload, {})[metric] = {
                "median": statistics.median(values), "q1": q1, "q3": q3,
                "values": values,
            }
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=16.0)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    exact = {m["name"] for m in bench["per_layer"] if m["unit"] in EXACT_UNITS}

    sets, traces, correct = [], [], True
    for index in range(2):
        runs = []
        for run in range(args.runs):
            out = invoke(args.seed, args.seconds, 0)
            correct &= out["correct"]
            runs.append(_nest(out["metrics"]))
            print(f"set {index + 1} run {run + 1}: correct={out['correct']}", flush=True)
        sets.append(summarize(runs))
        out = invoke(args.seed, args.seconds, 1)
        correct &= out["correct"]
        traces.append(_nest(out["metrics"]))

    agreement: Dict[str, Any] = {}
    ok = correct
    for workload, metrics in sets[0].items():
        for metric, first in metrics.items():
            second = sets[1][workload][metric]["median"]
            diff = abs(second - first["median"]) / first["median"]
            agrees = diff < bounds[metric]
            ok &= agrees
            agreement.setdefault(workload, {})[metric] = {
                "diff": diff, "bound": bounds[metric], "ok": agrees}
            print(f"{workload:20s} {metric:20s} {first['median']:10.4f} "
                  f"{second:10.4f} diff {diff:6.2%} bound {bounds[metric]:.0%} "
                  f"{'ok' if agrees else 'DISAGREE'}")
    moved = sorted(
        f"{workload}/{metric}"
        for workload, metrics in traces[0].items()
        for metric in metrics
        if metric in exact and metrics[metric] != traces[1][workload][metric]
    )
    ok &= not moved
    print(f"simulated counts identical across traced runs: {not moved} {moved}")

    result = {
        "seed": args.seed,
        "runs_per_set": args.runs,
        "seconds": args.seconds,
        "host": {"cpu": _cpu_model(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "correct": correct,
        "sets": sets,
        "agreement": agreement,
        "counts_moved": moved,
        "trace": traces[0],
    }
    out_dir = PERF_DIR / "results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"seed{args.seed}.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
