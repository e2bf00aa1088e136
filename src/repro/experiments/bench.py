"""``bench``: record and gate the paper-grid benchmark under ``perf/``.

Usage::

    python -m repro.experiments bench [--check] [--out PATH] [--history PATH]

``perf/run.py --workload all --seed 0`` times the four catalog workloads
of ``BENCHMARK.json`` in fresh children, scales each time for host speed
and checks all 72 points against their pinned digests (``perf/README.md``).
``bench`` runs it :data:`RUNS` times, because perf's bounds are defined on
medians of five runs (``perf/acceptance.py``). Unless every run prints
``"correct": true``, it exits 1 and records nothing. Otherwise it writes
the median of each (workload, metric) pair to ``BENCH_engine.json`` and
appends the medians as one line to ``BENCH_history.jsonl``.

The regression sentinel judges the medians against the history before
the run is appended. It replays the history through single exponential
smoothing with α = 0.5, the paper's own §3.3 predictor
(:class:`repro.core.smoothing.ExponentialSmoothing`), and flags a pair
whose median lands beyond its metric's bound in ``BENCHMARK.json``
(``end_to_end``) on the bad side of its EWMA level. ``--check`` turns a
flag into exit code 2, the CI gate. The history is append-only JSONL:

* corrupt or alien lines are skipped, never trusted;
* only records from the running Python minor version count, because
  ``peak_rss_mb`` and ``setup_s`` depend on the interpreter;
* a pair with fewer than :data:`MIN_HISTORY` prior records soft-passes.

``validate_bench_schema`` is the single source of truth for the JSON's
shape; CI calls it on the generated artifact.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.core.smoothing import DEFAULT_ALPHA, ExponentialSmoothing

#: Schema identifiers of ``BENCH_engine.json`` and of each history line.
#: v1-v3 timed a synthetic kernel stress and engine suites; v4 records
#: the paper-grid medians of ``perf/``.
BENCH_SCHEMA = "repro-bench-engine-v4"
HISTORY_SCHEMA = "repro-bench-history-v4"

#: The checkout whose ``perf/`` and ``BENCHMARK.json`` sit next to ``src/``.
ROOT = Path(__file__).resolve().parents[3]
PERF_ARGS = ("perf/run.py", "--workload", "all", "--seed", "0")
RUNS = 5

DEFAULT_HISTORY_PATH = "BENCH_history.jsonl"
#: Prior records a pair needs before it can flag at all.
MIN_HISTORY = 3


def load_benchmark() -> Dict[str, Any]:
    """``{"workloads": [...], "bounds": {metric: spec}}`` of ``BENCHMARK.json``.

    A bound spec is the metric's ``end_to_end`` entry: ``bound`` is the
    relative change it tolerates and ``better`` is ``"lower"`` or
    ``"higher"``.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "workloads": [w["name"] for w in spec["workloads"]],
        "bounds": {m["name"]: m for m in spec["end_to_end"]},
    }


def python_minor(version: str) -> str:
    """``"3.11.7"`` -> ``"3.11"``."""
    return ".".join(version.split(".")[:2])


# ---------------------------------------------------------------------------
# perf runs
# ---------------------------------------------------------------------------

def parse_run(stdout: str, returncode: int = 0) -> Dict[str, Any]:
    """One ``perf/run.py`` run's result line, plus its ``FAILED`` lines.

    A run that exited nonzero or printed no result line counts as not
    correct.
    """
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if returncode != 0 or not isinstance(result, dict):
        return {"correct": False,
                "problems": [f"perf/run.py exited {returncode} with no result line"]}
    result["problems"] = [line[len("FAILED "):] for line in lines
                          if line.startswith("FAILED ")]
    return result


def run_perf() -> Dict[str, Any]:
    """Run ``perf/run.py`` once and parse its output."""
    proc = subprocess.run([sys.executable, *PERF_ARGS], cwd=ROOT,
                          capture_output=True, text=True)
    result = parse_run(proc.stdout, proc.returncode)
    if proc.returncode != 0:
        result["problems"] += proc.stderr.strip().splitlines()[-3:]
    return result


def summarize(results: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
    """The v4 report: the median of every (workload, metric) pair."""
    metrics = {}
    for key, entry in results[0]["metrics"].items():
        values = [r["metrics"][key]["value"] for r in results]
        metrics[key] = {"median": statistics.median(values),
                        "unit": entry["unit"], "values": values}
    return {
        "schema": BENCH_SCHEMA,
        "host": {"cpu_count": os.cpu_count(),
                 "python": platform.python_version(),
                 "platform": sys.platform},
        "command": list(PERF_ARGS),
        "runs": len(results),
        "correct": all(r["correct"] for r in results),
        "attempted": results[0]["attempted"],
        "failed": max(r["failed"] for r in results),
        "metrics": metrics,
    }


def validate_bench_schema(data: Any) -> List[str]:
    """Schema check for a v4 bench report; returns the list of problems."""
    benchmark = load_benchmark()
    if not isinstance(data, dict):
        return ["root: expected an object"]
    problems: List[str] = []
    if data.get("schema") != BENCH_SCHEMA:
        problems.append(f"schema: expected {BENCH_SCHEMA!r}, got {data.get('schema')!r}")
    host = data.get("host")
    if not (isinstance(host, dict) and isinstance(host.get("python"), str)
            and isinstance(host.get("cpu_count"), int)):
        problems.append("host: needs a python version and a cpu_count")
    if data.get("runs") != RUNS:
        problems.append(f"runs: expected {RUNS}, got {data.get('runs')!r}")
    if data.get("correct") is not True or data.get("failed") != 0:
        problems.append(f"correct: every run must be correct with 0 failed points, "
                        f"got correct={data.get('correct')!r} failed={data.get('failed')!r}")
    attempted = data.get("attempted")
    if not isinstance(attempted, int) or attempted < 1:
        problems.append(f"attempted: expected a positive point count, got {attempted!r}")
    metrics = data.get("metrics")
    if not isinstance(metrics, dict):
        return problems + ["metrics: expected an object"]
    expected = {f"{workload}/{metric}" for workload in benchmark["workloads"]
                for metric in benchmark["bounds"]}
    for key in sorted(expected - set(metrics)):
        problems.append(f"metrics: missing {key!r}")
    for key in sorted(set(metrics) - expected):
        problems.append(f"metrics: unexpected {key!r}")
    for key in sorted(expected & set(metrics)):
        entry = metrics[key]
        median = entry.get("median") if isinstance(entry, dict) else None
        values = entry.get("values") if isinstance(entry, dict) else None
        if isinstance(median, bool) or not isinstance(median, (int, float)) or median <= 0:
            problems.append(f"metrics.{key}.median: expected a positive number")
        if not isinstance(values, list) or len(values) != data.get("runs"):
            problems.append(f"metrics.{key}.values: expected one value per run")
    return problems


# ---------------------------------------------------------------------------
# The regression sentinel
# ---------------------------------------------------------------------------

@dataclass
class Verdict:
    """The sentinel's judgement on one (workload, metric) pair."""

    pair: str  # "<workload>/<metric>"
    value: float
    baseline: Optional[float]
    rel_change: Optional[float]
    bound: float
    status: str  # "ok" | "improved" | "regression" | "insufficient-history"

    def describe(self) -> str:
        if self.status == "insufficient-history":
            return f"{self.pair}: {self.value:.4g}, no baseline yet"
        return (f"{self.pair}: {self.value:.4g} vs EWMA {self.baseline:.4g} "
                f"({100 * self.rel_change:+.1f}%, bound {100 * self.bound:.0f}%)"
                f" -> {self.status}")


@dataclass
class SentinelReport:
    """Everything one check produced; ``ok`` is the CI gate."""

    python: str
    history_len: int
    skipped_other_python: int
    verdicts: List[Verdict] = field(default_factory=list)

    @property
    def regressions(self) -> List[Verdict]:
        return [v for v in self.verdicts if v.status == "regression"]

    @property
    def ok(self) -> bool:
        return not self.regressions


def load_history(path: str) -> List[Dict[str, Any]]:
    """Every v4 record of the history file; corrupt or alien lines are skipped."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError:
        return []
    records = []
    for line in lines:
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if (isinstance(record, dict) and record.get("schema") == HISTORY_SCHEMA
                and isinstance(record.get("metrics"), dict)):
            records.append(record)
    return records


def append_history(path: str, report: Mapping[str, Any]) -> Dict[str, Any]:
    """Append the report's medians to the history; returns the record."""
    record = {
        "schema": HISTORY_SCHEMA,
        "python": python_minor(report["host"]["python"]),
        "cpu_count": report["host"]["cpu_count"],
        "runs": report["runs"],
        "metrics": {key: entry["median"] for key, entry in report["metrics"].items()},
    }
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
    return record


def judge(report: Mapping[str, Any], history: Sequence[Mapping[str, Any]],
          bounds: Mapping[str, Mapping[str, Any]]) -> SentinelReport:
    """Judge the report's medians against the EWMA of ``history``.

    Only records of the report's Python minor version count. A pair is
    gated by the bound of its metric; pairs of other metrics are not
    judged.
    """
    python = python_minor(report["host"]["python"])
    same = [r for r in history if r.get("python") == python]
    result = SentinelReport(python=python, history_len=len(same),
                            skipped_other_python=len(history) - len(same))
    for pair, entry in report["metrics"].items():
        spec = bounds.get(pair.rsplit("/", 1)[-1])
        if spec is None:
            continue
        ewma = ExponentialSmoothing(alpha=DEFAULT_ALPHA)
        seen = 0
        for record in same:
            past = record["metrics"].get(pair)
            # Every gated metric is positive; anything else is corrupt.
            if isinstance(past, (int, float)) and not isinstance(past, bool) and past > 0:
                ewma.update(float(past))
                seen += 1
        value, baseline = entry["median"], ewma.predict()
        if seen < MIN_HISTORY:
            rel, status = None, "insufficient-history"
        else:
            rel = (value - baseline) / baseline
            worse = rel if spec["better"] == "lower" else -rel
            status = ("regression" if worse > spec["bound"]
                      else "improved" if worse < -spec["bound"] else "ok")
        result.verdicts.append(Verdict(pair, value, baseline, rel,
                                       spec["bound"], status))
    return result


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def record(results: Sequence[Mapping[str, Any]], out_path: str,
           history_path: str, check: bool) -> int:
    """Write, judge and append the runs; returns the exit code.

    Nothing is written unless every run is correct. With ``check``, a
    regression verdict exits 2; the run is appended either way, after it
    was judged.
    """
    if not results or not all(r["correct"] for r in results):
        for r in results:
            for problem in r.get("problems", []):
                print(f"FAILED {problem}")
        print("bench: a perf run was not correct; nothing recorded")
        return 1
    report = summarize(results)
    problems = validate_bench_schema(report)
    if problems:
        for problem in problems:
            print(f"SCHEMA PROBLEM: {problem}")
        print("bench: nothing recorded")
        return 1
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"Wrote {out_path}: medians of {report['runs']} runs, "
          f"{report['attempted']} points correct")
    verdict = judge(report, load_history(history_path), load_benchmark()["bounds"])
    append_history(history_path, report)
    print(f"Sentinel ({verdict.history_len} prior Python {verdict.python} records, "
          f"{verdict.skipped_other_python} of other versions ignored):")
    for v in verdict.verdicts:
        print(f"  {v.describe()}")
    if not verdict.ok:
        print(f"REGRESSION: {', '.join(v.pair for v in verdict.regressions)} "
              "beyond bound" + ("" if check else " (advisory; rerun with "
                                "--check to gate on this)"))
        if check:
            return 2
    return 0


def cmd_bench(out_path: str = "BENCH_engine.json", check: bool = False,
              history_path: Optional[str] = None) -> int:
    """CLI entry point: run perf :data:`RUNS` times, then :func:`record`."""
    if not (ROOT / PERF_ARGS[0]).is_file():
        print(f"error: bench needs {PERF_ARGS[0]} of a full checkout; "
              f"none under {ROOT}", file=sys.stderr)
        return 1
    results = []
    for index in range(RUNS):
        start = time.perf_counter()
        result = run_perf()
        results.append(result)
        print(f"run {index + 1}/{RUNS}: correct={result['correct']} "
              f"failed={result.get('failed')}/{result.get('attempted')} "
              f"({time.perf_counter() - start:.0f} s)", flush=True)
        if not result["correct"]:
            break
    return record(results, out_path, history_path or DEFAULT_HISTORY_PATH, check)
