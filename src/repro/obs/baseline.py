"""The regression sentinel: EWMA baselines over ``BENCH_history.jsonl``.

Every ``bench`` (and optionally ``observe``) run appends one JSONL record
of its headline metrics. The sentinel replays that history through the
paper's own forecasting algorithm — single exponential smoothing with
α = 0.5 (:mod:`repro.core.smoothing`, §3.3), the same predictor vSoC uses
for slack intervals and bus bandwidth — and flags the current run when a
metric lands beyond a configurable relative tolerance on the *bad* side
of its baseline. ``bench --check`` turns a flag into a nonzero exit code,
which is the CI gate for "did this PR make vSoC slower?".

Design points:

* the history file is append-only JSONL; corrupt or alien lines are
  skipped, never trusted (the run-cache's paranoia, applied to history);
* an empty or too-short history soft-passes — the first run on a fresh
  checkout (or a freshly added metric) can never fail;
* wall-clock metrics are host-dependent, so records carry the host's CPU
  count and the check only consumes records from a matching host shape
  unless told otherwise.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: The paper's smoothing weight (repro.core.smoothing.DEFAULT_ALPHA —
#: imported lazily there to keep repro.obs importable before repro.core).
DEFAULT_ALPHA = 0.5

#: Schema identifier stamped into (and required from) every history line.
HISTORY_SCHEMA = "repro-bench-history-v1"

#: Default history location, next to BENCH_engine.json.
DEFAULT_HISTORY_PATH = "BENCH_history.jsonl"

#: Relative deviation from the EWMA baseline that counts as a regression.
DEFAULT_TOLERANCE = 0.25

#: Prior observations required before a metric can flag at all.
DEFAULT_MIN_HISTORY = 3

#: History-metric prefix for latency-budget categories (see
#: :meth:`RegressionSentinel.attribution_diff`).
BUDGET_METRIC_PREFIX = "budget."

#: Schema stamped into the attribution diff the sentinel emits on a
#: gated regression.
SENTINEL_ATTRIBUTION_SCHEMA = "repro-sentinel-attribution-v1"


def report_parallel_mode(report: Any) -> Optional[str]:
    """The engine parallel mode a bench report ran its suites under.

    Wall-clock suite timings measured inline are not comparable to pool
    timings (pool spin-up, fork overhead), so the sentinel records the
    mode with each history entry and refuses to baseline across modes.
    """
    if not isinstance(report, dict):
        return None
    suites = report.get("suites")
    modes = set()
    if isinstance(suites, dict):
        for suite in suites.values():
            if isinstance(suite, dict) and isinstance(suite.get("parallel_mode"), str):
                modes.add(suite["parallel_mode"])
    if modes:
        return sorted(modes)[0]
    mode = report.get("parallel_mode")
    return mode if isinstance(mode, str) else None


def budget_history_metrics(budget: Any) -> Dict[str, float]:
    """Flatten a LatencyBudget's category totals into history metric keys.

    ``budget.<category>_ms`` entries ride each bench history record as
    extra metrics, giving the sentinel an EWMA baseline *per latency
    category* — the raw material for :meth:`RegressionSentinel.attribution_diff`.
    """
    return {
        f"{BUDGET_METRIC_PREFIX}{category}_ms": float(ms)
        for category, ms in budget.category_totals().items()
    }


@dataclass(frozen=True)
class MetricSpec:
    """One tracked metric: where it lives in the report and which way is up."""

    key: str  # dotted path into the bench report, e.g. "kernel.speedup"
    higher_is_better: bool


#: The bench metrics the sentinel baselines (dotted paths into the report).
BENCH_METRICS: Tuple[MetricSpec, ...] = (
    MetricSpec("kernel.speedup", higher_is_better=True),
    MetricSpec("kernel.optimized_s", higher_is_better=False),
    MetricSpec("single_run.wall_s", higher_is_better=False),
    MetricSpec("suites.emerging.serial_s", higher_is_better=False),
    MetricSpec("suites.emerging.parallel_s", higher_is_better=False),
    MetricSpec("suites.emerging.warm_s", higher_is_better=False),
    MetricSpec("suites.emerging.warm_cache_hit_rate", higher_is_better=True),
)


def extract_metric(report: Any, dotted: str) -> Optional[float]:
    """Pull ``a.b.c`` out of a nested dict; None when absent or non-numeric.

    A flat dict keyed by the dotted path itself (the shape history records
    store) is accepted too, so a history record round-trips through the
    same accessor as a live report.
    """
    if isinstance(report, dict) and dotted in report:
        node = report[dotted]
        if isinstance(node, bool) or not isinstance(node, (int, float)):
            return None
        return float(node)
    node = report
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return float(node)


@dataclass
class MetricVerdict:
    """The sentinel's judgement on one metric of the current run."""

    metric: str
    value: Optional[float]
    baseline: Optional[float]
    std_error: Optional[float]
    rel_change: Optional[float]
    higher_is_better: bool
    status: str  # "ok" | "improved" | "regression" | "insufficient-history"

    def describe(self) -> str:
        arrow = "↑" if self.higher_is_better else "↓"
        if self.status == "insufficient-history":
            return f"{self.metric}: no baseline yet ({arrow} better)"
        change = f"{100 * self.rel_change:+.1f}%" if self.rel_change is not None else "?"
        return (f"{self.metric}: {self.value:.4g} vs EWMA {self.baseline:.4g} "
                f"({change}, {arrow} better) -> {self.status}")


@dataclass
class SentinelReport:
    """Everything one check produced; ``ok`` is the CI gate."""

    verdicts: List[MetricVerdict] = field(default_factory=list)
    history_len: int = 0
    tolerance: float = DEFAULT_TOLERANCE
    #: History entries ignored because their engine parallel_mode differed
    #: from the current run's (inline vs pool timings don't compare).
    skipped_mismatched: int = 0
    parallel_mode: Optional[str] = None

    @property
    def regressions(self) -> List[MetricVerdict]:
        return [v for v in self.verdicts if v.status == "regression"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "history_len": self.history_len,
            "tolerance": self.tolerance,
            "skipped_mismatched": self.skipped_mismatched,
            "parallel_mode": self.parallel_mode,
            "verdicts": [
                {
                    "metric": v.metric, "value": v.value, "baseline": v.baseline,
                    "std_error": v.std_error, "rel_change": v.rel_change,
                    "higher_is_better": v.higher_is_better, "status": v.status,
                }
                for v in self.verdicts
            ],
        }


class RegressionSentinel:
    """Append-only metric history + EWMA baseline check.

    One sentinel wraps one history file. ``append`` records a run;
    ``check`` compares a fresh report against the EWMA of everything
    recorded *before* it. The two are deliberately separate so a CI job
    checks first (against the committed history) and appends after.
    """

    def __init__(
        self,
        path: str = DEFAULT_HISTORY_PATH,
        alpha: float = DEFAULT_ALPHA,
        tolerance: float = DEFAULT_TOLERANCE,
        min_history: int = DEFAULT_MIN_HISTORY,
        metrics: Iterable[MetricSpec] = BENCH_METRICS,
    ):
        self.path = path
        self.alpha = alpha
        self.tolerance = tolerance
        self.min_history = max(1, min_history)
        self.metrics = tuple(metrics)

    # -- history I/O -------------------------------------------------------
    def load(self, kind: Optional[str] = "bench") -> List[Dict[str, Any]]:
        """Parse the history file, skipping corrupt or alien lines."""
        records: List[Dict[str, Any]] = []
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except (FileNotFoundError, OSError):
            return records
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if not isinstance(record, dict) or record.get("schema") != HISTORY_SCHEMA:
                continue
            if not isinstance(record.get("metrics"), dict):
                continue
            if kind is not None and record.get("kind") != kind:
                continue
            records.append(record)
        return records

    def append(
        self,
        report: Dict[str, Any],
        kind: str = "bench",
        extra_metrics: Optional[Dict[str, float]] = None,
        note: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Append one run's metrics to the history; returns the record."""
        metrics: Dict[str, float] = {}
        for spec in self.metrics:
            value = extract_metric(report, spec.key)
            if value is not None:
                metrics[spec.key] = value
        if extra_metrics:
            metrics.update({k: float(v) for k, v in extra_metrics.items()})
        host: Dict[str, Any] = {"cpu_count": os.cpu_count()}
        report_host = report.get("host") if isinstance(report, dict) else None
        if isinstance(report_host, dict) and "available_cpus" in report_host:
            host["available_cpus"] = report_host["available_cpus"]
        record: Dict[str, Any] = {
            "schema": HISTORY_SCHEMA,
            "kind": kind,
            "metrics": metrics,
            "host": host,
        }
        parallel_mode = report_parallel_mode(report)
        if parallel_mode is not None:
            record["parallel_mode"] = parallel_mode
        if note:
            record["note"] = note
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")))
            fh.write("\n")
        return record

    # -- baselines ---------------------------------------------------------
    def baselines(
        self, history: Optional[List[Dict[str, Any]]] = None
    ) -> Dict[str, Tuple[Optional[float], Optional[float], int]]:
        """Per-metric (EWMA level, std error, observation count)."""
        from repro.core.smoothing import ExponentialSmoothing

        if history is None:
            history = self.load()
        out: Dict[str, Tuple[Optional[float], Optional[float], int]] = {}
        for spec in self.metrics:
            ewma = ExponentialSmoothing(alpha=self.alpha)
            seen = 0
            for record in history:
                value = record["metrics"].get(spec.key)
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    ewma.update(float(value))
                    seen += 1
            out[spec.key] = (ewma.predict(), ewma.std_error, seen)
        return out

    def series(
        self, metric: str, history: Optional[List[Dict[str, Any]]] = None
    ) -> List[float]:
        """The raw observation series for one metric, oldest first."""
        if history is None:
            history = self.load()
        values: List[float] = []
        for record in history:
            value = record["metrics"].get(metric)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                values.append(float(value))
        return values

    # -- the gate ----------------------------------------------------------
    def check(self, report: Dict[str, Any]) -> SentinelReport:
        """Judge ``report`` against the EWMA of the recorded history.

        History entries recorded under a different engine ``parallel_mode``
        than the current report's are skipped (and counted on the result):
        inline and pool wall-clock timings are not comparable baselines.
        """
        history = self.load()
        parallel_mode = report_parallel_mode(report)
        skipped = 0
        if parallel_mode is not None:
            kept = []
            for record in history:
                mode = record.get("parallel_mode")
                if isinstance(mode, str) and mode != parallel_mode:
                    skipped += 1
                else:
                    kept.append(record)
            history = kept
        baselines = self.baselines(history)
        result = SentinelReport(
            history_len=len(history), tolerance=self.tolerance,
            skipped_mismatched=skipped, parallel_mode=parallel_mode,
        )
        for spec in self.metrics:
            value = extract_metric(report, spec.key)
            level, std_error, seen = baselines[spec.key]
            if value is None:
                continue
            if level is None or seen < self.min_history:
                result.verdicts.append(MetricVerdict(
                    metric=spec.key, value=value, baseline=level,
                    std_error=std_error, rel_change=None,
                    higher_is_better=spec.higher_is_better,
                    status="insufficient-history",
                ))
                continue
            if level == 0:
                rel = 0.0 if value == 0 else float("inf") * (1 if value > 0 else -1)
            else:
                rel = (value - level) / abs(level)
            if spec.higher_is_better:
                status = "regression" if rel < -self.tolerance else (
                    "improved" if rel > self.tolerance else "ok")
            else:
                status = "regression" if rel > self.tolerance else (
                    "improved" if rel < -self.tolerance else "ok")
            result.verdicts.append(MetricVerdict(
                metric=spec.key, value=value, baseline=level,
                std_error=std_error, rel_change=rel,
                higher_is_better=spec.higher_is_better, status=status,
            ))
        return result

    # -- regression triage -------------------------------------------------
    def attribution_diff(
        self,
        current: Dict[str, float],
        history: Optional[List[Dict[str, Any]]] = None,
    ) -> Dict[str, Any]:
        """Localize a gated regression to latency-budget categories.

        ``current`` maps ``budget.<category>_ms`` history keys (see
        :func:`budget_history_metrics`) to this run's totals; each is
        diffed against its own EWMA over the recorded history, and the
        dominant positively-shifted category is named — the sentinel's
        answer to "the bench regressed, *where* did the time go?".
        """
        from repro.core.smoothing import ExponentialSmoothing

        if history is None:
            history = self.load()
        cells: List[Dict[str, Any]] = []
        for key in sorted(current):
            ewma = ExponentialSmoothing(alpha=self.alpha)
            seen = 0
            for record in history:
                value = record["metrics"].get(key)
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    ewma.update(float(value))
                    seen += 1
            baseline = ewma.predict()
            value = float(current[key])
            cells.append({
                "metric": key,
                "category": key[len(BUDGET_METRIC_PREFIX):].rsplit("_ms", 1)[0]
                if key.startswith(BUDGET_METRIC_PREFIX) else key,
                "baseline_ms": baseline,
                "value_ms": value,
                "delta_ms": None if baseline is None else value - baseline,
                "observations": seen,
            })
        regressed = [
            c for c in cells
            if c["delta_ms"] is not None and c["delta_ms"] > 0.0
        ]
        total = sum(c["delta_ms"] for c in regressed)
        dominant = None
        headline = "no budget category regressed against its baseline"
        if regressed:
            top = max(regressed, key=lambda c: (c["delta_ms"], c["metric"]))
            share = top["delta_ms"] / total if total > 0 else 0.0
            dominant = {
                "category": top["category"],
                "delta_ms": top["delta_ms"],
                "share": share,
            }
            headline = (
                f"budget +{total:.1f} ms vs EWMA, {share:.0%} from "
                f"{top['category']}"
            )
        return {
            "schema": SENTINEL_ATTRIBUTION_SCHEMA,
            "cells": cells,
            "dominant": dominant,
            "headline": headline,
        }
