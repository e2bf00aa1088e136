"""The ``bench`` gate, driven on canned ``perf/run.py`` output.

Nothing here runs perf: each test builds the lines a perf run prints,
parses them as ``bench`` does, and records them into a scratch history
with the bounds of the repository's ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import platform

import pytest

from repro.experiments.bench import (
    BENCH_SCHEMA,
    RUNS,
    judge,
    load_benchmark,
    load_history,
    parse_run,
    record,
    summarize,
    validate_bench_schema,
)

BENCHMARK = load_benchmark()
#: One plausible median per metric; every workload shares them.
BASE = {"host_ms_per_sim_s": (14.0, "ms/s"), "setup_s": (0.14, "s"),
        "peak_rss_mb": (41.0, "MiB")}


def perf_output(scale=None, correct=True, failed_lines=()):
    """What one ``perf/run.py --workload all`` run prints; ``scale`` maps a
    ``"<workload>/<metric>"`` pair to a factor on its base value."""
    scale = scale or {}
    metrics = {
        f"{workload}/{metric}": {"value": value * scale.get(f"{workload}/{metric}", 1.0),
                                 "unit": unit}
        for workload in BENCHMARK["workloads"]
        for metric, (value, unit) in BASE.items()
    }
    line = json.dumps({"correct": correct, "attempted": 72,
                       "failed": len(failed_lines), "metrics": metrics})
    return "\n".join(["seed 0, pinned: true", "emerging-vsoc: 3 passes x 10 points",
                      *failed_lines, line])


def runs(scale=None):
    return [parse_run(perf_output(scale)) for _ in range(RUNS)]


@pytest.fixture
def paths(tmp_path):
    """``(out, history)`` with three prior records at the base values."""
    out, history = str(tmp_path / "BENCH_engine.json"), str(tmp_path / "hist.jsonl")
    for _ in range(3):
        assert record(runs(), out, history, check=True) == 0
    return out, history


def _lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.readlines()


def test_incorrect_run_is_refused_and_nothing_recorded(tmp_path, paths, capsys):
    out, history = str(tmp_path / "fresh.json"), paths[1]
    before = _lines(history)
    failed = parse_run(perf_output(correct=False, failed_lines=[
        "FAILED emerging-vsoc: ar-01: digest 1234 != pin abcd"]))
    assert failed["correct"] is False
    assert record(runs()[:2] + [failed], out, history, check=False) == 1
    assert "ar-01: digest 1234 != pin abcd" in capsys.readouterr().out
    # A run that died without a result line is not correct either.
    crashed = parse_run("seed 0, pinned: true\n", returncode=1)
    assert record(runs()[:4] + [crashed], out, history, check=False) == 1
    assert not (tmp_path / "fresh.json").exists()
    assert _lines(history) == before


def test_eleven_percent_slower_flags_only_that_pair(paths):
    out, history = paths
    slowed = "emerging-vsoc/host_ms_per_sim_s"
    report = summarize(runs({slowed: 1.11}))
    verdict = judge(report, load_history(history), BENCHMARK["bounds"])
    assert [v.pair for v in verdict.regressions] == [slowed]
    assert len(verdict.verdicts) == 12
    assert record(runs({slowed: 1.11}), out, history, check=True) == 2
    # Recorded all the same: the gate judges a run before appending it.
    assert len(load_history(history)) == 4


def test_nine_percent_slower_passes(paths):
    out, history = paths
    assert record(runs({"emerging-vsoc/host_ms_per_sim_s": 1.09}), out, history,
                  check=True) == 0
    assert len(load_history(history)) == 4


def test_six_percent_more_rss_flags(paths):
    out, history = paths
    grown = "explain-grid/peak_rss_mb"
    verdict = judge(summarize(runs({grown: 1.06})), load_history(history),
                    BENCHMARK["bounds"])
    assert [v.pair for v in verdict.regressions] == [grown]
    assert record(runs({grown: 1.06}), out, history, check=True) == 2


def test_slowdown_is_advisory_without_check(paths, capsys):
    out, history = paths
    assert record(runs({"popular-vsoc/setup_s": 1.5}), out, history,
                  check=False) == 0
    assert "REGRESSION: popular-vsoc/setup_s" in capsys.readouterr().out


def test_report_is_schema_v4_of_medians(paths):
    out, history = paths
    factors = [1.0, 1.2, 0.9, 1.1, 1.05]
    pair = "popular-vsoc/host_ms_per_sim_s"
    results = [parse_run(perf_output({pair: f})) for f in factors]
    assert record(results, out, history, check=True) == 0
    with open(out, encoding="utf-8") as fh:
        report = json.load(fh)
    assert validate_bench_schema(report) == []
    assert report["schema"] == BENCH_SCHEMA
    assert report["host"]["python"] == platform.python_version()
    assert report["metrics"][pair]["median"] == pytest.approx(14.0 * 1.05)
    assert report["metrics"][pair]["values"] == pytest.approx(
        [14.0 * f for f in factors])
    assert load_history(history)[-1]["metrics"][pair] == report["metrics"][pair]["median"]


def test_schema_names_every_problem():
    report = summarize(runs())
    assert validate_bench_schema(report) == []
    broken = json.loads(json.dumps(report))
    broken["schema"] = "repro-bench-engine-v3"
    broken["correct"] = False
    broken["runs"] = 4
    del broken["metrics"]["explain-grid/setup_s"]
    broken["metrics"]["explain-grid/kernel_s"] = {"median": 1.0, "values": [1.0] * 5}
    broken["metrics"]["popular-vsoc/peak_rss_mb"]["median"] = 0
    problems = "\n".join(validate_bench_schema(broken))
    for needle in ("schema", "correct", "runs", "missing 'explain-grid/setup_s'",
                   "unexpected 'explain-grid/kernel_s'",
                   "popular-vsoc/peak_rss_mb.median"):
        assert needle in problems
