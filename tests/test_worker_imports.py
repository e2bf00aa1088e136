"""A worker that runs one spec loads only the run path.

Each point of the paper's evaluation starts in a fresh interpreter (a
``run_many`` worker, a ``perf/`` child, a CLI call), so every module the
run path imports but never calls is paid once per point, in time and RSS.
The run itself imports nothing: a lazy import there would move set-up
into the first point's timed run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

PROBE = """
import json, sys

before = set(sys.modules)
import repro.experiments.engine
import repro.experiments.explain
import repro.experiments.runner
import repro.obs
import repro.obs.critical
from repro.experiments.engine import RunSpec, execute_spec
from repro.obs.critical import budget_from_snapshot

imported = set(sys.modules)
out = execute_spec(RunSpec(
    app_factory="repro.apps.ar:ArApp", app_kwargs={}, emulator="vSoC",
    duration_ms=300.0, telemetry=True, attribution=True,
))
assert out.result.presented > 0
assert budget_from_snapshot(out.telemetry) is not None
print(json.dumps({
    "imports": sorted(imported - before),
    "run": sorted(set(sys.modules) - imported),
}))
"""

#: The pool, cache and hashing stack: only ``run_many``, ``RunCache`` and
#: the cache key use these.
POOL_AND_CACHE = ("multiprocessing", "concurrent.futures", "pickle", "hashlib")

#: What ``observe`` and ``explain`` use after a run; no worker needs them.
AFTER_THE_RUN = ("repro.obs.export", "repro.obs.diff", "repro.obs.slo")

RUN_PATH_EXPERIMENTS = {
    "repro.experiments",
    "repro.experiments.engine",
    "repro.experiments.explain",
    "repro.experiments.runner",
}


def test_worker_loads_only_the_run_path():
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert "repro.sim.kernel" in loaded["imports"]  # the probe saw the imports
    assert loaded["run"] == []
    unwanted = sorted(
        name for name in loaded["imports"]
        if name in AFTER_THE_RUN
        or any(name == mod or name.startswith(mod + ".") for mod in POOL_AND_CACHE)
        or (name.startswith("repro.experiments") and name not in RUN_PATH_EXPERIMENTS)
    )
    assert unwanted == []
