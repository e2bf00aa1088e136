"""Tests for the parallel memoized experiment engine."""

import pickle

import pytest

from repro.apps.catalog import build_app, emerging_app_params
from repro.experiments import engine
from repro.experiments.engine import (
    PointSpec,
    RunCache,
    RunSpec,
    cache_key,
    canonical_spec,
    run_many,
    source_fingerprint,
    specs_for_apps,
)
from repro.experiments.runner import run_app
from repro.metrics.collectors import SvmStats

EMULATORS = ("vSoC", "GAE", "QEMU-KVM")


def _grid_specs(duration_ms=2_000.0):
    """3 emulators x 2 apps — the determinism-test grid."""
    params = emerging_app_params(seed=0, per_category=1)[:2]
    specs = []
    for name in EMULATORS:
        specs.extend(specs_for_apps(params, name, duration_ms=duration_ms))
    return specs


# ---------------------------------------------------------------------------
# Spec hygiene
# ---------------------------------------------------------------------------

def test_specs_are_picklable_and_hashable():
    spec = _grid_specs()[0]
    assert pickle.loads(pickle.dumps(spec)) == spec
    assert canonical_spec(spec) == canonical_spec(pickle.loads(pickle.dumps(spec)))


def test_canonical_spec_is_order_insensitive():
    a = RunSpec(app_factory="repro.apps.video:UhdVideoApp",
                app_kwargs={"buffers": 3, "name": "x"}, emulator="vSoC")
    b = RunSpec(app_factory="repro.apps.video:UhdVideoApp",
                app_kwargs={"name": "x", "buffers": 3}, emulator="vSoC")
    assert canonical_spec(a) == canonical_spec(b)


def test_different_specs_key_differently():
    base = _grid_specs()[0]
    import dataclasses

    other = dataclasses.replace(base, seed=1)
    fp = "f" * 64
    assert cache_key(base, fp) != cache_key(other, fp)


def test_non_plain_data_spec_rejected():
    spec = PointSpec(fn="x:y", kwargs={"bad": object()})
    with pytest.raises(TypeError):
        canonical_spec(spec)


# ---------------------------------------------------------------------------
# Parallel determinism (the engine's core promise)
# ---------------------------------------------------------------------------

def test_parallel_bit_identical_to_serial(monkeypatch):
    # Force a real pool even on a 1-CPU host: the point is cross-process
    # determinism, not scheduling efficiency.
    monkeypatch.setenv("REPRO_ENGINE_OVERSUBSCRIBE", "1")
    specs = _grid_specs()
    serial = run_many(specs, jobs=1, cache=False)
    parallel = run_many(specs, jobs=3, cache=False)
    assert serial.executed == parallel.executed == len(specs)
    assert serial.results == parallel.results
    # And both match the direct in-process runner, app by app.
    for spec, run in zip(specs, serial.results):
        direct = run_app(build_app((spec.app_factory, dict(spec.app_kwargs))),
                         spec.emulator, duration_ms=spec.duration_ms,
                         seed=spec.seed)
        assert run.result == direct.result


def test_engine_path_matches_legacy_app_instances():
    params = emerging_app_params(seed=0, per_category=1)[:2]
    legacy = [run_app(build_app(p), "vSoC", duration_ms=2_000.0) for p in params]
    engine_backed = run_many(
        specs_for_apps(params, "vSoC", duration_ms=2_000.0), cache=False
    )
    assert [r.result for r in legacy] == [r.result for r in engine_backed.results]


# ---------------------------------------------------------------------------
# Memoization
# ---------------------------------------------------------------------------

def test_warm_cache_rerun_executes_nothing(tmp_path, monkeypatch):
    specs = _grid_specs()
    store = RunCache(tmp_path / "cache")
    cold = run_many(specs, jobs=1, cache=store)
    assert cold.cache_hits == 0 and cold.executed == len(specs)

    def bomb(_spec):
        raise AssertionError("warm rerun must not simulate anything")

    monkeypatch.setattr(engine, "execute_spec", bomb)
    warm = run_many(specs, jobs=1, cache=store)
    assert warm.executed == 0
    assert warm.cache_hits == len(specs)
    assert warm.hit_rate == 1.0
    assert warm.results == cold.results


def test_stats_summary_round_trips_with_read_api(tmp_path):
    spec = _grid_specs()[0]
    run = run_many([spec], jobs=1, cache=RunCache(tmp_path)).results[0]
    stats = run.stats
    assert isinstance(stats, SvmStats)
    assert all(isinstance(v, float) for v in stats.access_latency_samples)
    if stats.access_latency_samples:
        assert stats.average_access_latency() > 0
    assert stats.throughput_bytes_per_ms() >= 0


def test_cache_disabled_always_executes(tmp_path):
    specs = _grid_specs()[:1]
    first = run_many(specs, jobs=1, cache=False, cache_dir=tmp_path)
    second = run_many(specs, jobs=1, cache=False, cache_dir=tmp_path)
    assert first.executed == second.executed == 1
    assert not list(tmp_path.iterdir())  # nothing written


# ---------------------------------------------------------------------------
# Invalidation
# ---------------------------------------------------------------------------

def test_fingerprint_changes_when_sources_change(tmp_path):
    tree = tmp_path / "srcs"
    tree.mkdir()
    (tree / "mod.py").write_text("X = 1\n")
    source_fingerprint.cache_clear()
    before = source_fingerprint(str(tree))
    (tree / "mod.py").write_text("X = 2\n")
    source_fingerprint.cache_clear()
    after = source_fingerprint(str(tree))
    assert before != after

    spec = _grid_specs()[0]
    assert cache_key(spec, before) != cache_key(spec, after)


def test_fingerprint_covers_file_names_not_just_contents(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir(), b.mkdir()
    (a / "one.py").write_text("X = 1\n")
    (b / "two.py").write_text("X = 1\n")
    source_fingerprint.cache_clear()
    assert source_fingerprint(str(a)) != source_fingerprint(str(b))


def test_fingerprint_shift_forces_resimulation(tmp_path):
    spec = _grid_specs()[0]
    store = RunCache(tmp_path)
    old_key = cache_key(spec, "0" * 64)
    new_key = cache_key(spec, "1" * 64)
    store.store(old_key, "stale")
    assert store.load(new_key) is None  # different fingerprint: miss


def test_corrupt_cache_entry_discarded_and_reexecuted(tmp_path):
    spec = _grid_specs()[0]
    store = RunCache(tmp_path)
    cold = run_many([spec], jobs=1, cache=store)
    key = cache_key(spec)
    path = store._path(key)
    assert path.exists()

    # Truncate the pickle mid-stream.
    path.write_bytes(path.read_bytes()[:20])
    assert store.load(key) is None
    assert not path.exists()  # bad entry removed, not retried forever

    again = run_many([spec], jobs=1, cache=store)
    assert again.executed == 1
    assert again.results == cold.results


def test_failed_store_leaves_no_temp_file(tmp_path):
    store = RunCache(tmp_path)
    with pytest.raises(Exception):
        store.store("k", lambda: 0)  # a lambda does not pickle
    assert list(tmp_path.iterdir()) == []


def test_wrong_key_payload_rejected(tmp_path):
    store = RunCache(tmp_path)
    store.store("a" * 64, {"v": 1})
    # Copy the valid entry to a different address: key check must reject it.
    (tmp_path / ("b" * 64 + ".pkl")).write_bytes(
        (tmp_path / ("a" * 64 + ".pkl")).read_bytes()
    )
    assert store.load("b" * 64) is None
    assert store.load("a" * 64) == {"v": 1}


# ---------------------------------------------------------------------------
# PointSpec escape hatch
# ---------------------------------------------------------------------------

def test_point_spec_runs_module_function(tmp_path):
    from repro.experiments.density import density_point

    spec = PointSpec(
        fn="repro.experiments.density:density_point",
        kwargs=dict(emulator_name="vSoC", count=1, duration_ms=2_000.0, seed=0),
    )
    via_engine = run_many([spec], jobs=1, cache=RunCache(tmp_path)).results[0]
    direct = density_point("vSoC", 1, duration_ms=2_000.0, seed=0)
    assert via_engine == direct


# ---------------------------------------------------------------------------
# Worker-count clamping (honest parallel bench numbers)
# ---------------------------------------------------------------------------

def test_jobs_clamped_to_available_cpus(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE_OVERSUBSCRIBE", raising=False)
    from repro.experiments.engine import default_jobs

    specs = _grid_specs(duration_ms=1_000.0)[:2]
    report = run_many(specs, jobs=32, cache=False)
    assert report.jobs == 32  # the request is preserved for the record
    assert report.effective_jobs == min(32, default_jobs())
    assert report.effective_jobs >= 1


def test_oversubscribe_env_lifts_clamp(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE_OVERSUBSCRIBE", "1")
    specs = _grid_specs(duration_ms=1_000.0)[:2]
    report = run_many(specs, jobs=3, cache=False)
    assert report.jobs == 3
    assert report.effective_jobs == 3


def test_serial_run_reports_single_effective_job():
    specs = _grid_specs(duration_ms=1_000.0)[:1]
    report = run_many(specs, jobs=1, cache=False)
    assert report.jobs == 1
    assert report.effective_jobs == 1


def test_parallel_mode_records_how_misses_actually_ran(monkeypatch, tmp_path):
    # "parallel_speedup: 0.956" on a 1-CPU host confused a reader into
    # hunting pool overhead that was never there: the run was inline both
    # times. The report now says which path executed the misses.
    specs = _grid_specs(duration_ms=1_000.0)[:2]
    monkeypatch.delenv("REPRO_ENGINE_OVERSUBSCRIBE", raising=False)
    inline = run_many(specs, jobs=1, cache=False)
    assert inline.parallel_mode == "inline"

    monkeypatch.setenv("REPRO_ENGINE_OVERSUBSCRIBE", "1")
    pooled = run_many(specs, jobs=2, cache=RunCache(tmp_path))
    assert pooled.parallel_mode == "pool"
    assert pooled.results == inline.results

    # A fully-warm rerun executes nothing — no pool spins up, and the
    # report must not pretend one did.
    warm = run_many(specs, jobs=2, cache=RunCache(tmp_path))
    assert warm.executed == 0
    assert warm.parallel_mode == "inline"
