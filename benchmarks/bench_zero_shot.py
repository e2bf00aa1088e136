"""§3.3's zero-shot design choice, quantified.

"We record R/W history into coarse-grained data flows instead of
fine-grained SVM regions to achieve zero-shot predictions for new SVM
regions when switching data pipelines." A short-form video app switches
clips (and hence allocates fresh buffer regions) every ~2.5 s; with
flow-level history the engine keeps prefetching through the switches,
with region-level history every new buffer pays cold starts.
"""

from repro.apps import ShortFormVideoApp
from repro.emulators import make_vsoc
from repro.experiments.runner import run_app


def _factory_without_zero_shot(sim, machine, trace=None, rng=None, obs=None):
    emulator = make_vsoc(sim, machine, trace=trace, rng=rng, obs=obs)
    emulator.engine.zero_shot = False
    return emulator


def test_zero_shot_predictions_survive_pipeline_switches(benchmark, bench_duration):
    def run_both():
        with_zero_shot = run_app(ShortFormVideoApp(), "vSoC",
                                 duration_ms=2 * bench_duration)
        without = run_app(ShortFormVideoApp(), "vSoC",
                          duration_ms=2 * bench_duration,
                          factory=_factory_without_zero_shot)
        return with_zero_shot, without

    with_zs, without = benchmark.pedantic(run_both, rounds=1, iterations=1)
    zs_stats = with_zs.emulator.engine.stats
    no_stats = without.emulator.engine.stats

    benchmark.extra_info["cold_starts_with"] = zs_stats.cold_starts
    benchmark.extra_info["cold_starts_without"] = no_stats.cold_starts
    benchmark.extra_info["fps_with"] = round(with_zs.result.fps, 1)
    benchmark.extra_info["fps_without"] = round(without.result.fps, 1)

    # Flow-level history: a handful of cold starts (emulator startup only).
    # Region-level history: cold starts scale with clips x buffers.
    assert no_stats.cold_starts > 3 * max(1, zs_stats.cold_starts)
    assert zs_stats.launched > no_stats.launched
    assert with_zs.result.fps >= without.result.fps
