"""The parallel, memoized experiment engine.

The paper's evaluation (§5, Figs 4-16, Table 2) is hundreds of independent
``(app, emulator, machine, duration, seed)`` points. Each point is a *pure
function* of its spec — the kernel consults no wall clock and no unseeded
randomness — so the engine exploits that purity twice:

* **Parallelism** — :func:`run_many` fans independent specs across CPU
  cores with a :class:`~concurrent.futures.ProcessPoolExecutor` and merges
  results back *in submission order*, so a parallel sweep is bit-identical
  to the serial one (asserted by tests). Workers are forked, inheriting the
  parent's hash seed, which keeps any set/dict iteration order identical
  across the pool.
* **Memoization** — a content-addressed on-disk cache under
  ``.repro-cache/`` keyed by ``sha256(source fingerprint ‖ canonical
  spec)``. Repeated sweeps, benchmarks and CI re-runs skip
  already-simulated points; editing anything under ``src/repro`` changes
  the fingerprint and invalidates every entry at once. Corrupt or
  truncated entries are discarded, never trusted.

Specs
-----
:class:`RunSpec` declares one app run (the common case); :class:`PointSpec`
declares an arbitrary pure module-level function call (used by the density
experiment, whose unit of work is *several* emulator instances sharing one
simulator). Both are plain picklable data; app constructors and emulator
factories are referenced by dotted path, never by object.

Results
-------
Workers return a :class:`RunResult` — the run's :class:`AppResult` plus a
:class:`StatsSummary`, a frozen picklable digest exposing the same read API
as :class:`~repro.metrics.collectors.SvmStats`. Live simulator state never
crosses the process boundary.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, is_dataclass
from functools import lru_cache, partial
from pathlib import Path
from typing import Any, List, Mapping, Optional, Sequence, Tuple, Union

from repro.hw.machine import HIGH_END_DESKTOP, MachineSpec
from repro.metrics.stats import mean

#: Bump to invalidate every cache entry on an engine format change.
CACHE_FORMAT = 1

#: Default cache location (overridable via the environment for CI).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
DEFAULT_CACHE_DIR = ".repro-cache"

#: Set to any non-empty value to skip the worker-count CPU clamp (the
#: pool-determinism tests use it to exercise a real pool on small hosts).
OVERSUBSCRIBE_ENV = "REPRO_ENGINE_OVERSUBSCRIBE"


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunSpec:
    """One (app, emulator, machine, duration, seed) experiment point.

    Everything here is plain data: ``app_factory`` / ``emulator_factory``
    are dotted ``"pkg.mod:name"`` paths resolved inside the worker, and
    ``machine_spec`` is the frozen calibration dataclass itself.
    """

    app_factory: str
    app_kwargs: Mapping[str, Any]
    emulator: str
    machine_spec: MachineSpec = HIGH_END_DESKTOP
    duration_ms: float = 22_000.0
    seed: int = 0
    emulator_factory: Optional[str] = None
    emulator_kwargs: Mapping[str, Any] = field(default_factory=dict)
    #: Capture a TelemetrySnapshot in the worker (see repro.obs.telemetry).
    telemetry: bool = False
    #: Fold the run's spans into a LatencyBudget on the snapshot (implies
    #: telemetry; see repro.obs.critical).
    attribution: bool = False

    @property
    def app_name(self) -> str:
        return self.app_kwargs.get("name", self.app_factory.rsplit(":", 1)[-1])


@dataclass(frozen=True)
class PointSpec:
    """An arbitrary pure experiment point: ``fn(**kwargs)``.

    ``fn`` must be a module-level function addressed by dotted path whose
    result is picklable and fully determined by ``kwargs`` — the escape
    hatch for experiments whose unit of work is not a single app run
    (e.g. a density point running N instances in one simulator).
    """

    fn: str
    kwargs: Mapping[str, Any] = field(default_factory=dict)


Spec = Union[RunSpec, PointSpec]


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StatsSummary:
    """Picklable digest of :class:`~repro.metrics.collectors.SvmStats`.

    Exposes the same read API (method-for-method) so post-hoc consumers —
    Table 2 aggregation, the Fig 16 CDF — work unchanged on engine results.
    """

    duration_ms: float
    access_latency_samples: Tuple[float, ...]
    access_bytes_total: int
    coherence_samples: Tuple[float, ...]
    slack_samples: Tuple[float, ...]

    @classmethod
    def from_stats(cls, stats: Any) -> "StatsSummary":
        return cls(
            duration_ms=stats.duration_ms,
            access_latency_samples=tuple(stats.access_latencies()),
            access_bytes_total=sum(
                int(v) for v in stats.trace.values("svm.access_latency", "bytes")
            ),
            coherence_samples=tuple(stats.coherence_durations()),
            slack_samples=tuple(stats.slack_intervals()),
        )

    # -- SvmStats-compatible read API --------------------------------------
    def access_latencies(self) -> List[float]:
        return list(self.access_latency_samples)

    def coherence_durations(self) -> List[float]:
        return list(self.coherence_samples)

    def slack_intervals(self) -> List[float]:
        return list(self.slack_samples)

    def average_access_latency(self) -> Optional[float]:
        return mean(self.access_latency_samples) if self.access_latency_samples else None

    def average_coherence_cost(self) -> Optional[float]:
        return mean(self.coherence_samples) if self.coherence_samples else None

    def throughput_bytes_per_ms(self) -> float:
        if self.duration_ms <= 0:
            return 0.0
        return self.access_bytes_total / self.duration_ms


@dataclass(frozen=True)
class RunResult:
    """What one :class:`RunSpec` produces (and what the cache stores).

    ``telemetry`` is the worker's :class:`~repro.obs.telemetry.TelemetrySnapshot`
    when the spec asked for one — cached alongside the result, so a
    warm-cache rerun replays telemetry bit-for-bit without simulating.
    """

    result: Any  # AppResult
    stats: Optional[StatsSummary]
    telemetry: Optional[Any] = None  # TelemetrySnapshot


# ---------------------------------------------------------------------------
# Cache keys
# ---------------------------------------------------------------------------

def _canon(value: Any) -> Any:
    """Reduce a spec field to canonical JSON-able data."""
    if is_dataclass(value) and not isinstance(value, type):
        return {"__dataclass__": type(value).__name__, **_canon(asdict(value))}
    if isinstance(value, Mapping):
        return {str(k): _canon(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(
        f"spec field {value!r} is not canonicalizable; specs must be plain data"
    )


def canonical_spec(spec: Spec) -> str:
    """Deterministic JSON form of a spec — the identity half of the key."""
    payload = {"__spec__": type(spec).__name__, **_canon(asdict(spec))}
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@lru_cache(maxsize=8)
def source_fingerprint(root: Optional[str] = None) -> str:
    """Content hash over every ``*.py`` under ``src/repro`` (or ``root``).

    Folded into every cache key so that *any* source change — kernel,
    emulators, apps, the engine itself — invalidates all cached runs. The
    hash covers file contents, not mtimes, so a rebuilt checkout with
    identical sources keeps its cache.
    """
    if root is None:
        import repro

        base = Path(repro.__file__).resolve().parent
    else:
        base = Path(root)
    digest = hashlib.sha256()
    for path in sorted(base.rglob("*.py")):
        digest.update(str(path.relative_to(base)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def cache_key(spec: Spec, fingerprint: Optional[str] = None) -> str:
    """``sha256(source fingerprint ‖ canonical spec)`` — the cache address."""
    if fingerprint is None:
        fingerprint = source_fingerprint()
    digest = hashlib.sha256()
    digest.update(fingerprint.encode())
    digest.update(b"\0")
    digest.update(canonical_spec(spec).encode())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# On-disk cache
# ---------------------------------------------------------------------------

class RunCache:
    """Content-addressed pickle store under one directory.

    One file per entry (``<key>.pkl``), written atomically via a temp file
    + rename so a crashed writer can never publish a half-written entry.
    Loads are paranoid: any unpickling error, format mismatch or key
    mismatch discards the entry and reports a miss.
    """

    def __init__(self, directory: Optional[Union[str, Path]] = None):
        if directory is None:
            directory = os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)
        self.directory = Path(directory)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    def load(self, key: str) -> Optional[Any]:
        """The cached payload for ``key``, or None (corruption = miss)."""
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                entry = pickle.load(fh)
            if (
                not isinstance(entry, dict)
                or entry.get("format") != CACHE_FORMAT
                or entry.get("key") != key
            ):
                raise ValueError("cache entry does not match its address")
            return entry["payload"]
        except FileNotFoundError:
            return None
        except Exception:
            # Truncated pickle, stale format, wrong key, unreadable file:
            # drop the entry so the next write repairs it.
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def store(self, key: str, payload: Any) -> None:
        """Atomically persist ``payload`` under ``key``."""
        self.directory.mkdir(parents=True, exist_ok=True)
        entry = {"format": CACHE_FORMAT, "key": key, "payload": payload}
        tmp = self._path(key).with_suffix(f".tmp.{os.getpid()}")
        with open(tmp, "wb") as fh:
            pickle.dump(entry, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, self._path(key))


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def execute_spec(spec: Spec) -> Any:
    """Run one spec to completion in *this* process (the worker body)."""
    from repro.apps.catalog import resolve_callable

    if isinstance(spec, PointSpec):
        return resolve_callable(spec.fn)(**dict(spec.kwargs))
    from repro.experiments.runner import run_app

    app = resolve_callable(spec.app_factory)(**dict(spec.app_kwargs))
    factory = None
    if spec.emulator_factory is not None:
        factory = partial(
            resolve_callable(spec.emulator_factory), **dict(spec.emulator_kwargs)
        )
    run = run_app(
        app,
        spec.emulator,
        machine_spec=spec.machine_spec,
        duration_ms=spec.duration_ms,
        seed=spec.seed,
        factory=factory,
        telemetry=spec.telemetry,
        attribution=spec.attribution,
    )
    stats = StatsSummary.from_stats(run.stats) if run.stats is not None else None
    return RunResult(result=run.result, stats=stats, telemetry=run.telemetry)


@dataclass
class EngineReport:
    """One :func:`run_many` invocation: ordered results + cache accounting.

    ``jobs`` is what the caller *requested*; ``effective_jobs`` is the
    worker count actually usable after clamping to the host's available
    CPUs — on a 1-CPU box a ``--jobs 32`` sweep reports ``effective_jobs
    == 1``, so downstream consumers (the bench payload) can't publish a
    misleading "parallel" number.
    """

    results: List[Any]
    cache_hits: int
    executed: int
    jobs: int
    wall_s: float
    effective_jobs: int = 1
    #: How misses actually executed: ``"inline"`` (no pool was spun up —
    #: one effective worker, or every spec was a cache hit) or ``"pool"``.
    #: Bench payloads record it so a parallel_speedup measured against an
    #: inline run is never mistaken for pool overhead (or vice versa).
    parallel_mode: str = "inline"

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.executed
        return self.cache_hits / total if total else 0.0


#: Session-wide defaults, set by the CLI's ``--jobs`` / ``--no-cache``
#: flags. They apply only where a caller left the argument unspecified
#: (``jobs=None`` / ``cache=True``); explicit values always win.
_default_jobs: Optional[int] = None
_cache_default: bool = True


def set_default_jobs(jobs: Optional[int]) -> None:
    """Worker count used when ``run_many`` is called with ``jobs=None``."""
    global _default_jobs
    _default_jobs = jobs


def set_cache_default(enabled: bool) -> None:
    """Globally disable (or re-enable) memoization for unspecified callers."""
    global _cache_default
    _cache_default = enabled


def default_jobs() -> int:
    """Worker count when the caller does not say: one per available core."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _pool_context():
    """Fork where available: ~10 ms per worker instead of a fresh
    interpreter, and children inherit the parent's hash seed so set/dict
    iteration order — and therefore every simulated trace — is identical
    across the pool."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platforms without fork
        return multiprocessing.get_context()


def run_many(
    specs: Sequence[Spec],
    jobs: Optional[int] = None,
    cache: Union[bool, RunCache] = True,
    cache_dir: Optional[Union[str, Path]] = None,
) -> EngineReport:
    """Run every spec, in parallel, through the cache; ordered results.

    ``jobs=None`` defers to :func:`set_default_jobs` (serial when unset);
    ``1`` runs serially in-process (no pool overhead);
    ``jobs=N`` fans cache misses over N forked workers, clamped to the
    host's available CPUs — oversubscribing a pure-CPU simulation only
    adds scheduler thrash and misleading speedup numbers. Results always
    come back in ``specs`` order regardless of completion order, so
    parallel and serial invocations of the same sweep are interchangeable.

    ``cache=False`` disables memoization; ``cache_dir`` points the run at a
    non-default store (tests use a temp dir).
    """
    t0 = time.perf_counter()
    specs = list(specs)
    if jobs is None:
        jobs = _default_jobs
    store: Optional[RunCache] = None
    if isinstance(cache, RunCache):
        store = cache
    elif cache and _cache_default:
        store = RunCache(cache_dir)

    results: List[Any] = [None] * len(specs)
    misses: List[Tuple[int, Spec, Optional[str]]] = []
    hits = 0
    if store is not None:
        fingerprint = source_fingerprint()
        for index, spec in enumerate(specs):
            key = cache_key(spec, fingerprint)
            payload = store.load(key)
            if payload is None:
                misses.append((index, spec, key))
            else:
                results[index] = payload
                hits += 1
    else:
        misses = [(index, spec, None) for index, spec in enumerate(specs)]

    requested = jobs if jobs is not None else 1
    effective = max(1, min(requested, default_jobs()))
    if os.environ.get(OVERSUBSCRIBE_ENV):
        # Escape hatch (tests, experiments): honor the requested worker
        # count even past the host's CPU count.
        effective = max(1, requested)
    parallel_mode = "inline"
    if misses:
        worker_count = max(1, min(effective, len(misses)))
        if worker_count == 1:
            produced = [execute_spec(spec) for _index, spec, _key in misses]
        else:
            parallel_mode = "pool"
            with ProcessPoolExecutor(
                max_workers=worker_count, mp_context=_pool_context()
            ) as pool:
                # map() preserves submission order — the deterministic merge.
                produced = list(pool.map(execute_spec, [s for _i, s, _k in misses]))
        for (index, _spec, key), payload in zip(misses, produced):
            results[index] = payload
            if store is not None and key is not None:
                store.store(key, payload)

    return EngineReport(
        results=results,
        cache_hits=hits,
        executed=len(misses),
        jobs=requested,
        wall_s=time.perf_counter() - t0,
        effective_jobs=effective,
        parallel_mode=parallel_mode,
    )


def run_one(spec: Spec, cache: Union[bool, RunCache] = True,
            cache_dir: Optional[Union[str, Path]] = None) -> Any:
    """Single-spec convenience wrapper over :func:`run_many`."""
    return run_many([spec], jobs=1, cache=cache, cache_dir=cache_dir).results[0]


# ---------------------------------------------------------------------------
# Spec builders
# ---------------------------------------------------------------------------

def specs_for_apps(
    app_params: Sequence[Tuple[str, Mapping[str, Any]]],
    emulator: str,
    machine_spec: MachineSpec = HIGH_END_DESKTOP,
    duration_ms: float = 22_000.0,
    seed: int = 0,
    emulator_factory: Optional[str] = None,
    emulator_kwargs: Optional[Mapping[str, Any]] = None,
    telemetry: bool = False,
    attribution: bool = False,
) -> List[RunSpec]:
    """RunSpecs for a catalog parameter list on one emulator/machine."""
    return [
        RunSpec(
            app_factory=path,
            app_kwargs=dict(kwargs),
            emulator=emulator,
            machine_spec=machine_spec,
            duration_ms=duration_ms,
            seed=seed,
            emulator_factory=emulator_factory,
            emulator_kwargs=dict(emulator_kwargs or {}),
            telemetry=telemetry,
            attribution=attribution,
        )
        for path, kwargs in app_params
    ]
