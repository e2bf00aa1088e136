"""Recovery acceptance driver: ``python -m repro.experiments recover``.

Exercises the three ISSUE-4 pillars end to end and writes a JSON report
(the CI artifact):

1. **Snapshot serialization** — capture → serialize → parse must keep
   the digest, and a deliberately corrupted or truncated document must be
   *rejected* (checksum), never trusted.
2. **Checkpoint/restore determinism** — for each cut point ``T``:
   capture at ``T``, rebuild from the snapshot's recipe, replay to ``T``
   (verifying the recaptured digest against the snapshot), continue to
   ``T+Δ`` — the trace tail after ``T`` must be bit-identical to an
   uninterrupted run's. Replay is the only restore.
3. **Crash recovery + invariants** — the crash-chaos scenarios must
   complete (no deadlock), re-admit every crashed device, and keep the
   frame drop bounded; the invariant auditor must stay clean across the
   non-chaos emulator grid.

Everything is deterministic; a non-zero exit code means an acceptance
criterion failed, and the report names which.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.apps.base import App
from repro.apps.camera import CameraApp
from repro.apps.video import UhdVideoApp
from repro.errors import SnapshotCorruptError, SnapshotError
from repro.experiments.runner import RunRig, build_rig
from repro.recovery import Snapshot, install_auditor
from repro.sim.tracing import TraceLog

#: Workloads the determinism matrix cycles through.
APP_FACTORIES: Dict[str, Callable[[], App]] = {
    "video": UhdVideoApp,
    "camera": CameraApp,
}


def build_harness(emulator_name: str, app_name: str, seed: int = 0) -> RunRig:
    """One run's rig with its app installed, clock not yet started.

    Identical arguments give bit-identical behaviour. The caller runs the
    clock in steps (to a cut point, then on), which
    :func:`~repro.experiments.runner.drive` does not.
    """
    rig = build_rig(emulator_name, seed=seed)
    app = APP_FACTORIES[app_name]()
    if not app.install(rig.sim, rig.emulator):
        raise RuntimeError(f"app {app_name!r} failed to install on {emulator_name}")
    return rig


def trace_tuples(trace: TraceLog) -> List[Tuple[float, str, tuple]]:
    """A trace reduced to comparable tuples (bit-identity checks)."""
    return [
        (record.time, record.kind, tuple(sorted(record.fields.items())))
        for record in trace
    ]


#: The keys of a replay recipe: exactly the arguments of :func:`build_harness`.
RECIPE_KEYS = ("emulator", "app", "seed")


def checkpoint_recipe(emulator_name: str, app_name: str, seed: int) -> Dict[str, Any]:
    """The replay recipe a snapshot carries: how to rebuild this run.

    The cut point is the snapshot's own ``sim_now``, so it is not repeated.
    """
    return {"emulator": emulator_name, "app": app_name, "seed": seed}


def capture_at(
    emulator_name: str, app_name: str, seed: int, cut_ms: float
) -> Snapshot:
    """Run a fresh rig to ``cut_ms`` and checkpoint it."""
    rig = build_harness(emulator_name, app_name, seed=seed)
    rig.sim.run(until=cut_ms)
    return Snapshot.capture(
        rig.emulator,
        recipe=checkpoint_recipe(emulator_name, app_name, seed),
    )


def restore_and_continue(snapshot: Snapshot, total_ms: float) -> RunRig:
    """The replay-based restore: rebuild, replay to T (verified), run to Δ.

    Raises :class:`~repro.errors.SnapshotError` before building anything
    if the recipe lacks one of :data:`RECIPE_KEYS` or carries another key
    (replay would silently ignore it), and
    :class:`~repro.errors.SnapshotMismatchError` if the replayed state at
    ``T`` diverges from the snapshot — determinism was broken.
    """
    recipe = snapshot.recipe
    for key in RECIPE_KEYS:
        if key not in recipe:
            raise SnapshotError(f"snapshot recipe lacks {key!r}")
    for key in sorted(recipe):
        if key not in RECIPE_KEYS:
            raise SnapshotError(f"snapshot recipe has {key!r}, which replay does not use")
    rig = build_harness(recipe["emulator"], recipe["app"], seed=recipe["seed"])
    rig.sim.run(until=snapshot.state["sim_now"])
    recaptured = Snapshot.capture(rig.emulator, recipe=recipe)
    snapshot.verify_against(recaptured)
    rig.sim.run(until=total_ms)
    return rig


def checkpoint_restore_matrix(
    cut_points_ms: List[float],
    emulators: Tuple[str, ...] = ("vSoC", "GAE"),
    apps: Tuple[str, ...] = ("video", "camera"),
    total_ms: float = 6_000.0,
    seed: int = 0,
) -> List[Dict[str, Any]]:
    """The acceptance matrix: restore-at-T must bit-match uninterrupted.

    For each (emulator, app): one uninterrupted reference run, then one
    checkpoint + serialize + restore + continue per cut point, comparing
    the post-cut trace tails tuple-for-tuple.
    """
    results: List[Dict[str, Any]] = []
    for emulator_name in emulators:
        for app_name in apps:
            reference = build_harness(emulator_name, app_name, seed=seed)
            reference.sim.run(until=total_ms)
            ref_tuples = trace_tuples(reference.trace)
            for cut_ms in cut_points_ms:
                snapshot = capture_at(emulator_name, app_name, seed, cut_ms)
                # Serialize + reparse so the comparison covers the on-disk
                # format, not just the in-memory object.
                snapshot = Snapshot.from_json(snapshot.to_json())
                entry: Dict[str, Any] = {
                    "emulator": emulator_name,
                    "app": app_name,
                    "cut_ms": cut_ms,
                }
                try:
                    resumed = restore_and_continue(snapshot, total_ms)
                except SnapshotError as err:
                    entry.update(identical=False, error=str(err))
                    results.append(entry)
                    continue
                ref_tail = [t for t in ref_tuples if t[0] >= cut_ms]
                resumed_tail = [
                    t for t in trace_tuples(resumed.trace) if t[0] >= cut_ms
                ]
                entry["identical"] = ref_tail == resumed_tail
                entry["tail_records"] = len(ref_tail)
                results.append(entry)
    return results


def snapshot_roundtrip_check(
    emulator_name: str = "vSoC", app_name: str = "video", cut_ms: float = 2_500.0,
    seed: int = 0,
) -> Dict[str, Any]:
    """Serialization round-trip, and corruption rejection."""
    snapshot = capture_at(emulator_name, app_name, seed, cut_ms)
    document = snapshot.to_json()

    # Serialize → parse must be lossless.
    serialize_ok = Snapshot.from_json(document).digest() == snapshot.digest()

    # Corruption must be detected, not silently restored: flip one byte in
    # the serialized state (and separately truncate the document).
    mangled = document.replace('"sim_now"', '"sim_nox"', 1)
    corrupt_detected = False
    try:
        Snapshot.from_json(mangled)
    except SnapshotCorruptError:
        corrupt_detected = True
    truncated_detected = False
    try:
        Snapshot.from_json(document[: len(document) // 2])
    except SnapshotCorruptError:
        truncated_detected = True

    return {
        "serialization_lossless": serialize_ok,
        "corruption_rejected": corrupt_detected,
        "truncation_rejected": truncated_detected,
    }


def crash_recovery_check(
    quick: bool = False, strict_audit: bool = False, seed: int = 0
) -> Dict[str, Any]:
    """Crash-chaos scenarios: completion, re-admission, bounded frame drop.

    ``strict_audit=True`` makes the auditor raise
    :class:`~repro.errors.InvariantViolation` on the first violation
    instead of tallying them.
    """
    from repro.experiments.chaos import (
        crash_chaos_plan,
        crash_with_faults_plan,
        run_chaos,
    )
    from repro.faults import FaultPlan

    # The latest crash lands at 6 000 ms; the run must extend past its
    # downtime so re-admission (and the recovered steady state) is visible.
    duration = 8_000.0 if quick else 10_000.0
    baseline = run_chaos(plan=FaultPlan(), duration_ms=duration, seed=seed)
    scenarios = {
        "crash-only": crash_chaos_plan(),
        "crash-plus-faults": crash_with_faults_plan(),
    }
    out: Dict[str, Any] = {"baseline_fps": baseline.fps, "scenarios": {}}
    for label, plan in scenarios.items():
        result = run_chaos(plan=plan, duration_ms=duration, seed=seed,
                           audit=True, strict_audit=strict_audit)
        out["scenarios"][label] = {
            "fps": result.fps,
            "steady_fps": result.steady_fps,
            "crashes": result.crashes,
            "recoveries": result.recoveries,
            "aborted_commands": result.aborted_commands,
            "poisoned_fences": result.poisoned_fences,
            "quarantined_regions": result.quarantined_regions,
            "replayed_copies": result.replayed_copies,
            "audit_violations": result.audit_violations,
            "all_recovered": result.recoveries == result.crashes > 0,
            # "bounded frame drop": the run keeps presenting frames at a
            # usable rate despite losing devices for hundreds of ms.
            "fps_bounded": result.fps >= 0.5 * baseline.fps,
        }
    return out


def audited_grid_check(
    quick: bool = False,
    emulators: Tuple[str, ...] = ("vSoC", "GAE", "Trinity"),
    strict_audit: bool = False,
    seed: int = 0,
) -> Dict[str, Any]:
    """Run the non-chaos grid with the auditor on: must be violation-free."""
    duration = 4_000.0 if quick else 8_000.0
    grid: Dict[str, Any] = {}
    total = 0
    for emulator_name in emulators:
        for app_name in APP_FACTORIES:
            try:
                rig = build_harness(emulator_name, app_name, seed=seed)
            except RuntimeError:
                # Not every emulator supports every workload (e.g. no
                # camera passthrough); an unsupported cell is not a
                # coherence violation.
                grid[f"{emulator_name}/{app_name}"] = {"skipped": True}
                continue
            auditor = install_auditor(rig.emulator,
                                      raise_on_violation=strict_audit)
            rig.sim.run(until=duration)
            auditor.sweep()  # one final sweep at the end state
            report = auditor.report()
            grid[f"{emulator_name}/{app_name}"] = {
                "audits": report["audits"],
                "checks": report["checks"],
                "violations": len(report["violations"]),
            }
            total += len(report["violations"])
    return {"grid": grid, "total_violations": total}


def _recover_reproduce_line(quick: bool, seed: int, strict_audit: bool) -> str:
    """The one-line command that replays this exact recover run."""
    flags = ""
    if quick:
        flags += " --quick"
    if strict_audit:
        flags += " --strict-audit"
    return f"REPRODUCE: python -m repro.experiments recover --seed {seed}{flags}"


def cmd_recover(
    quick: bool = False,
    report_path: Optional[str] = None,
    seed: int = 0,
    strict_audit: bool = False,
) -> int:
    """The ``recover`` subcommand. Returns a process exit code.

    ``strict_audit=True`` arms the invariant auditor in raising mode for
    the crash scenarios and the non-chaos grid; the first violation
    aborts the run (with a REPRODUCE line) instead of being tallied.
    """
    from repro.errors import InvariantViolation

    cuts = [1_234.5, 2_000.0] if quick else [987.6, 1_500.0, 2_345.0, 3_000.0, 4_321.0]
    total = 5_000.0 if quick else 6_000.0

    print("Snapshot round-trip + corruption rejection:")
    roundtrip = snapshot_roundtrip_check(seed=seed)
    for key, value in roundtrip.items():
        print(f"  {key}: {value}")

    print("\nCheckpoint/restore determinism (restore at T, run to T+Δ):")
    matrix = checkpoint_restore_matrix(cuts, total_ms=total, seed=seed)
    for entry in matrix:
        status = "bit-identical" if entry.get("identical") else f"DIVERGED: {entry.get('error', 'trace tail differs')}"
        print(f"  {entry['emulator']:6s} {entry['app']:6s} T={entry['cut_ms']:7.1f}ms  {status}")

    try:
        print("\nDevice-crash recovery:")
        crash = crash_recovery_check(quick=quick, strict_audit=strict_audit,
                                     seed=seed)
        print(f"  baseline fps: {crash['baseline_fps']:.1f}")
        for label, r in crash["scenarios"].items():
            print(
                f"  {label:18s} fps={r['fps']:.1f} crashes={r['crashes']} "
                f"recoveries={r['recoveries']} aborted={r['aborted_commands']} "
                f"poisoned={r['poisoned_fences']} replayed={r['replayed_copies']} "
                f"violations={r['audit_violations']}"
            )

        print("\nAudited non-chaos grid:")
        audited = audited_grid_check(quick=quick, strict_audit=strict_audit,
                                     seed=seed)
    except InvariantViolation as err:
        print(f"\nFAILED: invariant {err.invariant!r} violated under "
              f"strict audit: {err}")
        print(_recover_reproduce_line(quick, seed, strict_audit))
        return 1
    for cell, r in audited["grid"].items():
        if r.get("skipped"):
            print(f"  {cell:16s} skipped (workload unsupported)")
            continue
        print(f"  {cell:16s} audits={r['audits']:4d} checks={r['checks']:6d} "
              f"violations={r['violations']}")

    failures: List[str] = []
    if not all(roundtrip.values()):
        failures.append("snapshot round-trip / corruption rejection")
    if not all(entry.get("identical") for entry in matrix):
        failures.append("checkpoint/restore determinism")
    for label, r in crash["scenarios"].items():
        if not (r["all_recovered"] and r["fps_bounded"]):
            failures.append(f"crash recovery ({label})")
        if r["audit_violations"]:
            failures.append(f"invariant violations under chaos ({label})")
    if audited["total_violations"]:
        failures.append("invariant violations on the non-chaos grid")

    report = {
        "quick": quick,
        "seed": seed,
        "strict_audit": strict_audit,
        "roundtrip": roundtrip,
        "checkpoint_restore": matrix,
        "crash_recovery": crash,
        "audited_grid": audited,
        "failures": failures,
        "ok": not failures,
    }
    if report_path is not None:
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"\nreport written to {report_path}")

    if failures:
        print(f"\nFAILED: {', '.join(failures)}")
        print(_recover_reproduce_line(quick, seed, strict_audit))
        return 1
    print("\nAll recovery acceptance checks passed.")
    return 0
