"""Crash-consistent checkpointing of a full emulator (ISSUE 4 tentpole).

A :class:`Snapshot` is a *declarative* image of every piece of emulator
state that determines future behaviour: the SVM region hashtable with its
coherence ownership, the virtual fence table, both twin-hypergraph layers
and their region hashtable, the prefetch engine's learned histories and
smoothing state, the degradation ladder, the guest transport counters, the
per-device flow-control windows, and the simulated clock.

What a snapshot deliberately does **not** contain is live continuations —
the generator frames of in-flight processes are not picklable and any
"best effort" serialization of them would break the bit-identity contract.
Instead, the one restore is *deterministic replay*
(:func:`repro.experiments.recover.restore_and_continue`): rebuild a fresh
emulator from the snapshot's recipe, re-run the (deterministic) workload to
the capture time ``T``, recapture, and verify the recaptured digest against
the snapshot. Because every run is a pure function of its inputs, the
replayed state at ``T`` is byte-identical to the crashed run's state at
``T`` — so running on to ``T+Δ`` bit-matches an uninterrupted run. No state
is ever pushed back into a component; when the replay reaches another
state, :meth:`Snapshot.verify_against` refuses it and names the first
diverging key. The checksum turns silent snapshot corruption (truncation,
bit flips, hand editing) into a loud
:class:`~repro.errors.SnapshotCorruptError`.

Format
------
One canonical-JSON document::

    {"version": 1, "recipe": {...}, "state": {...}, "checksum": "sha256..."}

* ``version`` — :data:`SNAPSHOT_FORMAT_VERSION`, an integer; readers
  reject newer versions (forward compatibility is impossible to promise for
  state layouts that do not exist yet).
* ``recipe`` — opaque, caller-provided description of how to re-run the
  workload (emulator name, app, seed, capture time). The replay layer
  round-trips it; this module never interprets it.
* ``state`` — the component states, captured via each component's
  ``snapshot_state()``.
* ``checksum`` — SHA-256 over the canonical JSON of
  ``{"recipe", "state", "version"}``.

Canonical JSON (sorted keys, no whitespace) makes the checksum — and the
digest comparison underpinning the replay guarantee — independent of dict
iteration order.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional, Tuple

from repro.errors import (
    SnapshotCorruptError,
    SnapshotError,
    SnapshotMismatchError,
)

#: Bump on any change to the layout of ``state`` — old snapshots stay
#: readable only through explicit migration, never through guessing.
SNAPSHOT_FORMAT_VERSION = 1


def canonical_json(obj: Any) -> str:
    """Serialize deterministically: sorted keys, minimal separators."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def state_digest(state: Dict[str, Any]) -> str:
    """SHA-256 hex digest of a state dict's canonical JSON."""
    return hashlib.sha256(canonical_json(state).encode("utf-8")).hexdigest()


def _first_divergence(
    a: Any, b: Any, path: str = ""
) -> Optional[Tuple[str, Any, Any]]:
    """Depth-first search for the first differing leaf between two states.

    Returns ``(path, ours, theirs)`` or ``None`` when equal. Keys are
    explored in sorted order so the reported divergence is deterministic.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            where = f"{path}.{key}" if path else str(key)
            if key not in a:
                return (where, "<missing>", b[key])
            if key not in b:
                return (where, a[key], "<missing>")
            found = _first_divergence(a[key], b[key], where)
            if found is not None:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i in range(max(len(a), len(b))):
            where = f"{path}[{i}]"
            if i >= len(a):
                return (where, "<missing>", b[i])
            if i >= len(b):
                return (where, a[i], "<missing>")
            found = _first_divergence(a[i], b[i], where)
            if found is not None:
                return found
        return None
    if a != b:
        return (path or "<root>", a, b)
    return None


class Snapshot:
    """One checksummed checkpoint of a full emulator."""

    def __init__(
        self,
        state: Dict[str, Any],
        recipe: Optional[Dict[str, Any]] = None,
        version: int = SNAPSHOT_FORMAT_VERSION,
        checksum: Optional[str] = None,
    ):
        self.version = version
        self.recipe = recipe if recipe is not None else {}
        self.state = state
        self.checksum = checksum if checksum is not None else self._compute_checksum()

    # -- capture ------------------------------------------------------------
    @classmethod
    def capture(cls, emulator: Any, recipe: Optional[Dict[str, Any]] = None) -> "Snapshot":
        """Checkpoint a live emulator.

        Legal at any simulated time; crash consistency comes from the
        replay-based restore, not from quiescing the emulator first.
        """
        state: Dict[str, Any] = {
            "emulator": emulator.config.name,
            "sim_now": emulator.sim.now,
            "manager": emulator.manager.snapshot_state(),
            "fences": emulator.fence_table.snapshot_state(),
            "twin": emulator.twin.snapshot_state(),
            "transport": emulator.transport.snapshot_state(),
            "flows": {
                name: emulator._vdevs[name].flow.snapshot_state()
                for name in sorted(emulator.vdev_names())
            },
            "engine": (
                None if emulator.engine is None else emulator.engine.snapshot_state()
            ),
            "degradation": (
                None
                if emulator.degradation is None
                else emulator.degradation.snapshot_state()
            ),
        }
        return cls(state, recipe=recipe)

    # -- integrity ----------------------------------------------------------
    def _compute_checksum(self) -> str:
        return state_digest(
            {"recipe": self.recipe, "state": self.state, "version": self.version}
        )

    def digest(self) -> str:
        """Digest of the *state* alone — what replay equivalence compares."""
        return state_digest(self.state)

    def verify_against(self, other: "Snapshot") -> None:
        """Assert another snapshot captured the exact same state.

        Raises :class:`SnapshotMismatchError` naming the first diverging
        key path — the error message is the debugging entry point when a
        replay fails to reconverge (i.e. determinism was broken somewhere).
        """
        if self.digest() == other.digest():
            return
        found = _first_divergence(self.state, other.state)
        if found is None:  # pragma: no cover - digest collision is impossible here
            raise SnapshotMismatchError("digests differ but states compare equal")
        path, ours, theirs = found
        raise SnapshotMismatchError(
            f"replayed state diverges from snapshot at {path!r}: "
            f"snapshot={ours!r} replay={theirs!r}"
        )

    # -- serialization -------------------------------------------------------
    def to_json(self) -> str:
        return canonical_json(
            {
                "version": self.version,
                "recipe": self.recipe,
                "state": self.state,
                "checksum": self.checksum,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Snapshot":
        """Parse + integrity-check a serialized snapshot.

        Truncated, bit-flipped or malformed documents (a ``version`` that is
        not an integer, a ``recipe`` or ``state`` that is not an object, a
        ``checksum`` that is not a string) raise
        :class:`SnapshotCorruptError` — never a snapshot replay would trust.
        """
        try:
            doc = json.loads(text)
        except ValueError as err:
            raise SnapshotCorruptError(f"snapshot is not valid JSON: {err}") from None
        if not isinstance(doc, dict):
            raise SnapshotCorruptError(f"snapshot root must be an object, got {type(doc).__name__}")
        missing = [k for k in ("version", "recipe", "state", "checksum") if k not in doc]
        if missing:
            raise SnapshotCorruptError(f"snapshot is missing keys: {missing}")
        for key, kind, name in (
            ("version", int, "an integer"),
            ("recipe", dict, "an object"),
            ("state", dict, "an object"),
            ("checksum", str, "a string"),
        ):
            value = doc[key]
            if isinstance(value, bool) or not isinstance(value, kind):
                raise SnapshotCorruptError(
                    f"snapshot {key} must be {name}, got {type(value).__name__}"
                )
        if doc["version"] > SNAPSHOT_FORMAT_VERSION:
            raise SnapshotError(
                f"snapshot format v{doc['version']} is newer than supported "
                f"v{SNAPSHOT_FORMAT_VERSION}"
            )
        snapshot = cls(
            doc["state"], recipe=doc["recipe"], version=doc["version"],
            checksum=doc["checksum"],
        )
        expected = snapshot._compute_checksum()
        if doc["checksum"] != expected:
            raise SnapshotCorruptError(
                f"snapshot checksum mismatch: stored {doc['checksum'][:16]}…, "
                f"computed {expected[:16]}… — the file is corrupt or was edited"
            )
        return snapshot

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "Snapshot":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())
