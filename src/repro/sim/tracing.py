"""Structured trace records.

The §2.3 measurement study and §5.2 microbenchmarks are built on
instrumentation of the shared-memory interface and the emulators' SVM
implementations. :class:`TraceLog` is our equivalent: components append
:class:`TraceRecord` entries (an event kind plus free-form fields) and the
experiment layer filters and aggregates them into the paper's CDFs and
tables.

The log keeps a per-kind index alongside the time-ordered record list, so
the hot analysis paths (:meth:`TraceLog.of_kind`, :meth:`TraceLog.values`)
are O(records of that kind) instead of O(all records), and
:meth:`TraceLog.count` / :meth:`TraceLog.kind_counts` are O(1) / O(kinds)
rather than a re-walk.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional


class TraceRecord:
    """One instrumentation event.

    A ``__slots__`` value class rather than a (frozen) dataclass: records
    are allocated on the hottest instrumentation path, and the frozen
    dataclass's ``object.__setattr__``-based init measurably dominated
    :meth:`TraceLog.record`. Value semantics (equality, repr) are kept.

    Attributes
    ----------
    time:
        Simulated timestamp (ms) at which the event was recorded.
    kind:
        Event class, e.g. ``"svm.begin_access"``, ``"coherence.copy"``,
        ``"frame.presented"``, ``"prefetch.start"``.
    fields:
        Free-form payload (sizes, devices, durations, region IDs, ...).
    """

    __slots__ = ("time", "kind", "fields")

    def __init__(self, time: float, kind: str, fields: Optional[Dict[str, Any]] = None):
        self.time = time
        self.kind = kind
        self.fields = {} if fields is None else fields

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return (
            self.time == other.time
            and self.kind == other.kind
            and self.fields == other.fields
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceRecord(time={self.time!r}, kind={self.kind!r}, fields={self.fields!r})"


_new_record = TraceRecord.__new__


class TraceLog:
    """Append-only event log with indexed filtering helpers.

    Every record is kept: the paper metrics and the capture-time metrics
    view (:func:`repro.obs.telemetry.derive_run_metrics`) read the whole
    run.
    """

    def __init__(self) -> None:
        self._records: List[TraceRecord] = []
        self._by_kind: Dict[str, List[TraceRecord]] = {}

    def record(self, time: float, kind: str, **fields: Any) -> None:
        """Append one record."""
        # Allocate without the Python-level __init__ frame: this is the
        # single hottest allocation site in a simulation run.
        record = _new_record(TraceRecord)
        record.time = time
        record.kind = kind
        record.fields = fields
        self._records.append(record)
        try:
            self._by_kind[kind].append(record)
        except KeyError:
            self._by_kind[kind] = [record]

    @property
    def recorded_total(self) -> int:
        """Records accepted since construction or the last :meth:`clear`."""
        return len(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def of_kind(self, kind: str) -> List[TraceRecord]:
        """All records of one kind, in time order. O(k)."""
        return list(self._by_kind.get(kind, ()))

    def values(self, kind: str, field_name: str) -> List[Any]:
        """Extract one payload field from every record of ``kind``. O(k)."""
        return [r.fields[field_name] for r in self._by_kind.get(kind, ())]

    def count(self, kind: str) -> int:
        """Number of records of one kind. O(1)."""
        return len(self._by_kind.get(kind, ()))

    def kind_counts(self) -> Dict[str, int]:
        """Histogram of record kinds — the summary chaos reports print."""
        return {kind: len(records) for kind, records in self._by_kind.items()}

    def clear(self) -> None:
        """Drop every record."""
        self._records.clear()
        self._by_kind.clear()
