"""Structured trace records.

The §2.3 measurement study and §5.2 microbenchmarks are built on
instrumentation of the shared-memory interface and the emulators' SVM
implementations. :class:`TraceLog` is our equivalent: components append
records (a time, an event kind and the kind's fields) and the experiment
layer filters and aggregates them into the paper's CDFs and tables.

The log is on in every run, so it is compact: each kind declares its
field names once and keeps a table of tuple rows ``(time, *values)``,
and an ``array('H')`` of kind indices keeps the record order. Hot sites
write through a :meth:`~TraceLog.channel`, one tuple per record;
:class:`TraceRecord` views are built only by iteration and
:meth:`~TraceLog.of_kind`.
"""

from __future__ import annotations

from array import array
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class TraceRecord:
    """A view of one record.

    Attributes
    ----------
    time:
        Simulated timestamp (ms) at which the event was recorded.
    kind:
        Event class, e.g. ``"svm.access_latency"``, ``"svm.slack"``,
        ``"coherence.maintenance"``, ``"host.op_retired"``.
    fields:
        Payload (sizes, devices, durations, region IDs, ...) in the kind's
        declared order; a trailing field the record left out is absent.
    """

    __slots__ = ("time", "kind", "fields")

    def __init__(self, time: float, kind: str, fields: Optional[Dict[str, Any]] = None):
        self.time = time
        self.kind = kind
        self.fields = {} if fields is None else fields

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

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


class TraceLog:
    """Append-only event log: one table of tuple rows per kind.

    Every record is kept: the paper metrics and the capture-time metrics
    view (:func:`repro.obs.telemetry.derive_run_metrics`) read the whole
    run.
    """

    def __init__(self) -> None:
        self._index: Dict[str, int] = {}
        self._kinds: List[str] = []
        self._fields: List[Tuple[str, ...]] = []
        self._rows: List[List[tuple]] = []
        self._order = array("H")

    def _declare(self, kind: str, fields: Tuple[str, ...]) -> int:
        """The index of ``kind``. Its first use declares its field names; a
        later one may leave out trailing names, and any other list raises."""
        index = self._index.get(kind)
        if index is None:
            index = self._index[kind] = len(self._kinds)
            self._kinds.append(kind)
            self._fields.append(fields)
            self._rows.append([])
        elif self._fields[index][: len(fields)] != fields:
            raise ValueError(
                f"trace kind {kind!r} has fields {self._fields[index]}, not {fields}"
            )
        return index

    def channel(self, kind: str, *fields: str) -> Callable[..., None]:
        """An appender ``write(time, *values)``, values in ``fields`` order
        (trailing ones may be left out). Take it once, at construction."""
        index = self._declare(kind, fields)
        append_row = self._rows[index].append
        append_kind = self._order.append

        def write(*row: Any) -> None:
            append_row(row)
            append_kind(index)

        return write

    def record(self, time: float, kind: str, **fields: Any) -> None:
        """Append one record by keyword (rare kinds and tests)."""
        index = self._declare(kind, tuple(fields))
        self._rows[index].append((time, *fields.values()))
        self._order.append(index)

    def _view(self, index: int, row: tuple) -> TraceRecord:
        fields = dict(zip(self._fields[index], row[1:]))
        return TraceRecord(row[0], self._kinds[index], fields)

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[TraceRecord]:
        """Every record, in the order recorded."""
        for kind, fields, row in self.rows():
            yield TraceRecord(row[0], kind, dict(zip(fields, row[1:])))

    def rows(self) -> Iterator[Tuple[str, Tuple[str, ...], tuple]]:
        """Every record as ``(kind, field names, row)``, in the order
        recorded, without building a view."""
        cursors = [iter(rows) for rows in self._rows]
        kinds, fields = self._kinds, self._fields
        for index in self._order:
            yield kinds[index], fields[index], next(cursors[index])

    def of_kind(self, kind: str) -> List[TraceRecord]:
        """All records of one kind, in time order. O(k)."""
        index = self._index.get(kind)
        if index is None:
            return []
        return [self._view(index, row) for row in self._rows[index]]

    def values(self, kind: str, field_name: str) -> List[Any]:
        """Extract one payload field from every record of ``kind``. O(k)."""
        index = self._index.get(kind)
        if index is None:
            return []
        slot = self._fields[index].index(field_name) + 1
        return [row[slot] for row in self._rows[index]]

    def count(self, kind: str) -> int:
        """Number of records of one kind. O(1)."""
        index = self._index.get(kind)
        return 0 if index is None else len(self._rows[index])

    def kind_counts(self) -> Dict[str, int]:
        """Records per kind, in first-record order: what chaos reports print."""
        return {
            self._kinds[index]: len(self._rows[index])
            for index in dict.fromkeys(self._order)
        }

