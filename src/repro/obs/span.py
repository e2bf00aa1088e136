"""Span-based causal tracing over the deterministic sim clock.

A :class:`Span` is a named interval of simulated time on a *track* (one
virtual device, executor thread, or host subsystem). Spans carry:

* a ``span_id`` — unique and increasing in recording order, renumbered
  in start order by the run's :class:`SpanView`; the tie-breaker
  wherever spans overlap;
* a ``flow`` id — the cross-device causal thread. One camera frame gets
  one flow id at birth and every span it touches anywhere in the stack
  (guest driver, transport kick, SVM access, coherence copy, prefetch,
  fence, presentation) is stamped with it, so the exported trace shows a
  single connected arrow chain per frame.

The :class:`Tracer` is the factory and sink. It never yields, sleeps, or
consults randomness — opening and closing spans only reads ``sim.now`` —
so instrumentation cannot perturb a run: simulated results are identical
with tracing enabled or disabled (tests assert this bit-for-bit).

A disabled tracer (``Tracer(enabled=False)``, or :data:`NULL_TRACER` when
no simulator is at hand) records nothing: every ``begin`` returns the
shared :data:`NULL_SPAN` sentinel and every other method is a no-op. The
call itself still builds its arguments, so call sites on per-stage and
per-frame paths test ``tracer.enabled`` first and skip it (DESIGN.md §7).

The tracer records live only the spans no trace record carries: stages,
transport kicks, fence waits and signals, and presented frames. Every
other span is a fact the always-on :class:`~repro.sim.tracing.TraceLog`
already holds, so :class:`SpanView` reads it from its row at capture
(:data:`ROW_SPANS`). One walk over the live spans and the rows builds a
compact per-flow table that attribution sweeps; :class:`Span` objects
are built from the same walk only for the exporters.
"""

from __future__ import annotations

from math import inf
from operator import itemgetter
from string import Formatter
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

#: Flow id meaning "not part of any flow" (falsy on purpose).
NO_FLOW = 0


class Span:
    """One named interval of simulated time on one track."""

    __slots__ = ("name", "cat", "track", "start", "end", "span_id", "flow",
                 "args")

    def __init__(
        self,
        name: str,
        cat: str,
        track: str,
        start: float,
        span_id: int,
        flow: int = NO_FLOW,
        args: Optional[Dict[str, Any]] = None,
    ):
        self.name = name
        self.cat = cat
        self.track = track
        self.start = start
        self.end: Optional[float] = None
        self.span_id = span_id
        self.flow = flow
        self.args: Dict[str, Any] = args if args is not None else {}

    @property
    def duration(self) -> Optional[float]:
        """Span length in ms, or None while still open."""
        if self.end is None:
            return None
        return self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dur = f"{self.duration:.3f}ms" if self.end is not None else "open"
        return f"<Span {self.name!r} track={self.track} flow={self.flow} {dur}>"


class _NullSpan(Span):
    """The shared sentinel a disabled tracer hands out."""

    def __init__(self) -> None:
        super().__init__("null", "null", "null", 0.0, 0)


#: Singleton no-op span; ``tracer.end(NULL_SPAN)`` is a no-op.
NULL_SPAN = _NullSpan()

#: Allocate a Span without the Python-level ``__init__`` frame: the tracer
#: opens one per stage and kick of an observed run, and the view builds
#: one per SVM access, copy and executed op.
_new_span = Span.__new__


class Tracer:
    """Span factory + sink bound to one simulator clock.

    ``sim`` may be ``None`` only for a disabled tracer. Finished *and*
    still-open spans live in :attr:`spans` (exporters clamp open spans to
    the export time); :attr:`instants` holds zero-duration point events.
    Both are in recording order. Read them through a :class:`SpanView`.
    """

    def __init__(self, sim=None, enabled: bool = True):
        if enabled and sim is None:
            raise ValueError("an enabled Tracer needs a simulator for its clock")
        self._sim = sim
        self.enabled = enabled
        self.spans: List[Span] = []
        self.instants: List[Span] = []
        self._next_span = 1
        self._next_flow = 1

    # -- flows -------------------------------------------------------------
    def new_flow(self) -> int:
        """Allocate a fresh flow id (one per causal thread, e.g. per frame)."""
        if not self.enabled:
            return NO_FLOW
        flow = self._next_flow
        self._next_flow += 1
        return flow

    # -- spans -------------------------------------------------------------
    def begin(
        self,
        name: str,
        track: str,
        cat: str = "span",
        flow: int = NO_FLOW,
        **args: Any,
    ) -> Span:
        """Open a span at ``sim.now``; close it with :meth:`end`."""
        if not self.enabled:
            return NULL_SPAN
        span = _new_span(Span)
        span.name = name
        span.cat = cat
        span.track = track
        span.start = self._sim.now
        span.end = None
        span.span_id = span_id = self._next_span
        self._next_span = span_id + 1
        span.flow = flow
        span.args = args  # the call's own ``**args`` dict
        self.spans.append(span)
        return span

    def end(self, span: Span, **args: Any) -> None:
        """Close a span at ``sim.now`` (no-op for :data:`NULL_SPAN`)."""
        if span is NULL_SPAN or not self.enabled:
            return
        span.end = self._sim.now
        if args:
            span.args.update(args)

    def instant(
        self, name: str, track: str, cat: str = "instant",
        flow: int = NO_FLOW, **args: Any,
    ) -> None:
        """Record a zero-duration point event (fence signals, drops, ...)."""
        if not self.enabled:
            return
        span = _new_span(Span)
        span.name = name
        span.cat = cat
        span.track = track
        span.start = span.end = self._sim.now
        span.span_id = span_id = self._next_span
        self._next_span = span_id + 1
        span.flow = flow
        span.args = args
        self.instants.append(span)

    def __len__(self) -> int:
        return len(self.spans) + len(self.instants)


#: Shared disabled tracer for components constructed without observability.
NULL_TRACER = Tracer(enabled=False)


# ---------------------------------------------------------------------------
# Spans built from trace rows
# ---------------------------------------------------------------------------

#: A row's fields by name, with its record time under ``"time"``.
Row = Mapping[str, Any]


def _fields(*names: str) -> Callable[[Row], Dict[str, Any]]:
    """Span args that copy the row fields ``names``, in that order."""
    return lambda row: {name: row[name] for name in names}


def _copy_args(row: Row) -> Dict[str, Any]:
    """A coherence copy's args. A guest-memory row's ``duration`` also
    counts the flush that preceded the fetch; the fetch span's is its own
    time alone."""
    args = {"region": row["region"], "bytes": row["bytes"]}
    path = row["path"]
    if path == "broadcast":
        args["dst"] = row["dst"]
    args["path"] = path
    if path == "guest-memory":
        args["duration"] = row["time"] - row["start"]
    else:
        args["duration"] = row["duration"]
    return args


#: Trace kind -> ``(name, track, cat, args)`` of the span each of its rows
#: becomes. ``name`` and ``track`` are format strings over the row's
#: fields. A row with a ``start`` field is an interval from ``start`` to
#: its record time; one without is an instant. ``args(row)`` builds the
#: span's args; only an exporter calls it.
ROW_SPANS: Dict[str, Tuple[str, str, str, Callable[[Row], Dict[str, Any]]]] = {
    "svm.access_latency": (
        "svm.begin_access", "{vdev}", "svm",
        _fields("region", "usage", "bytes", "latency"),
    ),
    "svm.write_retired": (
        "svm.write_retired", "{vdev}", "svm", _fields("region", "bytes"),
    ),
    "host.op_retired": (
        "exec:{op}", "{vdev}/exec", "exec", _fields("op", "bytes", "queue_delay"),
    ),
    "coherence.maintenance": ("coherence.copy", "coherence", "coherence", _copy_args),
    "coherence.flush": (
        "coherence.flush", "coherence", "coherence",
        _fields("region", "bytes", "duration"),
    ),
    "coherence.failed": (
        "coherence.copy", "coherence", "coherence",
        lambda row: {"region": row["region"], "bytes": row["bytes"], "path": "failed"},
    ),
    "broadcast.failed": (
        "coherence.copy", "coherence", "coherence",
        lambda row: {"region": row["region"], "bytes": row["bytes"],
                     "dst": row["dst"], "path": "broadcast", "failed": row["error"]},
    ),
    "prefetch.failed": (
        "prefetch.copy", "prefetch", "coherence",
        lambda row: {"region": row["region"], "src": row["src"], "dst": row["target"],
                     "bytes": row["bytes"], "failed": row["error"]},
    ),
    "prefetch.suspend": ("prefetch.suspend", "prefetch", "coherence", _fields("vkey")),
}

#: A ``coherence.maintenance`` row on the ``prefetch`` path is a prefetch copy.
PREFETCH_COPY = (
    "prefetch.copy", "prefetch", "coherence",
    _fields("region", "src", "dst", "bytes", "duration"),
)


class _RowSpan(Span):
    """A span built from one trace row; its args are built when read."""

    __slots__ = ("_keys", "_row", "_make_args")

    @property
    def args(self) -> Dict[str, Any]:  # type: ignore[override]
        return self._make_args(dict(zip(self._keys, self._row)))


# ---------------------------------------------------------------------------
# The walk: every span of a run as a compact entry
# ---------------------------------------------------------------------------

#: The instant that closes a frame's flow; attribution reads its args.
PRESENTED = "frame.presented"


class Label:
    """What every span of one shape shares.

    ``name``, ``cat`` and ``track`` are the span's, and ``instant`` says it
    is a point event. A row span's label also says how the view reads the
    rest of it from the row: the row's field names ``keys``, the ``flow``
    slot (None: the kind has no flow) and its :data:`ROW_SPANS` args
    function. A live span's label has ``keys`` None. The walk makes one
    label per shape, so a consumer can memoize by label.
    """

    __slots__ = ("name", "cat", "track", "instant", "keys", "flow_at", "make_args")

    def __init__(
        self,
        name: str,
        cat: str,
        track: str,
        instant: bool,
        keys: Optional[Tuple[str, ...]] = None,
        flow_at: Optional[int] = None,
        make_args: Optional[Callable[[Row], Dict[str, Any]]] = None,
    ):
        self.name = name
        self.cat = cat
        self.track = track
        self.instant = instant
        self.keys = keys
        self.flow_at = flow_at
        self.make_args = make_args


#: One span or instant of a run: ``(start, order, end, label, source)``.
#: ``order`` is its place in the walk, so ``(start, order)`` is its place in
#: the view. ``end`` is ``inf`` for a live span still open. ``source`` is
#: the live :class:`Span`, or the row the span is read from.
Entry = Tuple[float, int, float, Label, Any]


class FlowTable(NamedTuple):
    """What attribution reads of one run.

    ``chains`` holds each flow's spans of positive length in walk order,
    ``presented`` each flow's last ``frame.presented`` instant, and
    ``flows`` every flow id that stamped a span or instant, ascending.
    """

    chains: Dict[int, List[Entry]]
    presented: Dict[int, Entry]
    flows: List[int]


class _RowLabels(dict):
    """One row kind's labels, keyed by the values of the row fields its
    name and track read; a label is made the first time they are seen."""

    def __init__(self, make: Callable[[Any], Label]):
        super().__init__()
        self._make = make

    def __missing__(self, values: Any) -> Label:
        label = self[values] = self._make(values)
        return label


def _row_plan(kind: str, keys: Tuple[str, ...]):
    """How the walk reads a ``kind`` row with field names ``keys``:
    ``(label, labels, read, start_at, flow_at)``. ``label`` is the label of
    every row of the kind or, when the row's fields decide it, None and
    the row's is ``labels[read(row)]``. ``start_at`` 0 reads the record
    time (an instant); ``flow_at`` None means the kind has no flow. False
    if the kind is no span."""
    spec = ROW_SPANS.get(kind)
    if spec is None:
        return False
    by_path = kind == "coherence.maintenance"
    specs = (spec, PREFETCH_COPY) if by_path else (spec,)
    fields = sorted({
        field for name, track, _, _ in specs for template in (name, track)
        for _, field, _, _ in Formatter().parse(template) if field
    })
    if by_path:
        fields.append("path")
    instant = "start" not in keys
    flow_at = keys.index("flow") if "flow" in keys else None

    def make(values: Any) -> Label:
        values = dict(zip(fields, values if len(fields) > 1 else (values,)))
        name, track, cat, make_args = (
            PREFETCH_COPY if by_path and values["path"] == "prefetch" else spec)
        return Label(name.format_map(values), cat, track.format_map(values),
                     instant, keys, flow_at, make_args)

    start_at = keys.index("start") if "start" in keys else 0
    if not fields:
        return make(()), None, None, start_at, flow_at
    read = itemgetter(*(keys.index(field) for field in fields))
    return None, _RowLabels(make), read, start_at, flow_at


def _walk(tracer: Tracer, log) -> Tuple[FlowTable, List[Entry]]:
    """Every span and instant of a run as an :data:`Entry`, in one pass.

    Walk order is the live spans and instants in begin order (their
    ``span_id``), then the spans of ``log``'s rows (:data:`ROW_SPANS`) in
    record order. Returns the run's :class:`FlowTable` and the entries it
    leaves out: spans of no flow, spans of zero length and instants.
    """
    chains: Dict[int, List[Entry]] = {}
    presented: Dict[int, Entry] = {}
    others: List[Entry] = []
    seen = set()
    live_labels: Dict[tuple, Label] = {}
    for store, instant in ((tracer.spans, False), (tracer.instants, True)):
        for span in store:
            key = (span.name, span.cat, span.track, instant)
            label = live_labels.get(key)
            if label is None:
                label = live_labels[key] = Label(*key)
            start, end, flow = span.start, span.end, span.flow
            if end is None:
                end = inf
            entry = (start, span.span_id, end, label, span)
            if instant and flow and label.name == PRESENTED:
                # The clock never runs back, so the instant walked last
                # is the last in view order.
                presented[flow] = entry
            if flow and end > start:
                chains.setdefault(flow, []).append(entry)
            else:
                others.append(entry)
                if flow:
                    seen.add(flow)
    if log is not None:
        # Every live id is at most len(tracer), so rows come after them.
        order = len(tracer)
        plans: Dict[str, Any] = {}
        for kind, fields, row in log.rows():
            plan = plans.get(kind)
            if plan is None:
                plan = plans[kind] = _row_plan(kind, ("time", *fields))
            if not plan:
                continue
            label, row_labels, read, start_at, flow_at = plan
            order += 1
            start, end = row[start_at], row[0]
            entry = (start, order, end, label or row_labels[read(row)], row)
            flow = NO_FLOW if flow_at is None else row[flow_at]
            if flow and end > start:
                chains.setdefault(flow, []).append(entry)
            else:
                others.append(entry)
                if flow:
                    seen.add(flow)
    seen.update(chains)
    return FlowTable(chains, presented, sorted(seen)), others


_view_order = itemgetter(0, 1)


class SpanView:
    """Every span and instant of one observed run, walked at capture.

    Merges the live tracer's spans with those built from ``log``'s rows
    (:data:`ROW_SPANS`). All are listed by start time; on a tie, live
    spans come first in the order they began, then row spans in record
    order. ``span_id`` numbers them in that order. A row span exists only
    once its row is written, so an access, copy or op still open at the
    horizon is not in the view. Build the view after the clock stops.

    The walk keeps each span as a compact :data:`Entry`; attribution
    (:func:`~repro.obs.critical.analyze_tracer`) reads its
    :attr:`table` and nothing else. :class:`Span` objects are built when
    :attr:`spans`, :attr:`instants` or :meth:`flow_chains` is first read:
    the Chrome exporter, :func:`~repro.obs.export.connected_flows` and
    ``observe`` read them. A live span's is a copy, so the tracer keeps
    its own ids.
    """

    def __init__(self, tracer: Tracer, log=None):
        self.table, self._others = _walk(tracer, log)
        self._spans: Optional[List[Span]] = None
        self._instants: Optional[List[Span]] = None
        self._merged: List[Span] = []
        self._chains: Optional[Dict[int, List[Span]]] = None

    def _build(self) -> None:
        entries = list(self._others)
        for chain in self.table.chains.values():
            entries += chain
        entries.sort(key=_view_order)
        spans: List[Span] = []
        instants: List[Span] = []
        merged = self._merged
        for number, (start, _order, end, label, source) in enumerate(entries, 1):
            if label.keys is None:
                span = _new_span(Span)
                span.end = source.end
                span.flow = source.flow
                span.args = source.args
            else:
                span = _new_span(_RowSpan)
                span.end = end
                span.flow = NO_FLOW if label.flow_at is None else source[label.flow_at]
                span._keys = label.keys
                span._row = source
                span._make_args = label.make_args
            span.name = label.name
            span.cat = label.cat
            span.track = label.track
            span.start = start
            span.span_id = number
            (instants if label.instant else spans).append(span)
            merged.append(span)
        self._spans, self._instants = spans, instants

    @property
    def spans(self) -> List[Span]:
        """Every span that is not an instant, in view order."""
        if self._spans is None:
            self._build()
        return self._spans

    @property
    def instants(self) -> List[Span]:
        """Every instant, in view order."""
        if self._instants is None:
            self._build()
        return self._instants

    def flow_chains(self) -> Dict[int, List[Span]]:
        """Every flow's spans and instants, grouped in one pass.

        Flow ids ascend, and each chain is in view order. The grouping is
        built once; callers must not mutate it.
        """
        if self._chains is None:
            if self._spans is None:
                self._build()
            by_flow: Dict[int, List[Span]] = {}
            for span in self._merged:
                if span.flow != NO_FLOW:
                    by_flow.setdefault(span.flow, []).append(span)
            self._chains = {flow: by_flow[flow] for flow in sorted(by_flow)}
        return self._chains

    def flows(self) -> List[int]:
        """Flow ids that stamped at least one span, ascending."""
        return list(self.table.flows)
