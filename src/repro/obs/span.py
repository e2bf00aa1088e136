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
already holds, so :class:`SpanView` builds it from its row at capture
(:data:`ROW_SPANS`) and merges it with the live ones.
"""

from __future__ import annotations

from operator import attrgetter
from string import Formatter
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

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


def _reader(template: str, keys: Tuple[str, ...]) -> Callable[[tuple], str]:
    """Read ``template`` (at most one ``{field}``) from a row, formatting
    each distinct value once so equal names share one string."""
    fields = [field for _, field, _, _ in Formatter().parse(template) if field]
    if not fields:
        return lambda row: template
    (field,) = fields
    slot = keys.index(field)
    texts: Dict[Any, str] = {}

    def read(row: tuple) -> str:
        value = row[slot]
        text = texts.get(value)
        if text is None:
            text = texts[value] = template.format_map({field: value})
        return text

    return read


def _plan(spec, keys: Tuple[str, ...]):
    """A :data:`ROW_SPANS` entry bound to one kind's row layout: its keys,
    name and track readers, cat, args function, and the ``start`` and
    ``flow`` slots (``start`` at 0 reads the record time: an instant)."""
    name, track, cat, make_args = spec
    return (
        keys, _reader(name, keys), _reader(track, keys), cat, make_args,
        keys.index("start") if "start" in keys else 0,
        keys.index("flow") if "flow" in keys else None,
    )


def _row_spans(log) -> Tuple[List[Span], List[Span]]:
    """The spans of ``log``'s rows in record order, and which are instants."""
    spans: List[Span] = []
    instants: List[Span] = []
    plans: Dict[str, Any] = {}
    prefetch = path_at = None
    for kind, fields, row in log.rows():
        if kind not in plans:
            keys = ("time", *fields)
            spec = ROW_SPANS.get(kind)
            plans[kind] = None if spec is None else _plan(spec, keys)
            if kind == "coherence.maintenance":
                prefetch, path_at = _plan(PREFETCH_COPY, keys), keys.index("path")
        plan = plans[kind]
        if plan is None:
            continue
        if kind == "coherence.maintenance" and row[path_at] == "prefetch":
            plan = prefetch
        keys, name, track, cat, make_args, start_at, flow_at = plan
        span = _new_span(_RowSpan)
        span.name = name(row)
        span.cat = cat
        span.track = track(row)
        span.start = row[start_at]
        span.end = row[0]
        span.flow = NO_FLOW if flow_at is None else row[flow_at]
        span._keys = keys
        span._row = row
        span._make_args = make_args
        spans.append(span)
        if not start_at:
            instants.append(span)
    return spans, instants


_by_id = attrgetter("span_id")
_by_start = attrgetter("start")


class SpanView:
    """Every span and instant of one observed run, built at capture.

    Merges the live tracer's spans with those built from ``log``'s rows
    (:data:`ROW_SPANS`). All are listed by start time; on a tie, live
    spans come first in the order they began, then row spans in record
    order. ``span_id`` is renumbered in that order, the live spans' too,
    so build the view after the clock stops. A row span exists only once
    its row is written, so an access, copy or op still open at the
    horizon is not in the view.

    Attribution (:func:`~repro.obs.critical.analyze_tracer`), the Chrome
    exporter and :func:`~repro.obs.export.connected_flows` read it.
    """

    def __init__(self, tracer: Tracer, log=None):
        merged = sorted((*tracer.spans, *tracer.instants), key=_by_id)
        instants: List[Span] = []
        if log is not None:
            rows, instants = _row_spans(log)
            merged += rows
        merged.sort(key=_by_start)
        for number, span in enumerate(merged, 1):
            span.span_id = number
        point = {id(span) for span in (*tracer.instants, *instants)}
        self.spans: List[Span] = [s for s in merged if id(s) not in point]
        self.instants: List[Span] = [s for s in merged if id(s) in point]
        self._chains: Optional[Dict[int, List[Span]]] = None

    def flow_chains(self) -> Dict[int, List[Span]]:
        """Every flow's spans and instants, grouped in one pass.

        Flow ids ascend, and each chain is in view order. The grouping is
        built once; callers must not mutate it.
        """
        if self._chains is None:
            by_flow: Dict[int, List[Span]] = {}
            for store in (self.spans, self.instants):
                for span in store:
                    if span.flow != NO_FLOW:
                        by_flow.setdefault(span.flow, []).append(span)
            self._chains = {
                flow: sorted(by_flow[flow], key=_by_id) for flow in sorted(by_flow)
            }
        return self._chains

    def flows(self) -> List[int]:
        """Flow ids that stamped at least one span, ascending."""
        return list(self.flow_chains())
