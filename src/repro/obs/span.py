"""Span-based causal tracing over the deterministic sim clock.

A :class:`Span` is a named interval of simulated time on a *track* (one
virtual device, executor thread, or host subsystem). Spans carry:

* a ``span_id`` — unique and increasing in recording order, the
  tie-breaker wherever spans start at the same time;
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
call itself still builds its arguments, so call sites on per-access and
per-frame paths test ``obs.enabled`` first and skip it (DESIGN.md §7).
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter
from typing import Any, Dict, List, Optional

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
#: opens one per SVM access, copy, kick and stage of an observed run.
_new_span = Span.__new__

_by_start = attrgetter("start", "span_id")


class Tracer:
    """Span factory + sink bound to one simulator clock.

    ``sim`` may be ``None`` only for a disabled tracer. Finished *and*
    still-open spans live in :attr:`spans` (exporters clamp open spans to
    the export time); :attr:`instants` holds zero-duration point events.

    ``max_spans`` bounds retention: spans and instants each keep only the
    newest ``max_spans`` entries, evicting the oldest, and
    :attr:`dropped_spans` counts every eviction — so a long observed run
    cannot grow tracer memory without bound. The default (``None``)
    retains everything.
    """

    def __init__(self, sim=None, enabled: bool = True,
                 max_spans: Optional[int] = None):
        if enabled and sim is None:
            raise ValueError("an enabled Tracer needs a simulator for its clock")
        if max_spans is not None and max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self._sim = sim
        self.enabled = enabled
        self.max_spans = max_spans
        if max_spans is None:
            self.spans: List[Span] = []
            self.instants: List[Span] = []
        else:
            self.spans = deque(maxlen=max_spans)  # type: ignore[assignment]
            self.instants = deque(maxlen=max_spans)  # type: ignore[assignment]
        self.dropped_spans = 0
        self._next_span = 1
        self._next_flow = 1
        # flow_chains() cache, valid while _next_span equals _chains_at.
        self._chains: Dict[int, List[Span]] = {}
        self._chains_at = 0

    def _append(self, store, span: Span) -> None:
        """Ring-mode append: count the eviction the full deque makes."""
        if len(store) == self.max_spans:
            self.dropped_spans += 1  # deque evicts the oldest on append
        store.append(span)

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
        if self.max_spans is None:
            self.spans.append(span)
        else:
            self._append(self.spans, span)
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
        if self.max_spans is None:
            self.instants.append(span)
        else:
            self._append(self.instants, span)

    # -- introspection -----------------------------------------------------
    def __len__(self) -> int:
        return len(self.spans) + len(self.instants)

    def flow_chains(self) -> Dict[int, List[Span]]:
        """Every flow's spans and instants, grouped in one pass.

        Flow ids ascend, and each chain is in start order (ties broken by
        span id). The grouping is cached until the next span or instant is
        recorded, so the post-run readers (attribution, the exporter,
        ``connected_flows``) share one pass; callers must not mutate it.
        """
        if self._chains_at != self._next_span:
            by_flow: Dict[int, List[Span]] = {}
            for store in (self.spans, self.instants):
                for span in store:
                    if span.flow != NO_FLOW:
                        by_flow.setdefault(span.flow, []).append(span)
            self._chains = {
                flow: sorted(by_flow[flow], key=_by_start)
                for flow in sorted(by_flow)
            }
            self._chains_at = self._next_span
        return self._chains

    def flows(self) -> List[int]:
        """Flow ids that stamped at least one span, ascending."""
        return list(self.flow_chains())


#: Shared disabled tracer for components constructed without observability.
NULL_TRACER = Tracer(enabled=False)
