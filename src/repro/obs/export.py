"""Exporters: Chrome ``trace_event`` / Perfetto JSON and metrics JSON.

The trace exporter follows the Trace Event Format that both
``chrome://tracing`` and https://ui.perfetto.dev ingest:

* one **pid** per *physical* device (GPU, CPU, camera, NIC — plus a
  ``host`` pseudo-process for transport/coherence/prefetch subsystems);
* one **tid** per *virtual* device / guest process / subsystem track;
* spans become complete (``"X"``) events, instants become ``"i"`` events;
* each causal flow (one frame's journey) becomes a chain of flow events
  (``"s"``/``"t"``/``"f"``) binding its spans together, which Perfetto
  renders as arrows from ``svm.begin_access`` through the coherence copy
  to ``frame.presented``.

Timestamps convert from simulated milliseconds to the format's
microseconds. :func:`validate_chrome_trace` is the schema check CI runs on
the exported artifact; :func:`tracelog_events` digests a classic
:class:`~repro.sim.tracing.TraceLog` into instant events so pre-span
instrumentation shows up in the same timeline.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.obs.registry import MetricsRegistry
from repro.obs.span import NO_FLOW, Span, Tracer
from repro.sim.tracing import TraceLog

#: Track group (= Chrome pid) used when no mapping is provided.
DEFAULT_GROUP = "host"

_MS_TO_US = 1000.0


def _jsonable(value: Any) -> Any:
    """Coerce span/record payloads into JSON-serializable shapes."""
    if isinstance(value, (set, frozenset)):
        return sorted(str(v) for v in value)
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class _TrackTable:
    """Stable track → (pid, tid) assignment plus metadata events."""

    def __init__(self, track_groups: Optional[Mapping[str, str]]):
        self._groups = dict(track_groups or {})
        self._pids: Dict[str, int] = {}
        self._tids: Dict[str, Tuple[int, int]] = {}

    def ids_for(self, track: str) -> Tuple[int, int]:
        known = self._tids.get(track)
        if known is not None:
            return known
        group = self._groups.get(track, DEFAULT_GROUP)
        pid = self._pids.get(group)
        if pid is None:
            pid = self._pids[group] = len(self._pids) + 1
        tid = sum(1 for t, (p, _) in self._tids.items() if p == pid) + 1
        self._tids[track] = (pid, tid)
        return pid, tid

    def metadata_events(self) -> List[Dict[str, Any]]:
        events: List[Dict[str, Any]] = []
        for group, pid in sorted(self._pids.items(), key=lambda kv: kv[1]):
            events.append({
                "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                "args": {"name": group},
            })
        for track, (pid, tid) in sorted(self._tids.items(), key=lambda kv: kv[1]):
            events.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": track},
            })
        return events


#: Span-arg keys the exporter lifts to the event top level: a span
#: carrying ``bind_id=...`` plus ``flow_out``/``flow_in`` becomes one end
#: of a v2 flow arrow (the cross-worker migration links use this).
_BIND_KEYS = ("bind_id", "flow_out", "flow_in")


def _span_event(span: Span, pid: int, tid: int, end_time: float) -> Dict[str, Any]:
    end = span.end if span.end is not None else end_time
    args = {k: _jsonable(v) for k, v in span.args.items()
            if k not in _BIND_KEYS}
    if span.flow != NO_FLOW:
        args["flow"] = span.flow
    event = {
        "ph": "X",
        "name": span.name,
        "cat": span.cat,
        "ts": span.start * _MS_TO_US,
        "dur": max(0.0, end - span.start) * _MS_TO_US,
        "pid": pid,
        "tid": tid,
        "args": args,
    }
    if "bind_id" in span.args:
        event["bind_id"] = _jsonable(span.args["bind_id"])
        for key in ("flow_out", "flow_in"):
            if span.args.get(key):
                event[key] = True
    return event


def _instant_event(span: Span, pid: int, tid: int) -> Dict[str, Any]:
    args = {k: _jsonable(v) for k, v in span.args.items()}
    if span.flow != NO_FLOW:
        args["flow"] = span.flow
    return {
        "ph": "i",
        "s": "t",
        "name": span.name,
        "cat": span.cat,
        "ts": span.start * _MS_TO_US,
        "pid": pid,
        "tid": tid,
        "args": args,
    }


def _flow_events(
    flow: int, spans: List[Span], table: _TrackTable
) -> List[Dict[str, Any]]:
    """The s/t/f chain binding one flow's spans into an arrow sequence."""
    if len(spans) < 2:
        return []  # an arrow needs two ends
    events: List[Dict[str, Any]] = []
    last = len(spans) - 1
    for index, span in enumerate(spans):
        pid, tid = table.ids_for(span.track)
        phase = "s" if index == 0 else ("f" if index == last else "t")
        event: Dict[str, Any] = {
            "ph": phase,
            "cat": "flow",
            "name": "frame-flow",
            "id": flow,
            "ts": span.start * _MS_TO_US,
            "pid": pid,
            "tid": tid,
        }
        if phase == "f":
            event["bp"] = "e"  # bind to the enclosing slice, not the next
        events.append(event)
    return events


def tracelog_events(
    log: TraceLog, table: _TrackTable, track_field: str = "vdev"
) -> List[Dict[str, Any]]:
    """Digest classic TraceLog records into instant events.

    Records carrying a ``vdev`` field land on that virtual device's track;
    everything else goes to a shared ``trace`` track. This keeps legacy
    instrumentation visible in the exported timeline without porting every
    call site to spans.
    """
    events: List[Dict[str, Any]] = []
    for record in log:
        track = str(record.get(track_field) or "trace")
        pid, tid = table.ids_for(track)
        events.append({
            "ph": "i",
            "s": "t",
            "name": record.kind,
            "cat": "tracelog",
            "ts": record.time * _MS_TO_US,
            "pid": pid,
            "tid": tid,
            "args": {k: _jsonable(v) for k, v in record.fields.items()},
        })
    return events


def chrome_trace(
    tracer: Tracer,
    track_groups: Optional[Mapping[str, str]] = None,
    tracelog: Optional[TraceLog] = None,
    end_time: Optional[float] = None,
) -> Dict[str, Any]:
    """Export a tracer (and optionally a TraceLog) as a Chrome trace dict.

    ``track_groups`` maps track names to their process group (physical
    device); unmapped tracks join the ``host`` group. ``end_time`` clamps
    spans still open at export time (defaults to the latest span edge).
    """
    table = _TrackTable(track_groups)
    if end_time is None:
        end_time = 0.0
        for span in tracer.spans:
            end_time = max(end_time, span.end if span.end is not None else span.start)
    events: List[Dict[str, Any]] = []
    for span in tracer.spans:
        pid, tid = table.ids_for(span.track)
        events.append(_span_event(span, pid, tid, end_time))
    for span in tracer.instants:
        pid, tid = table.ids_for(span.track)
        events.append(_instant_event(span, pid, tid))
    # Single pass over the spans to group by flow (equivalent to calling
    # spans_of_flow per flow, but O(spans) instead of O(flows × spans) —
    # a fleet trace has one flow per session, so the quadratic walk bites).
    by_flow: Dict[int, List[Span]] = {}
    for span in tracer.spans:
        if span.flow != NO_FLOW:
            by_flow.setdefault(span.flow, []).append(span)
    for span in tracer.instants:
        if span.flow != NO_FLOW:
            by_flow.setdefault(span.flow, []).append(span)
    for flow in sorted(by_flow):
        chain = sorted(by_flow[flow], key=lambda s: (s.start, s.span_id))
        events.extend(_flow_events(flow, chain, table))
    if tracelog is not None:
        events.extend(tracelog_events(tracelog, table))
    # Stable sort on ts only: flow events are appended in chain order, so
    # s → t → f survives timestamp ties (a (ts, pid, tid) key would not).
    events.sort(key=lambda e: e.get("ts", 0.0))
    other: Dict[str, Any] = {
        "clock": "simulated",
        "time_unit_in": "ms",
        "dropped_spans": tracer.dropped_spans,
        "span_retention": (
            "all" if tracer.max_spans is None
            else f"ring:{tracer.max_spans}"
        ),
    }
    return {
        "traceEvents": table.metadata_events() + events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_chrome_trace(path: str, trace: Dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh, indent=1)


#: Phases the validator accepts (the subset this exporter emits).
_KNOWN_PHASES = {"X", "i", "M", "s", "t", "f", "b", "e", "B", "E", "C"}


def validate_chrome_trace(trace: Any) -> List[str]:
    """Schema-check a trace-event JSON object; returns a list of problems.

    An empty list means the object is a well-formed Chrome/Perfetto trace
    as far as the JSON schema goes (it does not check semantic nesting).
    CI runs this on the exported artifact.
    """
    errors: List[str] = []
    if not isinstance(trace, dict):
        return [f"top level must be an object, got {type(trace).__name__}"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list 'traceEvents'"]
    flow_ids: Dict[int, List[str]] = {}
    # bind_id → [saw flow_out, saw flow_in] for the v2 flow encoding.
    bind_ids: Dict[Any, List[bool]] = {}
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: event must be an object")
            continue
        phase = event.get("ph")
        if phase not in _KNOWN_PHASES:
            errors.append(f"{where}: unknown phase {phase!r}")
            continue
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                errors.append(f"{where}: missing integer {key!r}")
        if phase != "M":
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                errors.append(f"{where}: missing non-negative 'ts'")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where}: 'X' event needs non-negative 'dur'")
        if phase in ("s", "t", "f"):
            flow = event.get("id")
            if not isinstance(flow, int):
                errors.append(f"{where}: flow event needs integer 'id'")
            else:
                flow_ids.setdefault(flow, []).append(phase)
        if phase in ("X", "i", "M") and not isinstance(event.get("name"), str):
            errors.append(f"{where}: missing string 'name'")
        if "bind_id" in event:
            bind_id = event["bind_id"]
            if not isinstance(bind_id, (int, str)):
                errors.append(f"{where}: 'bind_id' must be an int or string")
                continue
            out = bool(event.get("flow_out"))
            into = bool(event.get("flow_in"))
            if not out and not into:
                errors.append(
                    f"{where}: 'bind_id' {bind_id!r} set without "
                    "'flow_out' or 'flow_in' — the binding can never pair"
                )
                continue
            flags = bind_ids.setdefault(bind_id, [False, False])
            flags[0] = flags[0] or out
            flags[1] = flags[1] or into
    for flow, phases in sorted(flow_ids.items()):
        if phases[0] != "s" or phases[-1] != "f":
            errors.append(f"flow {flow}: must start with 's' and end with 'f', got {phases}")
    for bind_id, (out, into) in sorted(bind_ids.items(), key=lambda kv: str(kv[0])):
        if out and not into:
            errors.append(f"bind_id {bind_id!r}: has 'flow_out' events but no "
                          "'flow_in' — the arrow starts and never lands")
        elif into and not out:
            errors.append(f"bind_id {bind_id!r}: has 'flow_in' events but no "
                          "'flow_out' — the arrow lands but never starts")
    return errors


def metrics_json(
    registry: MetricsRegistry,
    profile: Optional[Dict[str, Any]] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Bundle the registry (plus self-profile table) for the metrics file."""
    out = registry.to_dict()
    if profile is not None:
        out["profile"] = _jsonable(profile)
    if extra:
        out.update(_jsonable(extra))
    return out


def write_metrics(path: str, metrics: Dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(metrics, fh, indent=1)


def connected_flows(
    tracer: Tracer, required_names: Iterable[str]
) -> List[int]:
    """Flow ids whose span chain touches every name in ``required_names``.

    The acceptance check for end-to-end causality: a frame flow is
    *connected* when one flow id stamps spans for each requested stage
    (e.g. ``svm.begin_access`` → a coherence/prefetch copy →
    ``frame.presented``).
    """
    required = list(required_names)
    found: List[int] = []
    for flow in tracer.flows():
        names = {s.name for s in tracer.spans_of_flow(flow)}
        if all(any(name == r or name.startswith(r) for name in names) for r in required):
            found.append(flow)
    return found
