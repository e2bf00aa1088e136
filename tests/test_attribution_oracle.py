"""The first-cover attribution sweep against the covering-list sweep.

``repro.obs.critical._frame_budget`` charges each elementary interval of a
frame's window to the first chargeable span, in ``(priority, span_id)``
order, that covers it. It reads the compact per-flow table a
:class:`~repro.obs.span.SpanView` walks, where ``(start, order)`` stands
for the view's ``span_id``. :func:`reference_frame_budget` below is the
sweep it replaced, over :class:`~repro.obs.span.Span` objects: for every
interval it builds the list of covering spans and takes its minimum. The
two must give equal ``FrameBudget``s on any frame, and equal
``LatencyBudget``s on every frame of the explain grid and on the
hand-built runs that pin the table's tie rule and edge cases.
"""

from __future__ import annotations

from math import fsum, inf
from typing import Any, Dict, List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.critical import (
    HOST_DEVICE,
    BudgetCell,
    FrameBudget,
    LatencyBudget,
    PathStep,
    _classify,
    _context_rank,
    _critical_path,
    _frame_budget,
    _span_device,
    analyze_tracer,
)
from repro.obs.span import Label, SpanView, Tracer
from repro.sim import Simulator
from repro.sim.tracing import TraceLog


def reference_frame_budget(flow: int, spans: Sequence[Any], presented: Any) -> FrameBudget:
    """Partition one frame's latency window by building each covering list."""
    present = float(presented.start)
    latency = float((presented.args or {}).get("latency", 0.0))
    sequence = int((presented.args or {}).get("sequence", 0))
    lo = present - latency

    charge: List[Tuple[float, float, int, int, str, Optional[str]]] = []
    context: List[Tuple[float, float, int, int, str]] = []
    for span in spans:
        if span is presented:
            continue
        end = present if span.end is None else float(span.end)
        a = max(float(span.start), lo)
        b = min(end, present)
        if b <= a:
            continue
        category, priority = _classify(span.name, span.cat)
        device = _span_device(span.name, span.cat, span.track)
        if category is not None:
            charge.append((a, b, priority, span.span_id, category, device))
        if device is not None:
            context.append(
                (a, b, _context_rank(span.name, span.cat), span.span_id, device)
            )

    if latency <= 0.0:
        return FrameBudget(flow, sequence, present, latency)

    default_device = HOST_DEVICE
    if context:
        default_device = min(context, key=lambda c: (c[0], c[2], c[3]))[4]

    bounds = {lo, present}
    for a, b, *_ in charge:
        bounds.add(a)
        bounds.add(b)
    cuts = sorted(bounds)

    cells: Dict[Tuple[str, str], List[float]] = {}
    for left, right in zip(cuts, cuts[1:]):
        if right <= left:
            continue
        active = [iv for iv in charge if iv[0] <= left and iv[1] >= right]
        if active:
            _a, _b, _pri, _sid, category, device = min(
                active, key=lambda iv: (iv[2], iv[3])
            )
            if device is None:
                around = [c for c in context if c[0] <= left and c[1] >= right]
                if around:
                    device = min(around, key=lambda c: (c[2], c[3]))[4]
                else:
                    device = default_device
        else:
            category, device = "sched_slack", HOST_DEVICE
        cells.setdefault((category, device), []).append(right - left)

    return FrameBudget(
        flow=flow,
        sequence=sequence,
        present_ms=present,
        latency_ms=latency,
        cells=tuple(
            BudgetCell(category, device, fsum(lengths))
            for (category, device), lengths in sorted(cells.items())
        ),
    )


def reference_critical_path(spans: Sequence[Any], presented: Any) -> Tuple[PathStep, ...]:
    """The critical-path DP over spans, its ties broken by ``span_id``."""
    present = float(presented.start)
    lo = present - float((presented.args or {}).get("latency", 0.0))
    nodes = []
    for span in spans:
        if span is presented or span.name.startswith("stage:"):
            continue
        end = present if span.end is None else float(span.end)
        a = max(float(span.start), lo)
        b = min(end, present)
        if b > a:
            nodes.append((a, b, span.span_id, span.name, span.track))
    nodes.sort(key=lambda n: (n[0], n[2]))
    dist = [0.0] * len(nodes)
    prev = [-1] * len(nodes)
    for i, (a_i, b_i, *_rest) in enumerate(nodes):
        best, best_j = 0.0, -1
        for j in range(i):
            if nodes[j][1] <= a_i and dist[j] > best:
                best, best_j = dist[j], j
        dist[i] = best + (b_i - a_i)
        prev[i] = best_j
    best, tail = 0.0, -1
    for i, node in enumerate(nodes):
        if node[1] <= present and dist[i] > best:
            best, tail = dist[i], i
    steps = []
    while tail >= 0:
        a, b, _sid, name, track = nodes[tail]
        steps.append(PathStep(name, track, a, b))
        tail = prev[tail]
    steps.reverse()
    steps.append(PathStep("frame.presented", presented.track, present, present))
    return tuple(steps)


def reference_budget(view: SpanView) -> LatencyBudget:
    """A run's budget from the view's :class:`Span` chains alone."""
    frames, skipped, worst = [], [], None
    for flow, spans in view.flow_chains().items():
        presented = None
        for span in spans:
            if span.name == "frame.presented":
                presented = span  # the last one in view order
        if presented is None:
            skipped.append(flow)
            continue
        frame = reference_frame_budget(flow, spans, presented)
        frames.append(frame)
        if worst is None or (frame.latency_ms, -frame.sequence) > worst[0]:
            worst = ((frame.latency_ms, -frame.sequence), spans, presented)
    frames.sort(key=lambda f: (f.present_ms, f.sequence, f.flow))
    return LatencyBudget(
        frames=tuple(frames),
        critical_path=reference_critical_path(*worst[1:]) if worst else (),
        skipped_flows=tuple(skipped),
    )


class _Span:
    """The span fields the sweep reads, plus the span's place in the walk."""

    def __init__(self, name, cat, track, start, end, order, args=None):
        self.name = name
        self.cat = cat
        self.track = track
        self.start = start
        self.end = end
        self.order = order
        self.span_id = order
        self.args = args or {}


def number_in_view_order(spans: Sequence[_Span]) -> None:
    """Give ``spans`` the ids a view would: by start, then walk order."""
    ranked = sorted(spans, key=lambda span: (span.start, span.order))
    for number, span in enumerate(ranked, 1):
        span.span_id = number


def compact(spans: Sequence[_Span], presented: _Span) -> Tuple[List[Any], Any]:
    """A frame as the flow table holds it: an entry for each span of
    positive length, in walk order, and one for the present."""
    def entry(span: _Span, instant: bool = False):
        end = inf if span.end is None else span.end
        label = Label(span.name, span.cat, span.track, instant)
        return (span.start, span.order, end, label, span)

    chain = [entry(span) for span in sorted(spans, key=lambda span: span.order)
             if span is not presented and (span.end is None or span.end > span.start)]
    return chain, entry(presented, instant=True)


#: (name, cat, track) shapes covering every category, both devices of a
#: context span (track and ``/exec`` suffix), host tracks and pure context.
SHAPES = (
    ("coherence.copy", "coherence", "coherence"),
    ("coherence.copy", "coherence", "gpu"),
    ("prefetch.copy", "coherence", "prefetch"),
    ("transport.kick", "transport", "transport"),
    ("exec:render", "exec", "gpu/exec"),
    ("exec:decode", "exec", "codec/exec"),
    ("recovery.replay", "recovery", "host"),
    ("crash.gpu", "fault", "gpu"),
    ("stage:render", "stage", "gpu"),
    ("stage:encode", "stage", "codec"),
    ("svm.begin_access", "svm", "display"),
    ("svm.begin_access", "svm", "camera"),
    ("fence.wait", "fence", "gpu"),
    ("queue.wait", "span", "guest"),
)

#: A coarse grid, so equal starts, equal ends and shared cuts are common.
TIMES = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.5, 7.0, 8.0, 9.0, 10.0])

SPAN = st.tuples(
    st.sampled_from(SHAPES),
    TIMES,
    st.one_of(st.none(), TIMES),  # None: still open at the present
    st.floats(0.0, 4.0, allow_nan=False).map(lambda d: round(d, 3)),
)


@st.composite
def frames(draw):
    present = draw(st.sampled_from([6.0, 8.0, 10.0]))
    latency = draw(st.sampled_from([0.0, 0.5, 2.0, 4.5, 6.0, 8.0, 12.0]))
    raw = draw(st.lists(SPAN, max_size=24))
    # Shuffled walk orders: which of two spans with equal starts comes
    # first in the view need not follow the list.
    orders = draw(st.permutations(range(1, len(raw) + 2)))
    spans = []
    for ((name, cat, track), start, end, stretch), order in zip(raw, orders):
        if end is not None:
            end = max(start, end) + stretch  # may run past the present
        spans.append(_Span(name, cat, track, start, end, order))
    presented = _Span(
        "frame.presented", "frame", "display", present, present,
        orders[-1], {"latency": latency, "sequence": 3},
    )
    spans.insert(draw(st.integers(0, len(spans))), presented)
    number_in_view_order(spans)
    return spans, presented


@settings(max_examples=400, deadline=None)
@given(frames())
def test_first_cover_sweep_matches_covering_lists(frame):
    spans, presented = frame
    chain, shown = compact(spans, presented)
    expected = reference_frame_budget(7, spans, presented)
    assert _frame_budget(7, chain, shown, {}, {}) == expected
    assert _critical_path(chain, shown) == reference_critical_path(spans, presented)


def test_first_cover_sweep_takes_the_smaller_span_id_on_equal_priority():
    # Two coherence copies cover the same interval: the older one wins.
    # It ran on a host track, so it takes the device of the svm access
    # around it, which outranks the stage around both.
    spans = [
        _Span("stage:render", "stage", "gpu", 0.0, 4.0, 1),
        _Span("coherence.copy", "coherence", "camera", 1.0, 3.0, 5),
        _Span("coherence.copy", "coherence", "coherence", 1.0, 3.0, 4),
        _Span("svm.begin_access", "svm", "display", 0.5, 3.5, 6),
    ]
    presented = _Span("frame.presented", "frame", "display", 4.0, 4.0, 9,
                      {"latency": 4.0, "sequence": 0})
    number_in_view_order(spans + [presented])
    chain, shown = compact(spans, presented)
    budget = _frame_budget(1, chain, shown, {}, {})
    assert budget == reference_frame_budget(1, spans + [presented], presented)
    assert {(c.category, c.device): c.ms for c in budget.cells} == {
        ("coherence_copy", "display"): 2.0,
        ("sched_slack", "host"): 2.0,
    }


# -- the flow table's tie rule and edge cases ----------------------------------

def _present(tracer, flow, latency, sequence=0):
    tracer.instant("frame.presented", "display", cat="frame", flow=flow,
                   latency=latency, sequence=sequence)


def _copy_row(log, time, start, flow, path="sync-miss", dst="gpu"):
    log.record(time, "coherence.maintenance", duration=time - start, bytes=64,
               path=path, region=1, start=start, flow=flow, src="host", dst=dst)


def _live_and_row_tie(sim, tracer, log):
    """A live exec span and an executed-op row of one flow start together:
    the live span comes first, so the overlap is charged to its device."""
    sim.now = 1.0
    render = tracer.begin("exec:render", "gpu/exec", cat="exec", flow=1)
    log.record(2.5, "host.op_retired", vdev="codec", op="decode",
               queue_delay=0.0, start=1.0, flow=1, bytes=64)
    sim.now = 3.0
    tracer.end(render)
    sim.now = 4.0
    _present(tracer, 1, latency=4.0)
    return ["exec:render", "exec:decode", "frame.presented"]


def _two_row_kinds_tie(sim, tracer, log):
    """A flush row and a copy row of one flow start and end together: the
    one recorded first comes first, and the critical path takes it."""
    log.record(2.0, "coherence.flush", duration=1.0, bytes=64, region=1,
               start=1.0, flow=1)
    _copy_row(log, 2.0, 1.0, flow=1)
    sim.now = 3.0
    _present(tracer, 1, latency=3.0)
    return ["coherence.flush", "coherence.copy", "frame.presented"]


def _zero_length_live_span(sim, tracer, log):
    """A live span that begins and ends at one instant covers nothing, and
    a flow whose only span has zero length is skipped."""
    sim.now = 1.0
    tracer.end(tracer.begin("exec:render", "gpu/exec", cat="exec", flow=1))
    tracer.end(tracer.begin("exec:render", "gpu/exec", cat="exec", flow=2))
    _copy_row(log, 2.0, 1.0, flow=1)
    sim.now = 3.0
    _present(tracer, 1, latency=3.0)
    return ["exec:render", "coherence.copy", "frame.presented"]


def _open_live_span(sim, tracer, log):
    """A live span still open at the horizon covers the window to the
    present."""
    sim.now = 1.0
    tracer.begin("exec:render", "gpu/exec", cat="exec", flow=1)
    _copy_row(log, 3.0, 2.0, flow=1)
    sim.now = 4.0
    _present(tracer, 1, latency=4.0)
    sim.now = 5.0
    return ["exec:render", "coherence.copy", "frame.presented"]


def _instants_only(sim, tracer, log):
    """Flows that stamped only instants, live or from a row, are skipped."""
    sim.now = 1.0
    tracer.instant("fence.signal", "gpu", cat="fence", flow=2)
    log.record(1.5, "svm.write_retired", region=1, vdev="gpu", bytes=64, flow=3)
    _copy_row(log, 2.0, 1.0, flow=1)
    sim.now = 3.0
    _present(tracer, 1, latency=3.0)
    return ["coherence.copy", "frame.presented"]


def _two_presents(sim, tracer, log):
    """Of a flow's presents, the later one in view order is the frame's:
    at equal times, the one recorded later."""
    sim.now = 1.0
    kick = tracer.begin("transport.kick", "transport", cat="transport", flow=1)
    sim.now = 2.0
    tracer.end(kick)
    _present(tracer, 1, latency=1.0, sequence=1)
    _copy_row(log, 3.0, 2.0, flow=1)
    sim.now = 4.0
    _present(tracer, 1, latency=3.0, sequence=2)
    _present(tracer, 1, latency=2.0, sequence=3)
    return ["transport.kick", "frame.presented", "coherence.copy",
            "frame.presented", "frame.presented"]


TABLE_CASES = {
    "live-and-row-tie": _live_and_row_tie,
    "two-row-kinds-tie": _two_row_kinds_tie,
    "zero-length-live-span": _zero_length_live_span,
    "open-live-span": _open_live_span,
    "instants-only": _instants_only,
    "two-presents": _two_presents,
}


@pytest.mark.parametrize("case", sorted(TABLE_CASES))
def test_table_matches_the_view_on_edge_cases(case):
    sim = Simulator()
    tracer = Tracer(sim)
    log = TraceLog()
    chain_names = TABLE_CASES[case](sim, tracer, log)
    view = SpanView(tracer, log)
    budget = analyze_tracer(view)
    assert budget == reference_budget(view)
    assert [span.name for span in view.flow_chains()[1]] == chain_names
    assert view.flows() == list(view.flow_chains())
    assert len(budget.frames) == 1 and budget.conservation_errors() == []
    if case == "live-and-row-tie":
        assert {(c.category, c.device) for c in budget.frames[0].cells} >= {
            ("device_compute", "gpu"), ("sched_slack", "host")}
        assert ("device_compute", "codec") not in {
            (c.category, c.device) for c in budget.frames[0].cells}
    elif case == "two-row-kinds-tie":
        assert [step.name for step in budget.critical_path] == [
            "coherence.flush", "frame.presented"]
    elif case == "zero-length-live-span":
        assert budget.skipped_flows == (2,)
    elif case == "open-live-span":
        assert view.flow_chains()[1][0].end is None
        cells = {(c.category, c.device): c.ms for c in budget.frames[0].cells}
        assert cells[("device_compute", "gpu")] == 2.0
    elif case == "instants-only":
        assert budget.skipped_flows == (2, 3)
    elif case == "two-presents":
        assert (budget.frames[0].sequence, budget.frames[0].latency_ms) == (3, 2.0)


EXPLAIN_EMULATORS = ("vSoC", "GAE", "QEMU-KVM")


@pytest.mark.parametrize("emulator", EXPLAIN_EMULATORS)
@pytest.mark.parametrize("app_name", ("ar", "camera", "livestream", "video"))
def test_explain_grid_budgets_match_covering_lists(app_name, emulator):
    from repro.apps.catalog import resolve_callable
    from repro.experiments.explain import APP_FACTORIES
    from repro.experiments.runner import build_rig, drive

    rig = build_rig(emulator, observed=True)
    app = resolve_callable(APP_FACTORIES[app_name])()
    _, _, budget = drive(rig, [app], 2_000.0, attribution=True)
    view = SpanView(rig.tracer, rig.trace)
    assert budget == reference_budget(view)
    assert budget == analyze_tracer(view)
