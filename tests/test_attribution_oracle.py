"""The first-cover attribution sweep against the covering-list sweep.

``repro.obs.critical._frame_budget`` charges each elementary interval of a
frame's window to the first chargeable span, in ``(priority, span_id)``
order, that covers it. :func:`reference_frame_budget` below is the sweep
it replaced: for every interval it builds the list of covering spans and
takes its minimum. The two must give equal ``FrameBudget``s on any frame,
and equal ``LatencyBudget``s on every frame of the explain grid.
"""

from __future__ import annotations

from math import fsum
from typing import Any, Dict, List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.critical import (
    HOST_DEVICE,
    BudgetCell,
    FrameBudget,
    LatencyBudget,
    _classify,
    _context_rank,
    _frame_budget,
    _span_device,
    analyze_tracer,
)


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


class _Span:
    """The span fields the sweep reads."""

    def __init__(self, name, cat, track, start, end, span_id, args=None):
        self.name = name
        self.cat = cat
        self.track = track
        self.start = start
        self.end = end
        self.span_id = span_id
        self.args = args or {}


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
    # Shuffled, unique ids: span id order need not follow start order.
    ids = draw(st.permutations(range(1, len(raw) + 1)))
    spans = []
    for ((name, cat, track), start, end, stretch), span_id in zip(raw, ids):
        if end is not None:
            end = max(start, end) + stretch  # may run past the present
        spans.append(_Span(name, cat, track, start, end, span_id))
    presented = _Span(
        "frame.presented", "frame", "display", present, present,
        len(raw) + 1, {"latency": latency, "sequence": 3},
    )
    spans.insert(draw(st.integers(0, len(spans))), presented)
    return spans, presented


@settings(max_examples=400, deadline=None)
@given(frames())
def test_first_cover_sweep_matches_covering_lists(frame):
    spans, presented = frame
    expected = reference_frame_budget(7, spans, presented)
    assert _frame_budget(7, spans, presented, {}) == expected


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
    budget = _frame_budget(1, spans + [presented], presented, {})
    assert budget == reference_frame_budget(1, spans + [presented], presented)
    assert {(c.category, c.device): c.ms for c in budget.cells} == {
        ("coherence_copy", "display"): 2.0,
        ("sched_slack", "host"): 2.0,
    }


EXPLAIN_EMULATORS = ("vSoC", "GAE", "QEMU-KVM")


@pytest.mark.parametrize("emulator", EXPLAIN_EMULATORS)
@pytest.mark.parametrize("app_name", ("ar", "camera", "livestream", "video"))
def test_explain_grid_budgets_match_covering_lists(app_name, emulator):
    from repro.apps.catalog import resolve_callable
    from repro.experiments.explain import APP_FACTORIES
    from repro.experiments.runner import build_rig, drive
    from repro.obs import SpanView

    rig = build_rig(emulator, observed=True)
    app = resolve_callable(APP_FACTORIES[app_name])()
    _, _, budget = drive(rig, [app], 2_000.0, attribution=True)

    frames, skipped = [], []
    view = SpanView(rig.tracer, rig.trace)
    for flow, spans in view.flow_chains().items():
        presented = None
        for span in spans:
            if span.name == "frame.presented":
                presented = span
        if presented is None:
            skipped.append(flow)
        else:
            frames.append(reference_frame_budget(flow, spans, presented))
    frames.sort(key=lambda f: (f.present_ms, f.sequence, f.flow))
    expected = LatencyBudget(
        frames=tuple(frames),
        critical_path=budget.critical_path,
        skipped_flows=tuple(skipped),
    )
    assert budget == expected
    assert budget == analyze_tracer(view)
