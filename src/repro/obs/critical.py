"""Frame critical-path analysis and latency attribution over causal spans.

PR 2 gave every frame a *flow*: one causal thread stamped onto every span
the frame touches on its way from guest driver to display
(``stage:<op>`` → ``svm.begin_access`` → ``coherence.copy`` /
``prefetch.copy`` → ``transport.kick`` → ``exec:<op>`` → ``fence.wait`` →
``frame.presented``).  This module is the layer that *explains* those
flows:

* :func:`analyze_tracer` reconstructs each frame's causal DAG from its
  flow (the compact per-flow table of the run's
  :class:`~repro.obs.span.SpanView`, no :class:`~repro.obs.span.Span`
  objects), computes the critical path (the maximum-duration chain of
  non-overlapping activities ending at the present), and folds every
  frame into a :class:`LatencyBudget`.
* Each :class:`FrameBudget` partitions the frame's measured latency —
  the ``latency`` argument stamped on its ``frame.presented`` instant —
  into **category × device** cells via an exact interval sweep: the
  window ``[present - latency, present]`` is split at every span
  boundary and each elementary interval is charged to the
  highest-priority span covering it (coherence > prefetch > bus >
  compute > recovery); uncovered time is scheduling/vsync slack.
  Because the sweep partitions the window, the cells sum to the
  measured frame latency by construction — the *conservation
  invariant* (:meth:`FrameBudget.conservation_error`).
* A :class:`LatencyBudget` is plain frozen data (tuples all the way
  down), so it pickles across the engine's process pool, rides the run
  cache inside a ``TelemetrySnapshot``, and round-trips through JSON —
  attribution of a cached run is computed purely from the persisted
  snapshot, never by re-simulating.

Everything here is pure post-hoc data analysis: no simulator access, no
randomness, no mutation of tracer state.  The analyzer cannot perturb a
run because it only ever *reads* spans after the run finished.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum
from operator import itemgetter
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.span import PRESENTED, Entry, Label, SpanView

#: Budget categories, in sweep-priority order (earlier wins overlaps).
#: ``sched_slack`` is the implicit remainder — time inside the frame
#: window covered by no attributable span (vsync waits, queueing).
BUDGET_CATEGORIES = (
    "coherence_copy",
    "prefetch_penalty",
    "bus_transfer",
    "device_compute",
    "recovery_stall",
    "sched_slack",
)

#: Absolute tolerance (ms) for the conservation invariant.  The sweep
#: partitions the window exactly; only float summation error remains.
CONSERVATION_TOL = 1e-6

#: Device charged for time no device-context span covers (slack, host work).
HOST_DEVICE = "host"

#: Tracks owned by host-side subsystems, never a virtual device.
_HOST_TRACKS = frozenset({"coherence", "prefetch", "transport"})

_EXEC_SUFFIX = "/exec"


# ---------------------------------------------------------------------------
# Frozen result types (picklable, JSON round-trippable)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BudgetCell:
    """Milliseconds charged to one (category, device) pair in one frame."""

    category: str
    device: str
    ms: float


@dataclass(frozen=True)
class PathStep:
    """One activity on a frame's critical path."""

    name: str
    track: str
    start_ms: float
    end_ms: float

    @property
    def ms(self) -> float:
        return self.end_ms - self.start_ms


@dataclass(frozen=True)
class FrameBudget:
    """One frame's measured latency, partitioned into budget cells."""

    flow: int
    sequence: int
    present_ms: float
    latency_ms: float
    cells: Tuple[BudgetCell, ...] = ()

    def total_ms(self) -> float:
        """Sum of all cells — equals :attr:`latency_ms` up to float error."""
        return fsum(cell.ms for cell in self.cells)

    def conservation_error(self) -> float:
        """``|sum(cells) - latency|`` in ms; the invariant the tests gate."""
        return abs(self.total_ms() - self.latency_ms)

    def category_ms(self) -> Dict[str, float]:
        out = {category: 0.0 for category in BUDGET_CATEGORIES}
        for cell in self.cells:
            out[cell.category] = out.get(cell.category, 0.0) + cell.ms
        return out


@dataclass(frozen=True)
class LatencyBudget:
    """Every frame of one run folded into a deterministic budget.

    ``skipped_flows`` lists flows that never reached ``frame.presented``
    (frames still in flight at the horizon) — they carry no measured
    latency, so they are reported rather than guessed at.
    """

    frames: Tuple[FrameBudget, ...] = ()
    critical_path: Tuple[PathStep, ...] = ()
    skipped_flows: Tuple[int, ...] = ()

    # -- aggregate views ---------------------------------------------------
    def totals(self) -> Dict[Tuple[str, str], float]:
        """Total ms per (category, device) cell across all frames."""
        acc: Dict[Tuple[str, str], List[float]] = {}
        for frame in self.frames:
            for cell in frame.cells:
                acc.setdefault((cell.category, cell.device), []).append(cell.ms)
        return {key: fsum(values) for key, values in sorted(acc.items())}

    def category_totals(self) -> Dict[str, float]:
        out = {category: 0.0 for category in BUDGET_CATEGORIES}
        for (category, _device), ms in self.totals().items():
            out[category] = out.get(category, 0.0) + ms
        return out

    def total_latency_ms(self) -> float:
        return fsum(frame.latency_ms for frame in self.frames)

    def latencies(self) -> List[float]:
        return [frame.latency_ms for frame in self.frames]

    def dominant_cell(self) -> Optional[Tuple[str, str, float]]:
        """The (category, device, ms) cell holding the most total time."""
        totals = self.totals()
        if not totals:
            return None
        (category, device), ms = max(
            totals.items(), key=lambda kv: (kv[1], kv[0])
        )
        return category, device, ms

    def conservation_errors(self, tol: float = CONSERVATION_TOL) -> List[str]:
        """Frames violating the conservation invariant (empty == healthy)."""
        problems = []
        for frame in self.frames:
            err = frame.conservation_error()
            if err > tol:
                problems.append(
                    f"frame seq={frame.sequence} flow={frame.flow}: cells sum "
                    f"to {frame.total_ms():.9f} ms but measured latency is "
                    f"{frame.latency_ms:.9f} ms (error {err:.3e})"
                )
        return problems

    # -- (de)serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "frames": [
                {
                    "flow": f.flow,
                    "sequence": f.sequence,
                    "present_ms": f.present_ms,
                    "latency_ms": f.latency_ms,
                    "cells": [
                        {"category": c.category, "device": c.device, "ms": c.ms}
                        for c in f.cells
                    ],
                }
                for f in self.frames
            ],
            "critical_path": [
                {"name": s.name, "track": s.track,
                 "start_ms": s.start_ms, "end_ms": s.end_ms}
                for s in self.critical_path
            ],
            "skipped_flows": list(self.skipped_flows),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LatencyBudget":
        return cls(
            frames=tuple(
                FrameBudget(
                    flow=int(f["flow"]),
                    sequence=int(f["sequence"]),
                    present_ms=float(f["present_ms"]),
                    latency_ms=float(f["latency_ms"]),
                    cells=tuple(
                        BudgetCell(c["category"], c["device"], float(c["ms"]))
                        for c in f.get("cells", ())
                    ),
                )
                for f in data.get("frames", ())
            ),
            critical_path=tuple(
                PathStep(s["name"], s["track"],
                         float(s["start_ms"]), float(s["end_ms"]))
                for s in data.get("critical_path", ())
            ),
            skipped_flows=tuple(int(x) for x in data.get("skipped_flows", ())),
        )


# ---------------------------------------------------------------------------
# Span classification
# ---------------------------------------------------------------------------

def _classify(name: str, cat: str) -> Tuple[Optional[str], int]:
    """Map a span to (budget category, sweep priority); (None, _) = context.

    ``prefetch.*`` is matched before its ``coherence`` cat: prefetch
    traffic inside the frame window is by definition a miss penalty (a
    hit would have moved the bytes *before* the frame was born).
    """
    if name.startswith("prefetch."):
        return "prefetch_penalty", 1
    if name.startswith("coherence."):
        return "coherence_copy", 0
    if name == "transport.kick":
        return "bus_transfer", 2
    if name.startswith("exec:"):
        return "device_compute", 3
    if cat == "recovery" or name.startswith(("recovery.", "crash.", "replay.")):
        return "recovery_stall", 4
    return None, 99  # stage:*, svm.*, fence.* — context, not directly charged


def _span_device(name: str, cat: str, track: str) -> Optional[str]:
    """The virtual device a span ran on, or None for host subsystems."""
    if track in _HOST_TRACKS:
        return None
    if track.endswith(_EXEC_SUFFIX):
        return track[: -len(_EXEC_SUFFIX)] or None
    if cat in ("stage", "svm", "exec", "fence"):
        return track
    return None


#: Device-context preference when charging a host-track span to a device:
#: the device executing (exec) beats the device accessing (svm) beats the
#: device whose stage merely contains the interval.
def _context_rank(name: str, cat: str) -> int:
    if name.startswith("exec:"):
        return 0
    if cat == "svm":
        return 1
    return 2


# ---------------------------------------------------------------------------
# The per-frame sweep
# ---------------------------------------------------------------------------

#: A span's sweep role: (category, priority, device, context rank).
SpanKind = Tuple[Optional[str], int, Optional[str], int]

#: A context span's place in the default-device choice: (clipped start,
#: rank, start, order).
_by_clip = itemgetter(3, 0, 1, 2)


def _span_kind(name: str, cat: str, track: str) -> SpanKind:
    category, priority = _classify(name, cat)
    return category, priority, _span_device(name, cat, track), _context_rank(name, cat)


def _frame_budget(
    flow: int,
    chain: Sequence[Entry],
    presented: Entry,
    kinds: Dict[Label, SpanKind],
    made: Dict[Tuple[str, str, float], BudgetCell],
) -> FrameBudget:
    """Partition one frame's latency window via an exact interval sweep.

    ``chain`` holds the flow's spans and ``presented`` its
    ``frame.presented``, as :data:`~repro.obs.span.Entry` tuples.
    ``kinds`` memoizes :func:`_span_kind` by label, and ``made`` each
    distinct (frozen) cell, across the frames of one analysis: a run
    repeats most of its cells. Each elementary interval goes to the first
    chargeable span, in ``(priority, start, order)`` order (the view's
    ``(priority, span_id)``), that covers it: the minimum of the covering
    spans under that key, found without building the covering list. A
    host-track winner takes its device from the first covering context
    span in ``(rank, start, order)`` order the same way.
    """
    present = float(presented[0])
    args = presented[4].args or {}
    latency = float(args.get("latency", 0.0))
    sequence = int(args.get("sequence", 0))
    if latency <= 0.0:
        return FrameBudget(flow, sequence, present, latency)
    lo = present - latency

    # (priority, start, order, a, b, category, device) for chargeable
    # spans; (rank, start, order, a, b, device) for device context.
    charge: List[Tuple[int, float, int, float, float, str, Optional[str]]] = []
    context: List[Tuple[int, float, int, float, float, str]] = []
    bounds = {lo, present}
    for start, order, end, label, _source in chain:
        a = start if start > lo else lo
        b = end if end < present else present
        if b <= a:
            continue
        kind = kinds.get(label)
        if kind is None:
            kind = kinds[label] = _span_kind(label.name, label.cat, label.track)
        category, priority, device, rank = kind
        if category is not None:
            charge.append((priority, start, order, a, b, category, device))
            bounds.add(a)
            bounds.add(b)
        if device is not None:
            context.append((rank, start, order, a, b, device))

    default_device = HOST_DEVICE
    if context:
        default_device = min(context, key=_by_clip)[5]
    charge.sort()
    context.sort()
    cuts = sorted(bounds)

    cells: Dict[Tuple[str, str], List[float]] = {}
    for left, right in zip(cuts, cuts[1:]):
        if right <= left:
            continue
        for _pri, _start, _order, a, b, category, device in charge:
            if a <= left and b >= right:
                if device is None:
                    for _rank, _cstart, _corder, ca, cb, device in context:
                        if ca <= left and cb >= right:
                            break
                    else:
                        device = default_device
                break
        else:
            category, device = "sched_slack", HOST_DEVICE
        cells.setdefault((category, device), []).append(right - left)

    budget_cells = []
    for (category, device), lengths in sorted(cells.items()):
        key = (category, device, fsum(lengths))
        cell = made.get(key)
        if cell is None:
            cell = made[key] = BudgetCell(*key)
        budget_cells.append(cell)
    return FrameBudget(flow, sequence, present, latency, tuple(budget_cells))


# ---------------------------------------------------------------------------
# Critical path
# ---------------------------------------------------------------------------

def _critical_path(chain: Sequence[Entry], presented: Entry) -> Tuple[PathStep, ...]:
    """Max-duration chain of non-overlapping activities ending at present.

    Nodes are the frame's clipped spans (container ``stage:*`` spans are
    excluded — they span the whole window and would shadow the real
    chain); an edge j→i exists when j finishes no later than i starts,
    i.e. j *can* causally precede i.  The DP is deterministic: ties
    break toward the span earlier in view order, so two identical runs
    produce the identical path.
    """
    present = float(presented[0])
    latency = float((presented[4].args or {}).get("latency", 0.0))
    lo = present - latency

    # (a, start, order, b, label): sorted by clipped start, then view order.
    nodes: List[Tuple[float, float, int, float, Label]] = []
    for start, order, end, label, _source in chain:
        if label.name.startswith("stage:"):
            continue
        a = start if start > lo else lo
        b = end if end < present else present
        if b <= a:
            continue
        nodes.append((a, start, order, b, label))
    nodes.sort()

    n = len(nodes)
    dist = [0.0] * n
    prev = [-1] * n
    for i in range(n):
        a_i = nodes[i][0]
        best, best_j = 0.0, -1
        for j in range(i):
            if nodes[j][3] <= a_i and dist[j] > best:
                best, best_j = dist[j], j
        dist[i] = best + (nodes[i][3] - a_i)
        prev[i] = best_j

    # Terminal: the presented instant at ``present``; every node that
    # finished by then can feed it.
    best, tail = 0.0, -1
    for i in range(n):
        if nodes[i][3] <= present and dist[i] > best:
            best, tail = dist[i], i

    steps: List[PathStep] = []
    while tail >= 0:
        a, _start, _order, b, label = nodes[tail]
        steps.append(PathStep(label.name, label.track, float(a), float(b)))
        tail = prev[tail]
    steps.reverse()
    steps.append(PathStep(PRESENTED, presented[3].track, present, present))
    return tuple(steps)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def analyze_tracer(view: SpanView) -> LatencyBudget:
    """Fold every presented frame of a run into a :class:`LatencyBudget`.

    ``view`` is the run's :class:`~repro.obs.span.SpanView`. The sweep
    reads only its compact :attr:`~repro.obs.span.SpanView.table`, so it
    builds no :class:`~repro.obs.span.Span`.
    """
    chains, presented, flows = view.table
    frames: List[FrameBudget] = []
    skipped: List[int] = []
    worst: Optional[Tuple[float, int, Sequence[Entry], Entry]] = None
    kinds: Dict[Label, SpanKind] = {}
    made: Dict[Tuple[str, str, float], BudgetCell] = {}
    for flow in flows:
        shown = presented.get(flow)
        if shown is None:
            skipped.append(flow)
            continue
        chain = chains.get(flow, ())
        frame = _frame_budget(flow, chain, shown, kinds, made)
        frames.append(frame)
        key = (frame.latency_ms, -frame.sequence)
        if worst is None or key > (worst[0], -worst[1]):
            worst = (frame.latency_ms, frame.sequence, chain, shown)

    frames.sort(key=lambda f: (f.present_ms, f.sequence, f.flow))
    path = _critical_path(worst[2], worst[3]) if worst is not None else ()
    return LatencyBudget(
        frames=tuple(frames),
        critical_path=path,
        skipped_flows=tuple(skipped),
    )


def budget_from_snapshot(snapshot: Any) -> Optional[LatencyBudget]:
    """The persisted attribution of a cached run, or None if unobserved.

    Accepts a ``TelemetrySnapshot`` (attribute access) or its
    ``to_dict()`` form — both carry the budget verbatim, so a warm-cache
    rerun attributes without simulating.
    """
    if snapshot is None:
        return None
    attribution = (
        snapshot.get("attribution")
        if isinstance(snapshot, Mapping)
        else getattr(snapshot, "attribution", None)
    )
    if attribution is None:
        return None
    if isinstance(attribution, LatencyBudget):
        return attribution
    return LatencyBudget.from_dict(attribution)
