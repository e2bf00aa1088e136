"""Frame critical-path analysis and latency attribution over causal spans.

PR 2 gave every frame a *flow*: one causal thread stamped onto every span
the frame touches on its way from guest driver to display
(``stage:<op>`` → ``svm.begin_access`` → ``coherence.copy`` /
``prefetch.copy`` → ``transport.kick`` → ``exec:<op>`` → ``fence.wait`` →
``frame.presented``).  This module is the layer that *explains* those
flows:

* :func:`analyze_tracer` reconstructs each frame's causal DAG from its
  flow, computes the critical path (the maximum-duration chain of
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
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ReproError

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


class TruncatedTraceError(ReproError):
    """Attribution refused: the tracer's ring cap evicted spans.

    A ring-mode tracer (``Tracer(max_spans=...)``) drops its oldest spans
    on overflow, so any flow may silently be missing its early causality
    — attributing what remains would under-charge categories and break
    conservation.  The analyzer refuses loudly instead of guessing.
    """


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

def _frame_budget(flow: int, spans: Sequence[Any], presented: Any) -> FrameBudget:
    """Partition one frame's latency window via an exact interval sweep."""
    present = float(presented.start)
    latency = float((presented.args or {}).get("latency", 0.0))
    sequence = int((presented.args or {}).get("sequence", 0))
    lo = present - latency

    # (start, end, priority, span_id, category, device) for chargeable
    # spans; (start, end, rank, span_id, device) for device context.
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


# ---------------------------------------------------------------------------
# Critical path
# ---------------------------------------------------------------------------

def _critical_path(spans: Sequence[Any], presented: Any) -> Tuple[PathStep, ...]:
    """Max-duration chain of non-overlapping activities ending at present.

    Nodes are the frame's clipped spans (container ``stage:*`` spans are
    excluded — they span the whole window and would shadow the real
    chain); an edge j→i exists when j finishes no later than i starts,
    i.e. j *can* causally precede i.  The DP is deterministic: ties
    break toward the smaller span id, so two identical runs produce the
    identical path.
    """
    present = float(presented.start)
    latency = float((presented.args or {}).get("latency", 0.0))
    lo = present - latency

    nodes: List[Tuple[float, float, int, str, str]] = []
    for span in spans:
        if span is presented or span.name.startswith("stage:"):
            continue
        end = present if span.end is None else float(span.end)
        a = max(float(span.start), lo)
        b = min(end, present)
        if b <= a:
            continue
        nodes.append((a, b, span.span_id, span.name, span.track))
    nodes.sort(key=lambda n: (n[0], n[2]))

    n = len(nodes)
    dist = [0.0] * n
    prev = [-1] * n
    for i in range(n):
        a_i, b_i, _sid, _name, _track = nodes[i]
        best, best_j = 0.0, -1
        for j in range(i):
            if nodes[j][1] <= a_i and dist[j] > best:
                best, best_j = dist[j], j
        dist[i] = best + (b_i - a_i)
        prev[i] = best_j

    # Terminal: the presented instant at ``present``; every node that
    # finished by then can feed it.
    best, tail = 0.0, -1
    for i in range(n):
        if nodes[i][1] <= present and dist[i] > best:
            best, tail = dist[i], i

    steps: List[PathStep] = []
    while tail >= 0:
        a, b, _sid, name, track = nodes[tail]
        steps.append(PathStep(name, track, a, b))
        tail = prev[tail]
    steps.reverse()
    steps.append(PathStep("frame.presented", presented.track, present, present))
    return tuple(steps)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def analyze_tracer(tracer: Any) -> LatencyBudget:
    """Fold every presented frame in ``tracer`` into a :class:`LatencyBudget`.

    Raises :class:`TruncatedTraceError` when the tracer ran in ring mode
    and evicted spans — a truncated flow cannot be attributed honestly.
    """
    dropped = getattr(tracer, "dropped_spans", 0)
    if dropped:
        cap = getattr(tracer, "max_spans", None)
        raise TruncatedTraceError(
            f"tracer dropped {dropped} span(s) to its ring cap "
            f"(max_spans={cap}); flows may be missing their early causality, "
            "so latency attribution would be unsound — rerun without "
            "max_spans (or with a larger cap) to attribute this trace"
        )

    frames: List[FrameBudget] = []
    skipped: List[int] = []
    worst: Optional[Tuple[float, int, Sequence[Any], Any]] = None
    for flow in tracer.flows():
        spans = tracer.spans_of_flow(flow)
        presented = None
        for span in spans:
            if span.name == "frame.presented":
                presented = span  # keep the last present of the flow
        if presented is None:
            skipped.append(flow)
            continue
        frame = _frame_budget(flow, spans, presented)
        frames.append(frame)
        key = (frame.latency_ms, -frame.sequence)
        if worst is None or key > (worst[0], -worst[1]):
            worst = (frame.latency_ms, frame.sequence, spans, presented)

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
