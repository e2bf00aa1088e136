"""Oracle for the twin's per-flow and per-topology shortcuts.

The twin keeps its zero-shot answers (the busiest virtual edge per writer
and the busiest physical edge) current instead of re-scanning, and reuses a
flow's bound edge instead of looking it up again. The hypothesis test drives
random register/write/read/drop and crash-reset sequences and, after every
step, compares each prediction with a reference that re-scans the graphs the
way the twin once did on every call.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.degradation import DegradationController
from repro.core.hypergraph import DirectedHypergraph
from repro.core.prefetch import PrefetchEngine
from repro.core.twin import TwinHypergraphs
from repro.sim import Simulator
from repro.sim.tracing import TraceLog
from repro.units import MIB

VDEVS = ("codec", "gpu", "display", "cpu")
LOCS = ("host", "gpu", "isp")
REGIONS = (1, 2)


# -- the reference: a full scan on every prediction --------------------------

def _busiest_edge_from(graph, source):
    candidates = graph.edges_from(source)
    if not candidates:
        return None
    return max(candidates, key=lambda e: e.observations)


def _matching_pedge(graph):
    best = None
    for pedge in graph:
        if best is None or pedge.observations > best.observations:
            best = pedge
    return best


def reference_prediction(twin, region_id, writer_vdev):
    """(vedge, pedge) as a full re-scan predicts them, or None."""
    flow = twin._flows[region_id]
    vedge, pedge = flow.vedge, flow.pedge
    if vedge is None or writer_vdev not in vedge.sources:
        vedge = _busiest_edge_from(twin.virtual, writer_vdev)
        pedge = None
    if vedge is None:
        return None
    if pedge is None:
        pedge = _matching_pedge(twin.physical)
    return vedge, pedge


# -- the steps -----------------------------------------------------------------

#: Step kinds, weighted so that most sequences complete generations.
KINDS = ("write",) * 6 + ("read",) * 9 + ("register", "drop", "reset")
steps = st.tuples(
    st.sampled_from(KINDS),
    st.sampled_from(REGIONS),
    st.sampled_from(VDEVS),
    st.sampled_from(LOCS),
    st.sampled_from((None, 4.0, 9.0)),
)


def apply(twin, step):
    kind, region_id, vdev, loc, slack = step
    if kind == "reset":
        twin.reset_vdev_history(vdev)
    elif kind == "register":
        twin.register_region(region_id)
    elif kind == "drop":
        twin.drop_region(region_id)
    elif region_id in twin.region_ids():
        if kind == "write":
            twin.on_write(region_id, vdev, loc, MIB)
        else:
            twin.on_read(region_id, vdev, loc, slack)


def check(twin):
    for flow in twin._flows.values():
        if flow.vedge is not None:
            assert twin.virtual.get_edge(flow.vedge.key) is flow.vedge
        if flow.pedge is not None:
            assert twin.physical.get_edge(flow.pedge.key) is flow.pedge
    for region_id in sorted(twin.region_ids()):
        for vdev in VDEVS:
            predicted = twin.predict_readers(region_id, vdev)
            expected = reference_prediction(twin, region_id, vdev)
            if expected is None:
                assert predicted is None
                continue
            assert predicted is not None
            assert predicted.vedge is expected[0]
            assert predicted.pedge is expected[1]
            assert predicted.reader_vdevs is expected[0].destinations


@settings(max_examples=300, deadline=None)
@given(st.lists(steps, min_size=20, max_size=80))
def test_predictions_match_a_full_rescan(sequence):
    twin = TwinHypergraphs(VDEVS, LOCS)
    for region_id in REGIONS:
        twin.register_region(region_id)
    for step in sequence:
        apply(twin, step)
        check(twin)


def test_a_tie_goes_to_the_first_edge_in_graph_order():
    twin = TwinHypergraphs(VDEVS, LOCS)
    readers = {1: ("gpu", "gpu"), 2: ("display", "isp")}
    for region_id in (1, 2, 3):
        twin.register_region(region_id)
    for region_id in readers:
        twin.on_write(region_id, "codec", "host", MIB)

    def generation(region_id):
        twin.on_read(region_id, *readers[region_id], None)
        twin.on_write(region_id, "codec", "host", MIB)

    def zero_shot_destinations():
        predicted = twin.predict_readers(3, "codec")
        return predicted.vedge.destinations, predicted.pedge.destinations

    generation(1)
    generation(2)
    assert zero_shot_destinations() == ({"gpu"}, {"gpu"})  # tied at 1
    generation(2)
    assert zero_shot_destinations() == ({"display"}, {"isp"})
    # The first edges catch up with the kept answer: the tie is theirs.
    generation(1)
    assert zero_shot_destinations() == ({"gpu"}, {"gpu"})


# -- unit checks of the shortcuts -----------------------------------------------

def test_a_steady_generation_on_a_bound_flow_looks_up_no_edge(monkeypatch):
    twin = TwinHypergraphs(VDEVS, LOCS)
    twin.register_region(1)
    for _ in range(3):
        twin.on_write(1, "codec", "host", MIB)
        twin.on_read(1, "gpu", "gpu", 8.0)
    lookups = []
    original = DirectedHypergraph.edge

    def counting(graph, sources, destinations):
        lookups.append(graph.name)
        return original(graph, sources, destinations)

    monkeypatch.setattr(DirectedHypergraph, "edge", counting)
    bound = twin._flows[1].vedge, twin._flows[1].pedge
    twin.on_write(1, "codec", "host", MIB)
    assert lookups == []
    assert (twin._flows[1].vedge, twin._flows[1].pedge) == bound
    assert bound[0].observations == 3


def test_remote_targets_asks_each_location_once_per_flow():
    asked = []

    def location(vdev):
        asked.append(vdev)
        return {"gpu": "gpu", "display": "gpu", "codec": "host"}[vdev]

    twin = TwinHypergraphs(VDEVS, LOCS)
    sim = Simulator()
    engine = PrefetchEngine(sim, twin, None, location, TraceLog(), DegradationController(sim))
    readers = frozenset({"gpu", "display"})
    first = engine._remote_targets(readers, "host")
    assert first == {"gpu"}
    assert engine._remote_targets(readers, "host") is first
    assert sorted(asked) == ["display", "gpu"]
    assert engine._remote_targets(readers, "gpu") == set()
    assert len(asked) == 4
