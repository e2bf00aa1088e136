"""The twin hypergraphs of §3.2: SVM usage modelled at two layers.

Two directed hypergraphs share a hashtable:

* the **virtual layer** — nodes are virtual devices; a hyperedge is a data
  flow (writer vdev → reader vdevs) and records high-level statistics: the
  slack intervals between consecutive cross-device accesses;
* the **physical layer** — nodes are coherence *locations* (physical
  devices with local memory, plus host memory); its hyperedges record
  low-level properties: transfer sizes and observed prefetch durations;
* the **hashtable in between** maps SVM region IDs to their flow's
  hyperedges in both layers — updated dynamically as the SVM Manager
  processes accesses.

Data flows and regions have a one-to-many relationship (a buffered pipeline
rotates several regions through the same flow), which is exactly why R/W
history is recorded per *flow* rather than per region: a freshly allocated
region inherits its flow's history, giving the paper's "zero-shot"
prediction when data pipelines switch (§3.3).

Generations
-----------
A region's life is a sequence of write generations: a write opens a
generation and the reads that follow belong to it. When the next write
arrives, the previous generation is *finalized*: its actual reader set
names the flow's hyperedge, statistics are folded in, and the region is
(re)bound — so the binding used for prediction always reflects the most
recent completed generation.

Zero-shot answers
-----------------
A region with no usable bound flow is predicted from its writer's busiest
virtual edge and the busiest physical edge overall, each the *first*
maximal edge in graph order (``max()``'s tie rule). The twin keeps both
answers current instead of re-scanning the graphs on every prediction: a
touch that passes the kept edge replaces it; a touch that ties it, the
first edge where there was none and
:meth:`TwinHypergraphs.reset_vdev_history` drop it, and the next prediction
re-scans.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set

from repro.core.hypergraph import (
    DirectedHypergraph,
    Hyperedge,
    serialize_edge_key,
)
from repro.core.smoothing import ExponentialSmoothing
from repro.errors import UnknownRegionError

#: A dropped zero-shot answer: the next prediction re-scans the graph.
_RESCAN = object()


def _after_touch(best: Optional[Hyperedge], edge: Hyperedge) -> object:
    """A kept zero-shot answer after ``edge``, another of its candidates,
    was touched.

    ``best`` stays while it is still the first maximal edge in graph order;
    ``edge`` replaces it once it has strictly more observations. A tie drops
    the answer, because which of two tied edges comes first in graph order
    is not known without a scan; so does a new edge where there was none
    (``best is None``). Any other new edge needs no rule of its own: it is
    last in graph order, so it trails, ties or strictly passes ``best``.
    """
    if best is None or edge.observations == best.observations:
        return _RESCAN
    return edge if edge.observations > best.observations else best


class _FlowState:
    """Per-region entry of the hashtable linking the two hypergraph layers."""

    __slots__ = (
        "vedge",
        "pedge",
        "gen_writer_vdev",
        "gen_writer_loc",
        "gen_readers",
        "gen_reader_locs",
        "gen_slack_samples",
    )

    def __init__(self) -> None:
        self.vedge: Optional[Hyperedge] = None
        self.pedge: Optional[Hyperedge] = None
        self.gen_writer_vdev: Optional[str] = None
        self.gen_writer_loc: Optional[str] = None
        self.gen_readers: Set[str] = set()
        self.gen_reader_locs: Set[str] = set()
        self.gen_slack_samples: List[float] = []


class PredictedFlow:
    """The prefetch engine's view of a predicted data flow."""

    __slots__ = ("reader_vdevs", "vedge", "pedge")

    def __init__(
        self,
        reader_vdevs: FrozenSet[str],
        vedge: Optional[Hyperedge],
        pedge: Optional[Hyperedge],
    ):
        self.reader_vdevs = reader_vdevs
        self.vedge = vedge
        self.pedge = pedge


class TwinHypergraphs:
    """Virtual + physical data-flow hypergraphs with the region hashtable."""

    #: rough per-object sizes used by :meth:`memory_overhead_bytes`
    _EDGE_COST = 256
    _REGION_COST = 96
    _NODE_COST = 48

    def __init__(self, virtual_nodes: Iterable[str], physical_nodes: Iterable[str]):
        self.virtual = DirectedHypergraph("virtual")
        self.physical = DirectedHypergraph("physical")
        for node in virtual_nodes:
            self.virtual.add_node(node)
        for node in physical_nodes:
            self.physical.add_node(node)
        self._flows: Dict[int, _FlowState] = {}
        # The zero-shot answers (see the module docstring): writer vdev ->
        # its busiest virtual edge, and the busiest physical edge.
        self._busiest_from: Dict[str, object] = {}
        self._busiest_pedge: object = _RESCAN

    # -- region hashtable --------------------------------------------------
    def register_region(self, region_id: int) -> None:
        """Add a hashtable entry for a newly allocated SVM region."""
        self._flows[region_id] = _FlowState()

    def drop_region(self, region_id: int) -> None:
        """Remove the entry when the region is freed."""
        self._flows.pop(region_id, None)

    def _flow(self, region_id: int) -> _FlowState:
        """The region's entry; the hooks read ``_flows`` directly and call
        this only to raise on a miss."""
        try:
            return self._flows[region_id]
        except KeyError:
            raise UnknownRegionError(f"region #{region_id} not in twin hashtable") from None

    @property
    def tracked_regions(self) -> int:
        return len(self._flows)

    # -- observation hooks (called by the SVM Manager) -------------------------
    def on_write(
        self, region_id: int, writer_vdev: str, writer_loc: str, nbytes: int
    ) -> None:
        """A new write generation begins: finalize the previous one."""
        flow = self._flows.get(region_id) or self._flow(region_id)
        self._finalize_generation(flow)
        flow.gen_writer_vdev = writer_vdev
        flow.gen_writer_loc = writer_loc
        if flow.pedge is not None:
            self._size_stat(flow.pedge).update(float(nbytes))

    def on_read(
        self,
        region_id: int,
        reader_vdev: str,
        reader_loc: str,
        slack: Optional[float],
    ) -> None:
        """A read joined the current generation; record slack if first."""
        flow = self._flows.get(region_id) or self._flow(region_id)
        first_reader = not flow.gen_readers
        flow.gen_readers.add(reader_vdev)
        flow.gen_reader_locs.add(reader_loc)
        if slack is not None and first_reader:
            if flow.vedge is not None and reader_vdev in flow.vedge.destinations:
                self._slack_stat(flow.vedge).update(slack)
            else:
                flow.gen_slack_samples.append(slack)

    def _finalize_generation(self, flow: _FlowState) -> None:
        """Bind the region to the hyperedges named by its actual readers."""
        writer = flow.gen_writer_vdev
        if writer is not None and flow.gen_readers:
            vedge = self._observe(self.virtual, flow.vedge, writer, flow.gen_readers)
            best = self._busiest_from.get(writer, _RESCAN)
            if best is not vedge and best is not _RESCAN:
                self._busiest_from[writer] = _after_touch(best, vedge)
            slack_stat = self._slack_stat(vedge)
            for sample in flow.gen_slack_samples:
                slack_stat.update(sample)
            flow.vedge = vedge

            if flow.gen_writer_loc is not None and flow.gen_reader_locs:
                pedge = self._observe(
                    self.physical, flow.pedge, flow.gen_writer_loc, flow.gen_reader_locs
                )
                best = self._busiest_pedge
                if best is not pedge and best is not _RESCAN:
                    self._busiest_pedge = _after_touch(best, pedge)
                flow.pedge = pedge
        self._reset_generation(flow)

    @staticmethod
    def _observe(
        graph: DirectedHypergraph,
        bound: Optional[Hyperedge],
        source: str,
        destinations: Set[str],
    ) -> Hyperedge:
        """Touch the graph's edge for ``source → destinations``.

        A steady flow names its bound edge again, so that edge is reused
        without a lookup. This is exact: a bound edge is always the graph's
        edge for its key (:meth:`reset_vdev_history` unbinds the edges it
        removes).
        """
        if (
            bound is not None
            and bound.destinations == destinations
            and len(bound.sources) == 1
            and source in bound.sources
        ):
            edge = bound
        else:
            edge = graph.edge((source,), destinations)
        edge.touch()
        return edge

    @staticmethod
    def _reset_generation(flow: _FlowState) -> None:
        flow.gen_writer_vdev = None
        flow.gen_writer_loc = None
        if flow.gen_readers:  # a reader-less generation has nothing to clear
            flow.gen_readers.clear()
            flow.gen_reader_locs.clear()
            flow.gen_slack_samples.clear()

    # -- statistics accessors ------------------------------------------------
    @staticmethod
    def _slack_stat(edge: Hyperedge) -> ExponentialSmoothing:
        stat = edge.stats.get("slack")
        if stat is None:
            stat = edge.stats["slack"] = ExponentialSmoothing()
        return stat

    @staticmethod
    def _size_stat(edge: Hyperedge) -> ExponentialSmoothing:
        stat = edge.stats.get("size")
        if stat is None:
            stat = edge.stats["size"] = ExponentialSmoothing()
        return stat

    @staticmethod
    def _prefetch_stat(edge: Hyperedge) -> ExponentialSmoothing:
        stat = edge.stats.get("prefetch_time")
        if stat is None:
            stat = edge.stats["prefetch_time"] = ExponentialSmoothing()
        return stat

    def note_prefetch_duration(self, pedge: Hyperedge, duration: float) -> None:
        """Fold an observed prefetch copy duration into the physical layer."""
        self._prefetch_stat(pedge).update(duration)

    def predict_prefetch_time(self, pedge: Optional[Hyperedge]) -> Optional[float]:
        if pedge is None:
            return None
        stat = pedge.stats.get("prefetch_time")
        return stat.predict() if stat is not None else None

    def predict_slack(self, vedge: Optional[Hyperedge]) -> Optional[float]:
        if vedge is None:
            return None
        stat = vedge.stats.get("slack")
        return stat.predict() if stat is not None else None

    # -- prediction -------------------------------------------------------------
    def predict_readers(
        self, region_id: int, writer_vdev: str, allow_zero_shot: bool = True
    ) -> Optional[PredictedFlow]:
        """Predict who reads this region's fresh write next (§3.3 type 1).

        Uses the region's bound flow when available; otherwise falls back to
        the busiest flow sourced at ``writer_vdev`` — the zero-shot path for
        new regions joining an established pipeline. ``allow_zero_shot=False``
        disables the fallback (the fine-grained, per-region-history ablation
        the paper argues against: it re-pays cold starts on every pipeline
        switch).
        """
        flow = self._flows.get(region_id) or self._flow(region_id)
        vedge = flow.vedge
        pedge = flow.pedge
        if vedge is None or writer_vdev not in vedge.sources:
            if not allow_zero_shot:
                return None
            vedge = self._busiest_from.get(writer_vdev, _RESCAN)
            if vedge is _RESCAN:
                vedge = self._busiest_edge_from(self.virtual, writer_vdev)
                self._busiest_from[writer_vdev] = vedge
            pedge = None
        if vedge is None:
            return None
        if pedge is None:
            pedge = self._busiest_pedge
            if pedge is _RESCAN:
                pedge = self._busiest_pedge = self._matching_pedge()
        return PredictedFlow(vedge.destinations, vedge, pedge)

    @staticmethod
    def _busiest_edge_from(graph: DirectedHypergraph, source: str) -> Optional[Hyperedge]:
        candidates = graph.edges_from(source)
        if not candidates:
            return None
        return max(candidates, key=lambda e: e.observations)

    def _matching_pedge(self) -> Optional[Hyperedge]:
        """Physical edge for a prediction whose region has none bound.

        The most-observed physical edge of the whole graph, the first one
        in graph order on a tie. It ignores the virtual prediction: a weak
        fallback, which serves because pipelines map stably onto locations.
        """
        best: Optional[Hyperedge] = None
        for pedge in self.physical:
            if best is None or pedge.observations > best.observations:
                best = pedge
        return best

    # -- crash recovery ---------------------------------------------------------
    def reset_vdev_history(self, vdev: str) -> int:
        """Forget everything learned about flows involving ``vdev``.

        Virtual-layer edges touching the device are dropped, and regions
        bound to those edges are unbound (their next finalized generation
        re-binds them). Physical-layer edges are kept: locations outlive a
        virtual device's crash. Returns the number of edges removed.
        """
        removed = set(self.virtual.remove_edges_touching(vdev))
        self._busiest_from.clear()
        self._busiest_pedge = _RESCAN
        for flow in self._flows.values():
            if flow.vedge is not None and flow.vedge.key in removed:
                flow.vedge = None
                flow.pedge = None
            if flow.gen_writer_vdev == vdev or vdev in flow.gen_readers:
                self._reset_generation(flow)
        return len(removed)

    # -- checkpointing ----------------------------------------------------------
    def region_ids(self) -> Set[int]:
        """Keys of the region hashtable (for the bijection audit)."""
        return set(self._flows)

    def snapshot_state(self) -> Dict[str, object]:
        """Deterministic, JSON-able image of both layers + the hashtable."""

        def graph_state(graph: DirectedHypergraph) -> Dict[str, object]:
            return {
                "nodes": sorted(graph.nodes),
                "edges": [
                    {
                        "key": serialize_edge_key(edge.key),
                        "observations": edge.observations,
                        "stats": {
                            name: stat.state_dict()
                            for name, stat in sorted(edge.stats.items())
                        },
                    }
                    for edge in sorted(
                        graph, key=lambda e: serialize_edge_key(e.key)
                    )
                ],
            }

        return {
            "virtual": graph_state(self.virtual),
            "physical": graph_state(self.physical),
            "flows": {
                str(region_id): {
                    "vedge": None if f.vedge is None else serialize_edge_key(f.vedge.key),
                    "pedge": None if f.pedge is None else serialize_edge_key(f.pedge.key),
                    "gen_writer_vdev": f.gen_writer_vdev,
                    "gen_writer_loc": f.gen_writer_loc,
                    "gen_readers": sorted(f.gen_readers),
                    "gen_reader_locs": sorted(f.gen_reader_locs),
                    "gen_slack_samples": list(f.gen_slack_samples),
                }
                for region_id, f in sorted(self._flows.items())
            },
        }

    # -- bookkeeping for §5.2's memory-overhead claim -------------------------
    def memory_overhead_bytes(self) -> int:
        """Estimated resident size of the framework's data structures."""
        return (
            (len(self.virtual) + len(self.physical)) * self._EDGE_COST
            + len(self._flows) * self._REGION_COST
            + (len(self.virtual.nodes) + len(self.physical.nodes)) * self._NODE_COST
        )
