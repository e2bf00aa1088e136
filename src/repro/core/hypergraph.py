"""Directed hypergraphs: the data-flow representation of §3.2.

The paper records data flows with *hyperedges* because a dependency may
involve more than two devices ("a write in camera is accompanied by two
reads in ISP and GPU"). A directed hyperedge here has a tail set (writers —
in practice a single source) and a head set (readers), and carries an
arbitrary statistics payload attached by the twin-hypergraph layer.

Nodes (device names) are known at "compile time" — registered when the
graph is built — while hyperedges are constructed dynamically at run time
as flows are observed, exactly as described in the paper.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError

EdgeKey = Tuple[FrozenSet[str], FrozenSet[str]]


def edge_key(sources: Iterable[str], destinations: Iterable[str]) -> EdgeKey:
    """Canonical dictionary key for a (sources → destinations) hyperedge."""
    return (frozenset(sources), frozenset(destinations))


def serialize_edge_key(key: EdgeKey) -> List[List[str]]:
    """Deterministic JSON-able form of an :data:`EdgeKey` (checkpointing)."""
    return [sorted(key[0]), sorted(key[1])]


class Hyperedge:
    """One data flow: source device(s) → destination device(s) plus stats.

    ``stats`` is a plain dict owned by the layer that created the edge (the
    virtual layer stores slack-interval predictors; the physical layer
    stores transfer-size and prefetch-duration predictors). ``key`` is the
    edge's :data:`EdgeKey`, built once.
    """

    __slots__ = ("sources", "destinations", "key", "stats", "observations")

    def __init__(self, sources: FrozenSet[str], destinations: FrozenSet[str]):
        if not sources:
            raise ConfigurationError("hyperedge needs at least one source")
        if not destinations:
            raise ConfigurationError("hyperedge needs at least one destination")
        self.sources = sources
        self.destinations = destinations
        self.key: EdgeKey = (sources, destinations)
        self.stats: Dict[str, Any] = {}
        self.observations = 0

    def touch(self) -> None:
        """Count one observation of this flow."""
        self.observations += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        src = "+".join(sorted(self.sources))
        dst = "+".join(sorted(self.destinations))
        return f"<Hyperedge {src}->{dst} obs={self.observations}>"


class DirectedHypergraph:
    """A set of named nodes and dynamically constructed hyperedges."""

    def __init__(self, name: str):
        self.name = name
        self._nodes: set = set()
        self._edges: Dict[EdgeKey, Hyperedge] = {}

    # -- nodes -------------------------------------------------------------
    def add_node(self, node: str) -> None:
        self._nodes.add(node)

    def has_node(self, node: str) -> bool:
        return node in self._nodes

    @property
    def nodes(self) -> FrozenSet[str]:
        return frozenset(self._nodes)

    # -- edges -------------------------------------------------------------
    def edge(self, sources: Iterable[str], destinations: Iterable[str]) -> Hyperedge:
        """Find or create the hyperedge for a flow; validates node names."""
        key = edge_key(sources, destinations)
        existing = self._edges.get(key)
        if existing is not None:
            return existing
        for node in key[0] | key[1]:
            if node not in self._nodes:
                raise ConfigurationError(
                    f"hypergraph {self.name!r} has no node {node!r}"
                )
        edge = Hyperedge(*key)
        self._edges[key] = edge
        return edge

    def get_edge(self, key: EdgeKey) -> Optional[Hyperedge]:
        return self._edges.get(key)

    def edges_from(self, source: str) -> List[Hyperedge]:
        """All hyperedges with ``source`` in their tail set."""
        return [e for e in self._edges.values() if source in e.sources]

    def remove_edges_touching(self, node: str) -> List[EdgeKey]:
        """Drop every hyperedge involving ``node``; returns the removed keys.

        Used by crash recovery to forget the learned flow history of a
        re-admitted virtual device (its post-recovery behaviour should be
        re-learned from scratch, not predicted from pre-crash patterns).
        """
        doomed = [
            key for key, e in self._edges.items()
            if node in e.sources or node in e.destinations
        ]
        for key in doomed:
            del self._edges[key]
        return doomed

    def __len__(self) -> int:
        return len(self._edges)

    def __iter__(self) -> Iterator[Hyperedge]:
        return iter(self._edges.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DirectedHypergraph {self.name!r} nodes={len(self._nodes)} edges={len(self._edges)}>"
