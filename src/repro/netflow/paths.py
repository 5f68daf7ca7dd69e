"""Path primitives over :class:`repro.topology.graph.Network`.

Networks are multigraphs (parallel logical links from competing BPs are
the norm), so a path is a sequence of *link ids*, not just node ids.
Shortest paths run on the collapsed simple graph
(:func:`collapsed_graph`), which keeps one link per node pair, the one
a shortest path takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import networkx as nx

from repro.exceptions import FlowError
from repro.topology.graph import Link, Network


@dataclass(frozen=True)
class Path:
    """A walk through the network: nodes and the links joining them."""

    nodes: Tuple[str, ...]
    link_ids: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) != len(self.link_ids) + 1:
            raise FlowError(
                f"path shape mismatch: {len(self.nodes)} nodes, "
                f"{len(self.link_ids)} links"
            )
        if len(self.nodes) < 1:
            raise FlowError("empty path")

    @property
    def source(self) -> str:
        return self.nodes[0]

    @property
    def target(self) -> str:
        return self.nodes[-1]

    @property
    def num_hops(self) -> int:
        return len(self.link_ids)

    def length_km(self, network: Network) -> float:
        """Total geographic length of the path in ``network``."""
        return sum(network.link(lid).length_km for lid in self.link_ids)

    def bottleneck_gbps(self, network: Network) -> float:
        """Smallest link capacity along the path (inf for trivial paths)."""
        if not self.link_ids:
            return float("inf")
        return min(network.link(lid).capacity_gbps for lid in self.link_ids)

    def uses_link(self, link_id: str) -> bool:
        return link_id in self.link_ids

    def __iter__(self) -> Iterator[str]:
        return iter(self.link_ids)


#: Edge weights a shortest path can minimize: total ``length_km``, or hops.
WEIGHTS = ("length", "hops")

#: Per node, each neighbour with the (weight, link id) of the edge joining them.
CollapsedGraph = Dict[str, Dict[str, Tuple[float, str]]]


def _check_weight(weight: str) -> None:
    if weight not in WEIGHTS:
        raise ValueError(f"unknown weight {weight!r}")


def _prefers(link: Link, held: Link, by_length: bool) -> bool:
    """Whether a shortest path takes ``link`` over its parallel ``held``.

    By length: the shorter link, then the one with more capacity, then
    the smaller id.  By hops: the one with more capacity, then the
    larger id.
    """
    if by_length:
        return (link.length_km, -link.capacity_gbps, link.id) < (
            held.length_km, -held.capacity_gbps, held.id
        )
    return (link.capacity_gbps, link.id) > (held.capacity_gbps, held.id)


def collapsed_graph(links: Iterable[Link], weight: str = "length") -> CollapsedGraph:
    """The simple graph shortest paths run on: one edge per node pair.

    Each edge carries the parallel link a shortest path uses (see
    :func:`_prefers`) and its weight.  A node lists its neighbours in
    the order their first link appears in ``links``: the order
    ``networkx.Graph.add_edge`` would give them, which Dijkstra's
    tie-breaking follows.  Nodes without links are absent.
    """
    _check_weight(weight)
    by_length = weight == "length"
    best: Dict[str, Dict[str, Link]] = {}
    for link in links:
        held = best.get(link.u, {}).get(link.v)
        if held is None or _prefers(link, held, by_length):
            best.setdefault(link.u, {})[link.v] = link
            best.setdefault(link.v, {})[link.u] = link
    return {
        u: {v: (link.length_km if by_length else 1.0, link.id) for v, link in nbrs.items()}
        for u, nbrs in best.items()
    }


def shortest_paths_from(
    graph: CollapsedGraph, source: str
) -> Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]]:
    """Dijkstra from ``source``: (nodes, link ids) of each reached node's path.

    Nodes appear in the order they settle.  Step for step networkx's
    single-source Dijkstra — heap ties broken first-pushed first, a
    tentative distance replaced only by a strictly shorter one,
    neighbours relaxed in ``graph`` order — so every path equals the one
    ``networkx.single_source_dijkstra_path`` returns on the same edges.
    """
    settled: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {}
    seen = {source: 0}
    pred: Dict[str, Optional[str]] = {source: None}
    tie = count()
    fringe = [(0, next(tie), source)]
    while fringe:
        dist, _, v = heappop(fringe)
        if v in settled:
            continue
        p = pred[v]
        if p is None:
            settled[v] = ((v,), ())
        else:
            nodes, link_ids = settled[p]
            settled[v] = (nodes + (v,), link_ids + (graph[p][v][1],))
        for u, (w, _lid) in graph.get(v, {}).items():
            if u in settled:
                continue
            d = dist + w
            if u not in seen or d < seen[u]:
                seen[u] = d
                pred[u] = v
                heappush(fringe, (d, next(tie), u))
    return settled


def _networkx_graph(network: Network, graph: CollapsedGraph) -> nx.Graph:
    """``graph`` as a networkx Graph: nodes in network order, edges in first-link order."""
    g = nx.Graph()
    g.add_nodes_from(network.node_ids)
    for link in network.iter_links():  # a pair's first link adds its edge
        g.add_edge(link.u, link.v, weight=graph[link.u][link.v][0])
    return g


def _hops_to_path(graph: CollapsedGraph, node_seq: List[str]) -> Path:
    hops = zip(node_seq, node_seq[1:])
    return Path(nodes=tuple(node_seq), link_ids=tuple(graph[u][v][1] for u, v in hops))


def shortest_path(
    network: Network, source: str, target: str, *, weight: str = "length"
) -> Optional[Path]:
    """Shortest path by geographic length (or hop count).

    Returns ``None`` when target is unreachable; raises on unknown nodes.
    One pair runs networkx's bidirectional Dijkstra on the collapsed
    graph.  Between equally short paths it can pick another one than
    :func:`shortest_paths_from` would, and the services, dataplane and
    federation code built on this function keep the paths they had.
    """
    _check_weight(weight)
    network.node(source)
    network.node(target)
    if source == target:
        return Path(nodes=(source,), link_ids=())
    graph = collapsed_graph(network.iter_links(), weight)
    try:
        node_seq = nx.shortest_path(
            _networkx_graph(network, graph), source, target, weight="weight"
        )
    except nx.NetworkXNoPath:
        return None
    return _hops_to_path(graph, node_seq)


def k_shortest_paths(
    network: Network,
    source: str,
    target: str,
    k: int,
    *,
    weight: str = "length",
) -> List[Path]:
    """Up to ``k`` loopless shortest paths (Yen's algorithm via networkx)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _check_weight(weight)
    network.node(source)
    network.node(target)
    if source == target:
        return [Path(nodes=(source,), link_ids=())]
    graph = collapsed_graph(network.iter_links(), weight)
    g = _networkx_graph(network, graph)
    paths: List[Path] = []
    try:
        for node_seq in nx.shortest_simple_paths(g, source, target, weight="weight"):
            paths.append(_hops_to_path(graph, node_seq))
            if len(paths) >= k:
                break
    except nx.NetworkXNoPath:
        return []
    return paths


def all_pairs_shortest_paths(
    network: Network, *, weight: str = "length"
) -> Dict[Tuple[str, str], Path]:
    """Shortest path for every ordered reachable pair.

    Used by shortest-path routing and the latency report.  Sources come
    in node order, each source's targets in the order they settle.
    """
    graph = collapsed_graph(network.iter_links(), weight)
    out: Dict[Tuple[str, str], Path] = {}
    for source in network.node_ids:
        for target, found in shortest_paths_from(graph, source).items():
            if target != source:
                out[(source, target)] = Path(*found)
    return out
