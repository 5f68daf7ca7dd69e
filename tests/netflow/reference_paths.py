"""Reference shortest paths: networkx Dijkstra plus a per-hop parallel scan.

The executable specification of :mod:`repro.netflow.paths` and of
:func:`repro.netflow.failures.primary_path_failures`.  It collapses the
multigraph into a ``networkx.Graph`` (one edge per node pair, weighted
by the pair's shortest parallel link), runs networkx's Dijkstra or Yen
over it, and maps each hop back to a parallel link by scanning the
links joining the hop's two nodes.  The equivalence suite
(``tests/property/test_prop_paths.py``) compares the production
functions against these with ``==``, ordering included.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

import networkx as nx

from repro.exceptions import TopologyError
from repro.netflow.paths import Path
from repro.topology.graph import Link, Network


def _best_parallel(network: Network, u: str, v: str, weight: str) -> Link:
    """Among parallel links joining u-v, the one a shortest path would use."""
    candidates = network.links_between(u, v)
    if not candidates:
        raise TopologyError(f"no link between {u} and {v}")
    if weight == "length":
        return min(candidates, key=lambda l: (l.length_km, -l.capacity_gbps, l.id))
    if weight == "hops":
        return max(candidates, key=lambda l: (l.capacity_gbps, l.id))
    raise ValueError(f"unknown weight {weight!r}")


def _collapsed_graph(network: Network, weight: str) -> nx.Graph:
    """Simple graph keeping, per node pair, the shortest parallel's weight."""
    g = nx.Graph()
    g.add_nodes_from(network.node_ids)
    for link in network.iter_links():
        w = link.length_km if weight == "length" else 1.0
        if g.has_edge(link.u, link.v):
            if w < g[link.u][link.v]["weight"]:
                g[link.u][link.v].update(weight=w)
        else:
            g.add_edge(link.u, link.v, weight=w)
    return g


def _nodes_to_path(network: Network, node_seq: List[str], weight: str) -> Path:
    link_ids = []
    for u, v in zip(node_seq, node_seq[1:]):
        link_ids.append(_best_parallel(network, u, v, weight).id)
    return Path(nodes=tuple(node_seq), link_ids=tuple(link_ids))


def reference_shortest_path(
    network: Network, source: str, target: str, *, weight: str = "length"
) -> Optional[Path]:
    network.node(source)
    network.node(target)
    if source == target:
        return Path(nodes=(source,), link_ids=())
    g = _collapsed_graph(network, weight)
    try:
        node_seq = nx.shortest_path(g, source, target, weight="weight")
    except nx.NetworkXNoPath:
        return None
    return _nodes_to_path(network, node_seq, weight)


def reference_k_shortest_paths(
    network: Network, source: str, target: str, k: int, *, weight: str = "length"
) -> List[Path]:
    network.node(source)
    network.node(target)
    if source == target:
        return [Path(nodes=(source,), link_ids=())]
    g = _collapsed_graph(network, weight)
    paths: List[Path] = []
    try:
        for node_seq in nx.shortest_simple_paths(g, source, target, weight="weight"):
            paths.append(_nodes_to_path(network, list(node_seq), weight))
            if len(paths) >= k:
                break
    except nx.NetworkXNoPath:
        return []
    return paths


def reference_all_pairs_shortest_paths(
    network: Network, *, weight: str = "length"
) -> Dict[Tuple[str, str], Path]:
    g = _collapsed_graph(network, weight)
    out: Dict[Tuple[str, str], Path] = {}
    for source, targets in nx.all_pairs_dijkstra_path(g, weight="weight"):
        for target, node_seq in targets.items():
            if source == target:
                continue
            out[(source, target)] = _nodes_to_path(network, list(node_seq), weight)
    return out


def reference_primary_path_failures(
    network: Network, link_ids: Iterable[str]
) -> Iterator[Tuple[Tuple[str, str], FrozenSet[str]]]:
    subnet = network.restricted_to_links(set(link_ids))
    sp = reference_all_pairs_shortest_paths(subnet)
    seen: Set[FrozenSet[str]] = set()
    for (src, dst) in sorted(sp):
        if src > dst:
            continue
        path = sp[(src, dst)]
        if not path.link_ids:
            continue
        scenario = frozenset(path.link_ids)
        if scenario in seen:
            continue
        seen.add(scenario)
        yield (src, dst), scenario
