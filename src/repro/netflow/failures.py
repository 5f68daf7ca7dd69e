"""Failure-scenario enumeration for the survivability constraints.

Section 3.3 evaluates the auction under three constraints:

- **Constraint #1** — the selected links must carry the traffic matrix.
- **Constraint #2** — "... assuming that any single path between a pair of
  routers has failed."  We read this as single-*link* survivability: for
  every selected logical link, the remaining links must still carry the TM.
- **Constraint #3** — "... assuming that a path between each pair of
  routers has failed."  We read this as primary-*path* survivability: for
  every router pair, the TM must still be carried when that pair's primary
  (shortest) path is removed.

Both readings are documented as interpretive choices in DESIGN.md §3.
Scenario generators yield the *link-id sets to remove*; the constraint
layer (:mod:`repro.auction.constraints`) combines them with an oracle.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, List, Set, Tuple

from repro.topology.graph import Network
from repro.netflow.paths import collapsed_graph, shortest_paths_from


def single_link_failures(link_ids: Iterable[str]) -> Iterator[FrozenSet[str]]:
    """One scenario per link: that link alone fails."""
    for lid in sorted(set(link_ids)):
        yield frozenset((lid,))


def primary_path_failures(
    network: Network, link_ids: Iterable[str]
) -> Iterator[Tuple[Tuple[str, str], FrozenSet[str]]]:
    """One scenario per router pair: that pair's primary path fails.

    The primary path is the geographic shortest path within the candidate
    link set.  Pairs with no path yield no scenario (the TM check itself
    will catch disconnection).  Duplicate link sets are deduplicated while
    keeping the first pair label, since removing the same links twice
    proves nothing new.  Pairs come in sorted order, and each source's
    shortest paths are computed only once the scenarios before them have
    been consumed, so a caller that stops at the first failing scenario
    pays for no more sources than it reached.
    """
    graph = collapsed_graph(network.link(lid) for lid in sorted(set(link_ids)))
    seen: Set[FrozenSet[str]] = set()
    for src in sorted(graph):
        paths = shortest_paths_from(graph, src)
        for dst in sorted(paths):
            if dst <= src:
                continue  # undirected pair; one direction suffices
            scenario = frozenset(paths[dst][1])
            if scenario in seen:
                continue
            seen.add(scenario)
            yield (src, dst), scenario


def node_failures(node_ids: Iterable[str], network: Network) -> Iterator[Tuple[str, FrozenSet[str]]]:
    """One scenario per node: all links incident to it fail.

    Not used by the paper's three constraints, but exposed for extension
    experiments (a POC would plan for router-site outages too).
    """
    for node_id in sorted(set(node_ids)):
        incident = frozenset(l.id for l in network.incident_links(node_id))
        if incident:
            yield node_id, incident


def shared_risk_groups(
    network: Network, *, corridor_km: float = 30.0, include_virtual: bool = False
) -> List[FrozenSet[str]]:
    """Group links whose endpoints coincide into shared-risk link groups.

    Parallel logical links between the same two POC sites typically ride
    the same physical conduits, so a backhoe takes them out together.
    Returns one group per site pair with ≥ 2 parallel links.  Virtual
    links (external-ISP contracts) ride the external ISP's own plant,
    not the leased conduit, so they are excluded unless
    ``include_virtual`` is set.  Extension material (not part of the
    paper's three constraints).
    """
    by_pair = {}
    for link in network.iter_links():
        if link.virtual and not include_virtual:
            continue
        key = tuple(sorted((link.u, link.v)))
        by_pair.setdefault(key, set()).add(link.id)
    return [frozenset(v) for k, v in sorted(by_pair.items()) if len(v) >= 2]
