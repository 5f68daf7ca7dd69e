"""Property tests: the collapsed-graph Dijkstra equals networkx, order included.

:mod:`repro.netflow.paths` runs its own Dijkstra over a collapsed graph
it builds once; ``tests/netflow/reference_paths.py`` keeps the networkx
code it replaced.  On seeded random multigraphs every public path
function must return exactly what the reference returns — the same
paths, the same parallel link on every hop, dict and list entries in
the same order — and the Constraint #3 scenario generator must yield
the same ``(pair, scenario)`` sequence.  The graphs are drawn to make
ties likely: integer, zero and fractional lengths, equal-length
parallels with different capacities, isolated nodes, link ids whose
sorted order is not their insertion order.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.exceptions import UnknownLinkError
from repro.netflow.failures import primary_path_failures
from repro.netflow.paths import (
    WEIGHTS,
    all_pairs_shortest_paths,
    k_shortest_paths,
    shortest_path,
)
from repro.topology.graph import Link, Network, Node

from tests.netflow.reference_paths import (
    reference_all_pairs_shortest_paths,
    reference_k_shortest_paths,
    reference_primary_path_failures,
    reference_shortest_path,
)

CASES = settings(max_examples=150, deadline=None, derandomize=True)

#: Few distinct values, so equal path lengths and equal capacities are common.
LENGTHS = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, 3.0, 0.1, 0.2, 0.3]), st.integers(0, 4)
)
CAPACITIES = st.sampled_from([1.0, 5.0, 10.0])


@st.composite
def multigraphs(draw):
    """1-7 nodes in shuffled order, up to 14 links, parallels likely."""
    n = draw(st.integers(min_value=1, max_value=7))
    names = draw(st.permutations([f"n{i}" for i in range(n)]))
    net = Network(name="prop-paths")
    for name in names:
        net.add_node(Node(id=name))
    if n < 2:
        return net
    n_links = draw(st.integers(min_value=0, max_value=14))
    ids = draw(st.permutations([f"L{i}" for i in range(n_links)]))
    for lid in ids:
        u, v = draw(st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True))
        net.add_link(Link(
            id=lid, u=u, v=v,
            capacity_gbps=draw(CAPACITIES),
            length_km=draw(LENGTHS),
        ))
    return net


class TestPathsMatchReference:
    @pytest.mark.parametrize("weight", WEIGHTS)
    @given(net=multigraphs())
    @CASES
    def test_shortest_path(self, net, weight):
        for source in net.node_ids:
            for target in net.node_ids:
                assert shortest_path(net, source, target, weight=weight) == (
                    reference_shortest_path(net, source, target, weight=weight)
                )

    @pytest.mark.parametrize("weight", WEIGHTS)
    @given(net=multigraphs())
    @CASES
    def test_all_pairs_shortest_paths(self, net, weight):
        ours = all_pairs_shortest_paths(net, weight=weight)
        reference = reference_all_pairs_shortest_paths(net, weight=weight)
        assert list(ours.items()) == list(reference.items())

    @pytest.mark.parametrize("weight", WEIGHTS)
    @given(net=multigraphs(), k=st.integers(min_value=1, max_value=4))
    @CASES
    def test_k_shortest_paths(self, net, weight, k):
        nodes = net.node_ids
        for source, target in zip(nodes, nodes[::-1]):
            assert k_shortest_paths(net, source, target, k, weight=weight) == (
                reference_k_shortest_paths(net, source, target, k, weight=weight)
            )


class TestPrimaryPathFailuresMatchReference:
    @given(net=multigraphs(), data=st.data())
    @CASES
    def test_same_scenarios_in_same_order(self, net, data):
        ids = net.link_ids
        candidates = data.draw(st.lists(st.sampled_from(ids), max_size=20)) if ids else []
        assert list(primary_path_failures(net, candidates)) == list(
            reference_primary_path_failures(net, candidates)
        )

    @given(net=multigraphs(), data=st.data())
    @CASES
    def test_unknown_ids_name_the_smallest(self, net, data):
        ids = net.link_ids
        known = data.draw(st.lists(st.sampled_from(ids), max_size=6)) if ids else []
        unknown = data.draw(st.lists(
            st.sampled_from(["A", "L", "L9x", "zz"]), min_size=1, max_size=3
        ))
        candidates = known + unknown
        with pytest.raises(UnknownLinkError) as ours:
            list(primary_path_failures(net, candidates))
        with pytest.raises(UnknownLinkError) as reference:
            list(reference_primary_path_failures(net, candidates))
        assert ours.value.link_id == reference.value.link_id == min(unknown)
