"""Tests for path primitives and k-shortest paths."""

import pytest

from repro.exceptions import FlowError, UnknownNodeError
from repro.netflow.paths import (
    Path,
    all_pairs_shortest_paths,
    collapsed_graph,
    k_shortest_paths,
    shortest_path,
)
from repro.topology.graph import Link

from tests.conftest import make_node, square_network


class TestPathObject:
    def test_shape_validation(self):
        with pytest.raises(FlowError):
            Path(nodes=("a", "b"), link_ids=())
        with pytest.raises(FlowError):
            Path(nodes=(), link_ids=())

    def test_trivial_path(self):
        p = Path(nodes=("a",), link_ids=())
        assert p.source == p.target == "a"
        assert p.num_hops == 0

    def test_metrics(self, square):
        p = shortest_path(square, "A", "C")
        assert p.num_hops >= 1
        assert p.length_km(square) > 0
        assert p.bottleneck_gbps(square) > 0

    def test_trivial_bottleneck_infinite(self, square):
        p = Path(nodes=("A",), link_ids=())
        assert p.bottleneck_gbps(square) == float("inf")

    def test_uses_link(self, square):
        p = shortest_path(square, "A", "B")
        assert p.uses_link("AB")
        assert not p.uses_link("CD")


class TestShortestPath:
    def test_direct_diagonal(self, square):
        # A-C has a direct link (shorter than going around).
        p = shortest_path(square, "A", "C")
        assert p.link_ids == ("AC",)

    def test_same_node(self, square):
        p = shortest_path(square, "A", "A")
        assert p.num_hops == 0

    def test_unknown_nodes_raise(self, square):
        with pytest.raises(UnknownNodeError):
            shortest_path(square, "A", "Z")

    def test_unreachable_returns_none(self, square):
        sub = square.restricted_to_links(["AB"])
        assert shortest_path(sub, "A", "D") is None

    def test_hops_weight(self, square):
        p = shortest_path(square, "B", "D", weight="hops")
        assert p.num_hops == 2

    def test_prefers_shorter_parallel(self, square):
        square.add_link(
            Link(id="AC2", u="A", v="C", capacity_gbps=50.0, length_km=10.0)
        )
        p = shortest_path(square, "A", "C")
        assert p.link_ids == ("AC2",)

    def test_equal_length_parallel_with_more_capacity_wins(self, square):
        # AB (10 Gbps) came first and has the smaller id; neither decides.
        square.add_link(
            Link(id="AB0", u="B", v="A", capacity_gbps=40.0, length_km=100.0)
        )
        assert collapsed_graph(square.iter_links())["A"]["B"] == (100.0, "AB0")
        assert shortest_path(square, "A", "B").link_ids == ("AB0",)
        assert all_pairs_shortest_paths(square)[("B", "A")].link_ids == ("AB0",)


UNKNOWN_WEIGHT_CALLS = {
    "shortest": lambda net: shortest_path(net, "A", "C", weight="bogus"),
    "shortest-trivial": lambda net: shortest_path(net, "A", "A", weight="bogus"),
    "k-shortest": lambda net: k_shortest_paths(net, "A", "C", 2, weight="bogus"),
    "all-pairs": lambda net: all_pairs_shortest_paths(net, weight="bogus"),
    "all-pairs-no-links": lambda net: all_pairs_shortest_paths(
        net.restricted_to_links([]), weight="bogus"
    ),
}


@pytest.mark.parametrize(
    "call", list(UNKNOWN_WEIGHT_CALLS.values()), ids=list(UNKNOWN_WEIGHT_CALLS)
)
def test_unknown_weight_rejected(square, call):
    with pytest.raises(ValueError, match="unknown weight 'bogus'"):
        call(square)


class TestKShortest:
    def test_k_paths_distinct_and_ordered(self, square):
        paths = k_shortest_paths(square, "A", "C", k=3)
        assert len(paths) == 3
        lengths = [p.length_km(square) for p in paths]
        assert lengths == sorted(lengths)
        assert len({p.nodes for p in paths}) == 3

    def test_k_larger_than_available(self, square):
        paths = k_shortest_paths(square, "A", "B", k=50)
        assert 1 <= len(paths) <= 50

    def test_k_validation(self, square):
        with pytest.raises(ValueError):
            k_shortest_paths(square, "A", "B", k=0)

    def test_unreachable_gives_empty(self, square):
        sub = square.restricted_to_links(["AB"])
        assert k_shortest_paths(sub, "A", "D", k=2) == []

    def test_same_node(self, square):
        paths = k_shortest_paths(square, "A", "A", k=2)
        assert len(paths) == 1
        assert paths[0].num_hops == 0


class TestAllPairs:
    def test_covers_all_reachable_pairs(self, square):
        sp = all_pairs_shortest_paths(square)
        nodes = square.node_ids
        assert len(sp) == len(nodes) * (len(nodes) - 1)

    def test_paths_are_shortest(self, square):
        sp = all_pairs_shortest_paths(square)
        direct = shortest_path(square, "B", "D")
        assert sp[("B", "D")].length_km(square) == pytest.approx(
            direct.length_km(square)
        )

    def test_disconnected_pairs_absent(self, square):
        sub = square.restricted_to_links(["AB"])
        sp = all_pairs_shortest_paths(sub)
        assert ("A", "D") not in sp
        assert ("A", "B") in sp
