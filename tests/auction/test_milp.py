"""Tests for the exact MILP engine's demand-connectivity row.

``exact_selection`` adds one inequality over the lease binaries,
Σ_l y_l ≥ |E| − k, with E the nodes that send or receive demand and k the
number of connected components of the undirected demand graph over E.
These tests read its right-hand side from the constraints handed to
``scipy.optimize.milp``; the property suite checks on random instances
that the row never cuts off an optimum.
"""

import numpy as np
import pytest
from scipy.sparse import issparse

import repro.auction.milp as milp_mod
from repro.auction.milp import exact_selection
from repro.exceptions import NoFeasibleSelectionError
from repro.resilience.chaos import micro_scenario
from repro.traffic.matrix import TrafficMatrix

from tests.conftest import make_node, square_network, square_offers


@pytest.fixture
def captured(monkeypatch):
    """Record the keyword arguments of every ``milp`` call, then solve."""
    calls = []
    real = milp_mod.milp

    def recording(c, **kwargs):
        calls.append(kwargs)
        return real(c, **kwargs)

    monkeypatch.setattr(milp_mod, "milp", recording)
    return calls


def lease_floor(call) -> float:
    """Lower bound of the one row whose coefficients are 1 on every binary."""
    binaries = call["integrality"]
    floors = []
    for con in call["constraints"]:
        rows = con.A.toarray() if issparse(con.A) else np.atleast_2d(con.A)
        lbs = np.broadcast_to(con.lb, rows.shape[:1])
        floors += [lb for row, lb in zip(rows, lbs) if np.array_equal(row, binaries)]
    (floor,) = floors
    return float(floor)


def square_tm(demands) -> TrafficMatrix:
    return TrafficMatrix.from_dict(["A", "B", "C", "D"], demands)


class TestRightHandSide:
    def test_uniform_micro_tm_needs_a_spanning_tree(self, captured):
        net, offers, tm = micro_scenario(2020)
        exact_selection(offers, net, tm)
        assert len(tm.nodes) == 8
        assert lease_floor(captured[0]) == 7

    def test_two_disjoint_pairs(self, captured):
        net = square_network()
        tm = square_tm({("A", "B"): 1.0, ("C", "D"): 1.0})
        selected, _cost = exact_selection(square_offers(net), net, tm)
        assert lease_floor(captured[0]) == 2
        assert len(selected) >= 2

    def test_chained_pairs_with_a_transit_node(self, captured):
        # a→b and b→c form one component over {A, B, C}; D carries transit only.
        net = square_network()
        tm = square_tm({("A", "B"): 1.0, ("B", "C"): 1.0})
        selected, cost = exact_selection(square_offers(net), net, tm)
        assert lease_floor(captured[0]) == 2
        # A→B rides A–C–B: the diagonal (60) undercuts the ring link AB (100).
        assert selected == frozenset({"AC", "BC"})
        assert cost == 160.0

    def test_unreachable_endpoint_still_infeasible(self):
        # E joins the network but no offered link touches it.
        net = square_network()
        net.add_node(make_node("E", 2.0, 2.0))
        tm = TrafficMatrix.from_dict(["A", "E"], {("A", "E"): 1.0})
        with pytest.raises(NoFeasibleSelectionError):
            exact_selection(square_offers(net), net, tm)
