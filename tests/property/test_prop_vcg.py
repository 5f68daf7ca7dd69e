"""Property tests for the VCG auction on random small instances.

A brute-force optimal selection (exhaustive subset enumeration, feasible
for ≤ 10 links) provides ground truth, letting us check on *random*
instances that:

- the MILP engine finds true optima,
- Clarke-pivot payments are individually rational,
- truthful bidding weakly dominates uniform shading (with exact
  selection), for every provider.
"""

import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from repro.auction.bids import AdditiveCost
from repro.auction.constraints import TrafficConstraint, make_constraint
from repro.auction.milp import exact_selection
from repro.auction.provider import Offer
from repro.auction.vcg import AuctionConfig, run_auction, utility
from repro.exceptions import NoFeasibleSelectionError
from repro.topology.geo import GeoPoint
from repro.topology.graph import Link, Network, Node
from repro.traffic.matrix import TrafficMatrix

EXACT = AuctionConfig(method="milp")


@st.composite
def auction_instances(draw, redundant_backbone=False, random_demands=False):
    """3-4 nodes, 3-7 links across 2-3 providers, one demand n0 → n_last.

    With ``redundant_backbone`` every backbone hop gets a second, parallel
    link owned by the next provider round-robin.  Then no provider owns a
    hop's only link, and since every capacity (>= 2.0) exceeds the demand
    (<= 1.5), every leave-one-out clear is feasible by construction.

    With ``random_demands`` the TM instead holds 1-3 demands between
    random distinct nodes, so some nodes carry transit only and the
    demand graph is sometimes disconnected.
    """
    n_nodes = draw(st.integers(min_value=3, max_value=4))
    names = [f"n{i}" for i in range(n_nodes)]
    n_links = draw(st.integers(min_value=3, max_value=7))
    providers = ["P", "Q", "R"][: draw(st.integers(min_value=2, max_value=3))]

    net = Network(name="prop")
    for i, name in enumerate(names):
        net.add_node(Node(id=name, point=GeoPoint(0.0, float(i))))
    links_by_provider = {p: [] for p in providers}
    prices_by_provider = {p: {} for p in providers}
    # A guaranteed backbone path so feasibility is common: n0-n1-...-nk
    # owned round-robin, plus random extra links.
    backbone = list(zip(names, names[1:]))
    specs = list(backbone)
    for _ in range(n_links - len(specs)):
        i = draw(st.integers(0, n_nodes - 1))
        j = draw(st.integers(0, n_nodes - 1))
        if i != j:
            specs.append((names[i], names[j]))
    owners = [providers[idx % len(providers)] for idx in range(len(specs))]
    if redundant_backbone:
        specs += backbone
        owners += [providers[(hop + 1) % len(providers)] for hop in range(len(backbone))]
    for idx, ((u, v), provider) in enumerate(zip(specs, owners)):
        cap = draw(st.floats(min_value=2.0, max_value=20.0))
        price = draw(st.floats(min_value=1.0, max_value=100.0))
        link = Link(id=f"L{idx}", u=u, v=v, capacity_gbps=cap, owner=provider)
        net.add_link(link)
        links_by_provider[provider].append(link)
        prices_by_provider[provider][link.id] = price

    offers = []
    for provider in providers:
        if not links_by_provider[provider]:
            continue
        cost = AdditiveCost(prices_by_provider[provider])
        offers.append(
            Offer(provider=provider, links=links_by_provider[provider],
                  bid=cost, true_cost=cost)
        )
    if random_demands:
        demands = {}
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            src, dst = draw(st.lists(
                st.sampled_from(names), min_size=2, max_size=2, unique=True
            ))
            demands[(src, dst)] = draw(st.floats(min_value=0.5, max_value=1.5))
    else:
        demands = {(names[0], names[-1]): draw(st.floats(min_value=0.5, max_value=1.5))}
    tm = TrafficMatrix.from_dict(names, demands)
    return net, offers, tm


def brute_force_cost(net, offers, tm):
    """Optimal selection cost by exhaustive subset enumeration."""
    from repro.netflow.mcf import mcf_feasible

    prices = {}
    for offer in offers:
        for lid in offer.link_ids:
            prices[lid] = offer.bid.cost(frozenset((lid,)))
    link_ids = sorted(prices)
    best = None
    for r in range(len(link_ids) + 1):
        for subset in itertools.combinations(link_ids, r):
            cost = sum(prices[lid] for lid in subset)
            if best is not None and cost >= best:
                continue
            if mcf_feasible(net.restricted_to_links(subset), tm):
                best = cost
    return best


class TestExactOptimality:
    @staticmethod
    def _matches_brute_force(instance):
        net, offers, tm = instance
        truth = brute_force_cost(net, offers, tm)
        if truth is None:
            with pytest.raises(NoFeasibleSelectionError):
                exact_selection(offers, net, tm)
            return
        _links, cost = exact_selection(offers, net, tm)
        assert cost == pytest.approx(truth, rel=1e-6, abs=1e-6)

    @given(auction_instances())
    @settings(max_examples=30, deadline=None)
    def test_milp_matches_brute_force(self, instance):
        self._matches_brute_force(instance)

    @given(auction_instances(random_demands=True))
    @settings(max_examples=30, deadline=None)
    def test_milp_matches_brute_force_on_random_demands(self, instance):
        # The demand-connectivity row's right-hand side |E| - k varies here:
        # transit-only nodes, and demand graphs with several components.
        self._matches_brute_force(instance)


class TestVCGProperties:
    def _run(self, net, offers, tm):
        constraint = make_constraint(1, net, tm)
        try:
            return run_auction(offers, constraint, config=EXACT)
        except NoFeasibleSelectionError:
            return None

    @given(auction_instances(redundant_backbone=True))
    @settings(max_examples=25, deadline=None)
    def test_individual_rationality(self, instance):
        net, offers, tm = instance
        result = self._run(net, offers, tm)
        assume(result is not None)
        for offer in offers:
            assert utility(offer, result) >= -1e-6

    @given(auction_instances(redundant_backbone=True), st.sampled_from([0.7, 0.9, 1.2, 1.6]))
    @settings(max_examples=25, deadline=None)
    def test_truthful_weakly_dominates_shading(self, instance, factor):
        net, offers, tm = instance
        truthful = self._run(net, offers, tm)
        assume(truthful is not None)
        for idx, offer in enumerate(offers):
            shaded_offers = [
                o.with_bid(o.bid.scaled(factor)) if i == idx else o
                for i, o in enumerate(offers)
            ]
            shaded = self._run(net, shaded_offers, tm)
            assume(shaded is not None)
            assert utility(shaded_offers[idx], shaded) <= (
                utility(offer, truthful) + 1e-6
            )
