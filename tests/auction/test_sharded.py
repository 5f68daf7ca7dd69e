"""Tests for region-sharded clearing and the cross-region stitch."""

import json

import pytest

from repro.auction.bids import AdditiveCost, VolumeDiscountCost
from repro.auction.constraints import make_constraint
from repro.auction.provider import Offer
from repro.auction.sharded import (
    RegionPartition,
    clear_sharded,
    clear_sharded_spec,
    continental_workload,
    split_offers,
    split_traffic,
)
from repro.auction.vcg import AuctionConfig, run_auction
from repro.exceptions import AuctionError, NoFeasibleSelectionError
from repro.topology.graph import Link, Network
from repro.traffic.matrix import TrafficMatrix

from tests.conftest import make_node, square_network, square_offers


@pytest.fixture(scope="module")
def smoke():
    """The two-region (na/eu) continental smoke workload."""
    return continental_workload("smoke", seed=3)


def _double_square():
    """Two disconnected squares: regions r1/r2, providers P*/Q* per region.

    The decomposable reference topology: no cross-region links and no
    cross-region demand, so the sharded clear must equal the serial
    whole-network clear exactly.
    """
    net = Network(name="double-square")
    offers = []
    for tag in ("1", "2"):
        for name in ("A", "B", "C", "D"):
            net.add_node(make_node(f"{name}{tag}"))
        ring = []
        for u, v in (("A", "B"), ("B", "C"), ("C", "D"), ("D", "A")):
            lid = f"{u}{v}{tag}"
            net.add_link(
                Link(
                    id=lid, u=f"{u}{tag}", v=f"{v}{tag}",
                    capacity_gbps=10.0, length_km=100.0, owner=f"P{tag}",
                )
            )
            ring.append(lid)
        diag = f"AC{tag}"
        net.add_link(
            Link(
                id=diag, u=f"A{tag}", v=f"C{tag}",
                capacity_gbps=5.0, length_km=100.0, owner=f"Q{tag}",
            )
        )
        p_cost = AdditiveCost({lid: 100.0 for lid in ring})
        q_cost = AdditiveCost({diag: 60.0})
        offers.append(
            Offer(provider=f"P{tag}", links=[net.link(l) for l in ring],
                  bid=p_cost, true_cost=p_cost)
        )
        offers.append(
            Offer(provider=f"Q{tag}", links=[net.link(diag)],
                  bid=q_cost, true_cost=q_cost)
        )
    tm = TrafficMatrix(
        nodes=[f"{n}{t}" for t in ("1", "2") for n in ("A", "B", "C", "D")],
        _demands={("A1", "C1"): 3.0, ("A2", "C2"): 3.0},
    )
    partition = RegionPartition(
        regions=("r1", "r2"),
        site_regions={
            f"{n}{t}": f"r{t}" for t in ("1", "2") for n in ("A", "B", "C", "D")
        },
    )
    return net, offers, tm, partition


class TestRegionPartition:
    def test_from_sites_uses_catalog_regions(self, smoke):
        zoo, _offers, _tm, partition = smoke
        assert partition.regions == ("eu", "na")
        assert set(partition.site_regions) == {s.router_id for s in zoo.sites}
        some = zoo.sites[0]
        assert partition.region_of(some.router_id) in partition.regions

    def test_unknown_router_raises(self, smoke):
        _zoo, _offers, _tm, partition = smoke
        with pytest.raises(AuctionError):
            partition.region_of("POC:Atlantis")

    def test_geographic_bands_near_equal(self, smoke):
        zoo, _offers, _tm, _partition = smoke
        part = RegionPartition.geographic(zoo.sites, 3, catalog=zoo.catalog)
        assert part.regions == ("g00", "g01", "g02")
        sizes = [len(part.routers_in(r)) for r in part.regions]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == len(zoo.sites)

    def test_geographic_deterministic(self, smoke):
        zoo, _offers, _tm, _partition = smoke
        a = RegionPartition.geographic(zoo.sites, 2, catalog=zoo.catalog)
        b = RegionPartition.geographic(zoo.sites, 2, catalog=zoo.catalog)
        assert a.site_regions == b.site_regions

    def test_geographic_rejects_bad_k(self, smoke):
        zoo, _offers, _tm, _partition = smoke
        with pytest.raises(AuctionError):
            RegionPartition.geographic(zoo.sites, 0, catalog=zoo.catalog)

    def test_duplicate_region_labels_rejected(self):
        with pytest.raises(AuctionError):
            RegionPartition(regions=("r", "r"), site_regions={})

    def test_unassigned_region_rejected(self):
        with pytest.raises(AuctionError):
            RegionPartition(regions=("r",), site_regions={"POC:X": "other"})


class TestSplitOffers:
    def test_links_partition_by_region(self, smoke):
        _zoo, offers, _tm, partition = smoke
        by_region, cross = split_offers(offers, partition)
        total = 0
        for region, subs in by_region.items():
            for sub in subs:
                total += len(sub.links)
                for link in sub.links:
                    assert partition.region_of(link.u) == region
                    assert partition.region_of(link.v) == region
        for sub in cross:
            total += len(sub.links)
            for link in sub.links:
                assert partition.region_of(link.u) != partition.region_of(link.v)
        assert total == sum(len(o.links) for o in offers)

    def test_sub_bids_preserve_prices(self, smoke):
        _zoo, offers, _tm, partition = smoke
        prices = {
            lid: offer.bid.prices[lid] for offer in offers for lid in offer.link_ids
        }
        by_region, cross = split_offers(offers, partition)
        for sub in [s for subs in by_region.values() for s in subs] + cross:
            for lid, price in sub.bid.prices.items():
                assert price == prices[lid]

    def test_non_additive_bid_rejected(self):
        net = square_network()
        offers = square_offers(net)
        ring = {"AB": 100.0, "BC": 100.0, "CD": 100.0, "DA": 100.0}
        discounted = VolumeDiscountCost(prices=ring, tiers=((3, 0.1),))
        offers[0] = Offer(
            provider="P",
            links=offers[0].links,
            bid=discounted,
            true_cost=discounted,
        )
        partition = RegionPartition(
            regions=("all",), site_regions={n: "all" for n in net.node_ids}
        )
        with pytest.raises(AuctionError):
            split_offers(offers, partition)


class TestSplitTraffic:
    def test_demand_conserved(self, smoke):
        _zoo, _offers, tm, partition = smoke
        intra, cross = split_traffic(tm, partition)
        split_total = sum(t.total_gbps() for t in intra.values()) + sum(
            cross.values()
        )
        assert split_total == pytest.approx(tm.total_gbps())

    def test_intra_pairs_stay_in_region(self, smoke):
        _zoo, _offers, tm, partition = smoke
        intra, cross = split_traffic(tm, partition)
        for region, sub_tm in intra.items():
            for (src, dst), _v in sub_tm.pairs():
                assert partition.region_of(src) == region
                assert partition.region_of(dst) == region
        for (rs, rd) in cross:
            assert rs != rd
            assert rs in partition.regions and rd in partition.regions


class TestSingleRegionIdentity:
    """A one-region partition is the plain whole-network auction."""

    def test_matches_run_auction(self):
        net = square_network()
        offers = square_offers(net)
        tm = TrafficMatrix.from_dict(["A", "C"], {("A", "C"): 3.0})
        partition = RegionPartition(
            regions=("all",), site_regions={n: "all" for n in net.node_ids}
        )
        sharded = clear_sharded(net, offers, tm, partition, pricing="vcg")
        plain = run_auction(
            offers,
            make_constraint(1, net, tm),
            config=AuctionConfig(method="greedy-drop"),
        )
        assert sharded.selected == plain.selected
        assert sharded.total_cost == plain.total_cost
        assert sharded.stitch is None
        for provider, payment in sharded.payments.items():
            assert payment == plain.providers[provider].payment


class TestDecomposableReference:
    """Disconnected regions: sharded must equal the serial whole clear."""

    def test_selection_identical_to_whole_network_greedy_drop(self):
        net, offers, tm, partition = _double_square()
        whole = run_auction(
            offers,
            make_constraint(1, net, tm),
            config=AuctionConfig(method="greedy-drop"),
        )
        sharded = clear_sharded(
            net, offers, tm, partition, method="greedy-drop", pricing="vcg"
        )
        assert sharded.selected == whole.selected
        assert sharded.stitch is None
        assert sharded.total_cost == pytest.approx(whole.total_cost)

    def test_payments_decompose(self):
        net, offers, tm, partition = _double_square()
        whole = run_auction(
            offers,
            make_constraint(1, net, tm),
            config=AuctionConfig(method="greedy-drop"),
        )
        sharded = clear_sharded(
            net, offers, tm, partition, method="greedy-drop", pricing="vcg"
        )
        # Each provider lives in exactly one region, so its pivot is
        # region-local and whole-network VCG decomposes.
        for provider, payment in sharded.payments.items():
            assert payment == pytest.approx(whole.providers[provider].payment)

    def test_region_results_labeled(self):
        net, offers, tm, partition = _double_square()
        sharded = clear_sharded(net, offers, tm, partition, pricing="bid")
        assert tuple(r.label for r in sharded.regions) == ("r1", "r2")
        for sub in sharded.regions:
            # Each square clears to its cheap 60-unit diagonal.
            assert sub.selected == frozenset({f"AC{sub.label[-1]}"})
            assert sub.total_cost == 60.0


class TestStitch:
    def _cross_market(self, with_cross_offer=True):
        net = Network(name="cross")
        for n in ("X1", "X2", "Y1"):
            net.add_node(make_node(n))
        net.add_link(
            Link(id="L0", u="X1", v="X2", capacity_gbps=10.0,
                 length_km=100.0, owner="A")
        )
        offers = [
            Offer(
                provider="A", links=[net.link("L0")],
                bid=AdditiveCost({"L0": 50.0}),
                true_cost=AdditiveCost({"L0": 50.0}),
            )
        ]
        if with_cross_offer:
            net.add_link(
                Link(id="LX", u="X2", v="Y1", capacity_gbps=10.0,
                     length_km=500.0, owner="B")
            )
            offers.append(
                Offer(
                    provider="B", links=[net.link("LX")],
                    bid=AdditiveCost({"LX": 80.0}),
                    true_cost=AdditiveCost({"LX": 80.0}),
                )
            )
        tm = TrafficMatrix(
            nodes=["X1", "X2", "Y1"], _demands={("X1", "Y1"): 2.0}
        )
        partition = RegionPartition(
            regions=("r0", "r1"),
            site_regions={"X1": "r0", "X2": "r0", "Y1": "r1"},
        )
        return net, offers, tm, partition

    def test_cross_demand_clears_in_stitch(self):
        net, offers, tm, partition = self._cross_market()
        result = clear_sharded(net, offers, tm, partition, pricing="bid")
        # No intra-region demand: region sub-markets stay empty and the
        # aggregate X->Y flow is carried by the stitch's cross link.
        assert all(not r.selected for r in result.regions)
        assert result.stitch is not None
        assert result.stitch.label == "stitch"
        assert result.stitch.selected == frozenset({"LX"})
        assert result.payments == {"B": 80.0}
        assert result.total_cost == 80.0

    def test_cross_demand_without_cross_links_raises(self):
        net, offers, tm, partition = self._cross_market(with_cross_offer=False)
        with pytest.raises(NoFeasibleSelectionError):
            clear_sharded(net, offers, tm, partition, pricing="bid")

    def test_empty_region_costs_nothing(self):
        net, offers, tm, partition = self._cross_market()
        result = clear_sharded(net, offers, tm, partition, pricing="bid")
        empty = next(r for r in result.regions if r.label == "r1")
        assert empty.total_cost == 0.0
        assert empty.oracle_evaluations == 0

    def test_unknown_pricing_rejected(self):
        net, offers, tm, partition = self._cross_market()
        with pytest.raises(AuctionError):
            clear_sharded(net, offers, tm, partition, pricing="auction")


class TestContinentalSmoke:
    def test_workload_memoized(self, smoke):
        assert continental_workload("smoke", seed=3) is smoke

    def test_unknown_preset_rejected(self):
        with pytest.raises(AuctionError):
            continental_workload("t3", seed=3)

    def test_serial_clear_covers_both_regions(self, smoke):
        result = clear_sharded_spec("smoke", seed=3)
        assert tuple(r.label for r in result.regions) == ("eu", "na")
        assert all(r.selected for r in result.regions)
        assert result.stitch is not None and result.stitch.selected
        assert result.total_cost > 0

    def test_serial_equals_parallel_byte_for_byte(self, smoke):
        serial = clear_sharded_spec("smoke", seed=3, workers=0)
        parallel = clear_sharded_spec("smoke", seed=3, workers=2)
        assert serial.canonical_json() == parallel.canonical_json()

    def test_canonical_json_is_valid_and_stable(self, smoke):
        result = clear_sharded_spec("smoke", seed=3)
        blob = result.canonical_json()
        assert blob == result.canonical_json()
        payload = json.loads(blob)
        assert payload["pricing"] == "bid"
        assert sorted(payload["selected"]) == payload["selected"]
        assert [r["label"] for r in payload["regions"]] == ["eu", "na"]

    def test_region_clear_experiment_registered(self):
        from repro.sweeps.registry import get_experiment

        exp = get_experiment("region_clear")
        assert exp.defaults["preset"] == "smoke"
        record = exp.trial({"preset": "smoke", "region": "eu"}, 3)
        assert record["cost"] > 0
        assert isinstance(record["selection"], str) and record["selection"]

    def test_selection_feasible_per_region(self, smoke):
        zoo, offers, tm, partition = smoke
        result = clear_sharded_spec("smoke", seed=3)
        intra, _cross = split_traffic(tm, partition)
        from repro.auction.sharded import _region_network

        for sub in result.regions:
            net = _region_network(zoo.offered, partition, sub.label)
            constraint = make_constraint(1, net, intra[sub.label])
            assert constraint.satisfied(sub.selected)


class TestWorkloadMemoBound:
    def test_offer_seed_stream_stays_bounded_and_exact(self, monkeypatch):
        """A new offer seed per clear reuses the zoo and never grows memory.

        Each clear must equal the one a process with emptied memos makes.
        """
        from collections import OrderedDict

        import repro.auction.sharded as sharded

        monkeypatch.setattr(sharded, "_WORKLOAD_MEMO", OrderedDict())
        monkeypatch.setattr(sharded, "_OFFERS_MEMO", OrderedDict())
        offer_seeds = range(sharded.OFFERS_MEMO_SIZE + 4)
        memoized = {}
        for offer_seed in offer_seeds:
            memoized[offer_seed] = clear_sharded_spec(
                "smoke", seed=3, offer_seed=offer_seed
            ).canonical_json()
            assert len(sharded._WORKLOAD_MEMO) == 1  # one zoo for every seed
            assert len(sharded._OFFERS_MEMO) <= sharded.OFFERS_MEMO_SIZE
        assert len(sharded._OFFERS_MEMO) == sharded.OFFERS_MEMO_SIZE
        for offer_seed in offer_seeds:
            sharded._WORKLOAD_MEMO.clear()
            sharded._OFFERS_MEMO.clear()
            fresh = clear_sharded_spec("smoke", seed=3, offer_seed=offer_seed)
            assert fresh.canonical_json() == memoized[offer_seed]

    def test_workload_memo_is_bounded(self, monkeypatch):
        from collections import OrderedDict

        import repro.auction.sharded as sharded

        monkeypatch.setattr(sharded, "_WORKLOAD_MEMO", OrderedDict())
        monkeypatch.setattr(sharded, "_OFFERS_MEMO", OrderedDict())
        monkeypatch.setattr(sharded, "WORKLOAD_MEMO_SIZE", 2)
        for load in (0.02, 0.021, 0.022):
            continental_workload("smoke", seed=3, load_fraction=load)
        assert [key[2] for key in sharded._WORKLOAD_MEMO] == [0.021, 0.022]
