"""Region-sharded auction clearing for continental-scale markets.

A whole-network clear at T2 scale (≥100k offered links, 500+ sites) is
intractable for the selection engines' oracle-call budgets.  This module
partitions the market geographically and clears it in three moves:

1. **Partition** — every POC site is assigned a region
   (:class:`RegionPartition`): by city catalog region, or by longitude
   banding when no catalog is available.
2. **Region sub-markets** — each region clears *intra-region* offers
   against *intra-region* demand with the ordinary machinery
   (:func:`repro.auction.selection.select_links` /
   :func:`repro.auction.vcg.run_auction`).  Sub-markets are independent
   pure functions, so they parallelize through the sweep runner (the
   ``region_clear`` experiment) with byte-identical results.
3. **Stitch** — cross-region links and cross-region demand meet in a
   deterministic reconciliation market at *region-supernode*
   granularity: demand is rolled up to region pairs (the exact inverse
   of :func:`repro.traffic.hierarchy.hierarchical_matrix`'s expansion)
   and cross-region links are rewritten to join region supernodes.

The stitch clears **aggregate** inter-region capacity; it does not model
the intra-region last mile of cross-region flows (those links are priced
by the region sub-markets).  That approximation is the price of
decomposition.  Two exactness anchors hold by construction and are
locked by tests:

- a single-region partition reproduces the plain whole-network clear
  (same selection, same payments);
- on a *decomposable* topology (regions disconnected, demand purely
  intra-region) the union of region selections equals the serial
  whole-network ``greedy-drop`` selection exactly, because each drop
  decision only reads its own region's feasibility.

Pricing is ``"vcg"`` (Clarke pivots per sub-market — leave-one-out runs
stay region-local, which is what makes VCG affordable here) or ``"bid"``
(pay-as-bid, the T2 default: leave-one-out is intractable at that
scale and the stitch market's contract-like links are bid-priced in
practice anyway).
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.auction.bids import AdditiveCost
from repro.auction.constraints import make_constraint
from repro.auction.provider import Offer
from repro.auction.selection import select_links
from repro.auction.vcg import AuctionConfig, run_auction
from repro.exceptions import AuctionError
from repro.obs import span
from repro.topology.cities import CityCatalog, get_city
from repro.topology.colocation import ColocationSite
from repro.topology.graph import Link, Network, Node
from repro.traffic.matrix import TrafficMatrix

LinkSet = FrozenSet[str]

#: Pricing rules accepted by :func:`clear_sharded`.
PRICINGS = ("vcg", "bid")


def _supernode(region: str) -> str:
    return f"region:{region}"


@dataclass(frozen=True)
class RegionPartition:
    """Assignment of every POC router to exactly one region."""

    regions: Tuple[str, ...]
    #: router_id → region label.
    site_regions: Mapping[str, str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "regions", tuple(self.regions))
        object.__setattr__(self, "site_regions", dict(self.site_regions))
        known = set(self.regions)
        if len(known) != len(self.regions):
            raise AuctionError(f"duplicate region labels: {self.regions}")
        for router, region in self.site_regions.items():
            if region not in known:
                raise AuctionError(
                    f"site {router} assigned to unknown region {region!r}"
                )

    @classmethod
    def from_sites(
        cls,
        sites: Sequence[ColocationSite],
        *,
        catalog: Optional[CityCatalog] = None,
    ) -> "RegionPartition":
        """Partition by city-catalog region code."""
        site_regions = {
            site.router_id: get_city(site.city, catalog=catalog).region
            for site in sites
        }
        return cls(
            regions=tuple(sorted(set(site_regions.values()))),
            site_regions=site_regions,
        )

    @classmethod
    def geographic(
        cls,
        sites: Sequence[ColocationSite],
        k: int,
        *,
        catalog: Optional[CityCatalog] = None,
    ) -> "RegionPartition":
        """Partition into ``k`` longitude bands of near-equal site count.

        The fallback when site cities carry no meaningful region code;
        deterministic because ties on longitude break by router id.
        """
        if k < 1:
            raise AuctionError(f"need at least one band, got {k}")
        ordered = sorted(
            sites,
            key=lambda s: (get_city(s.city, catalog=catalog).lon, s.router_id),
        )
        k = min(k, len(ordered)) or 1
        width = max(2, len(str(k - 1)))
        site_regions: Dict[str, str] = {}
        base, extra = divmod(len(ordered), k)
        cursor = 0
        labels = []
        for band in range(k):
            size = base + (1 if band < extra else 0)
            label = f"g{band:0{width}d}"
            labels.append(label)
            for site in ordered[cursor : cursor + size]:
                site_regions[site.router_id] = label
            cursor += size
        return cls(regions=tuple(labels), site_regions=site_regions)

    def region_of(self, router_id: str) -> str:
        try:
            return self.site_regions[router_id]
        except KeyError:
            raise AuctionError(
                f"node {router_id!r} is not assigned to any region"
            ) from None

    def routers_in(self, region: str) -> List[str]:
        return sorted(
            router for router, r in self.site_regions.items() if r == region
        )


# -- market splitting ---------------------------------------------------------


def _restrict_additive(offer: Offer, links: List[Link]) -> Offer:
    ids = [l.id for l in links]
    return Offer(
        provider=offer.provider,
        links=links,
        bid=AdditiveCost({i: offer.bid.prices[i] for i in ids}),
        true_cost=AdditiveCost({i: offer.true_cost.prices[i] for i in ids}),
        in_auction=offer.in_auction,
    )


def split_offers(
    offers: Sequence[Offer], partition: RegionPartition
) -> Tuple[Dict[str, List[Offer]], List[Offer]]:
    """Split every offer into per-region sub-offers plus a cross bucket.

    Requires additive bids: restricting a non-additive cost function to a
    link subset changes its semantics (a volume discount earned across
    regions would silently vanish), so that is an error, not a guess.
    """
    by_region: Dict[str, List[Offer]] = {r: [] for r in partition.regions}
    cross: List[Offer] = []
    for offer in offers:
        if not isinstance(offer.bid, AdditiveCost) or not isinstance(
            offer.true_cost, AdditiveCost
        ):
            raise AuctionError(
                f"sharded clearing needs additive bids; provider "
                f"{offer.provider} bid a {type(offer.bid).__name__}"
            )
        buckets: Dict[str, List[Link]] = {}
        cross_links: List[Link] = []
        for link in offer.links:
            ru = partition.region_of(link.u)
            rv = partition.region_of(link.v)
            if ru == rv:
                buckets.setdefault(ru, []).append(link)
            else:
                cross_links.append(link)
        for region in sorted(buckets):
            by_region[region].append(_restrict_additive(offer, buckets[region]))
        if cross_links:
            cross.append(_restrict_additive(offer, cross_links))
    return by_region, cross


def split_traffic(
    tm: TrafficMatrix, partition: RegionPartition
) -> Tuple[Dict[str, TrafficMatrix], Dict[Tuple[str, str], float]]:
    """Intra-region TMs plus cross-region demand rolled up to region pairs."""
    intra: Dict[str, Dict[Tuple[str, str], float]] = {
        r: {} for r in partition.regions
    }
    cross: Dict[Tuple[str, str], float] = {}
    for (src, dst), value in tm.pairs():
        rs = partition.region_of(src)
        rd = partition.region_of(dst)
        if rs == rd:
            intra[rs][(src, dst)] = value
        else:
            key = (rs, rd)
            cross[key] = cross.get(key, 0.0) + value
    nodes_by_region = {
        r: [n for n in tm.nodes if partition.site_regions.get(n) == r]
        for r in partition.regions
    }
    tms = {
        r: TrafficMatrix(nodes=nodes_by_region[r], _demands=intra[r])
        for r in partition.regions
    }
    return tms, cross


def _region_network(
    network: Network, partition: RegionPartition, region: str
) -> Network:
    """The region's sub-network: its routers and intra-region links."""
    sub = Network(name=f"{network.name}:{region}")
    for node in network.nodes:
        if partition.site_regions.get(node.id) == region:
            sub.add_node(node)
    for link in network.iter_links():
        if sub.has_node(link.u) and sub.has_node(link.v):
            sub.add_link(link)
    return sub


def _stitch_market(
    partition: RegionPartition, cross_offers: Sequence[Offer]
) -> Tuple[Network, List[Offer]]:
    """The region-supernode network and cross offers rewritten onto it."""
    net = Network(name="stitch")
    for region in partition.regions:
        net.add_node(Node(id=_supernode(region), kind="region"))
    rewritten: List[Offer] = []
    for offer in cross_offers:
        links = [
            Link(
                id=link.id,
                u=_supernode(partition.region_of(link.u)),
                v=_supernode(partition.region_of(link.v)),
                capacity_gbps=link.capacity_gbps,
                length_km=link.length_km,
                owner=link.owner,
                virtual=link.virtual,
            )
            for link in offer.links
        ]
        for link in links:
            net.add_link(link)
        rewritten.append(
            Offer(
                provider=offer.provider,
                links=links,
                bid=offer.bid,
                true_cost=offer.true_cost,
                in_auction=offer.in_auction,
            )
        )
    return net, rewritten


# -- sub-market clearing ------------------------------------------------------


@dataclass(frozen=True)
class SubMarketClear:
    """One cleared sub-market: a region, or the cross-region stitch."""

    label: str
    selected: LinkSet
    total_cost: float
    #: Auction participants' payments (empty under bid pricing losses).
    payments: Dict[str, float]
    external_cost: float
    oracle_evaluations: int

    @property
    def total_payments(self) -> float:
        return sum(self.payments.values()) + self.external_cost


def _empty_clear(label: str) -> SubMarketClear:
    return SubMarketClear(
        label=label,
        selected=frozenset(),
        total_cost=0.0,
        payments={},
        external_cost=0.0,
        oracle_evaluations=0,
    )


def _clear_submarket(
    label: str,
    offers: Sequence[Offer],
    network: Network,
    tm: TrafficMatrix,
    *,
    engine: str,
    method: str,
    pricing: str,
) -> SubMarketClear:
    if not any(value > 0 for _pair, value in tm.pairs()):
        # Nothing to carry: the min-cost acceptable set is empty, no
        # payments flow.  Short-circuiting keeps empty regions free.
        return _empty_clear(label)
    constraint = make_constraint(1, network, tm, engine=engine)
    with span("sharded.clear", label=label, offers=len(offers), pricing=pricing):
        if pricing == "bid":
            outcome = select_links(offers, constraint, method=method)
            payments: Dict[str, float] = {}
            external = 0.0
            for offer in offers:
                mine = outcome.selected & offer.link_ids
                if not mine:
                    continue
                declared = offer.bid.cost(mine)
                if offer.in_auction:
                    payments[offer.provider] = declared
                else:
                    external += declared
            return SubMarketClear(
                label=label,
                selected=outcome.selected,
                total_cost=outcome.total_cost,
                payments=payments,
                external_cost=external,
                oracle_evaluations=outcome.oracle_evaluations,
            )
        result = run_auction(
            offers, constraint, config=AuctionConfig(method=method)
        )
        return SubMarketClear(
            label=label,
            selected=result.selected,
            total_cost=result.total_cost,
            payments={
                p: r.payment
                for p, r in result.providers.items()
                if r.selected_links or r.payment != 0.0
            },
            external_cost=result.external_cost,
            oracle_evaluations=result.selection.oracle_evaluations,
        )


def _stitch_clear(
    partition: RegionPartition,
    cross_offers: Sequence[Offer],
    cross_pairs: Mapping[Tuple[str, str], float],
    *,
    engine: str,
    method: str,
    pricing: str,
) -> Optional[SubMarketClear]:
    if not cross_offers and not cross_pairs:
        return None
    net, offers = _stitch_market(partition, cross_offers)
    tm = TrafficMatrix(
        nodes=[_supernode(r) for r in partition.regions],
        _demands={
            (_supernode(a), _supernode(b)): v
            for (a, b), v in sorted(cross_pairs.items())
        },
    )
    return _clear_submarket(
        "stitch", offers, net, tm, engine=engine, method=method, pricing=pricing
    )


# -- the sharded clear --------------------------------------------------------


@dataclass(frozen=True)
class ShardedClearResult:
    """Union of region sub-market clears plus the cross-region stitch."""

    pricing: str
    method: str
    engine: str
    regions: Tuple[SubMarketClear, ...]
    stitch: Optional[SubMarketClear] = None

    @property
    def selected(self) -> LinkSet:
        out = frozenset().union(*(r.selected for r in self.regions)) if self.regions else frozenset()
        if self.stitch is not None:
            out = out | self.stitch.selected
        return out

    @property
    def submarkets(self) -> Tuple[SubMarketClear, ...]:
        return self.regions + ((self.stitch,) if self.stitch else ())

    @property
    def total_cost(self) -> float:
        return sum(s.total_cost for s in self.submarkets)

    @property
    def external_cost(self) -> float:
        return sum(s.external_cost for s in self.submarkets)

    @property
    def payments(self) -> Dict[str, float]:
        """Per-provider payments summed across sub-markets."""
        out: Dict[str, float] = {}
        for sub in self.submarkets:
            for provider, payment in sub.payments.items():
                out[provider] = out.get(provider, 0.0) + payment
        return out

    @property
    def total_payments(self) -> float:
        return sum(s.total_payments for s in self.submarkets)

    def canonical_json(self) -> str:
        """A byte-stable rendering: identical clears → identical bytes.

        The serial and worker-pool paths must produce the same string —
        that is the reproducibility contract the scale-smoke CI job and
        the sharded tests assert.
        """

        def sub_payload(sub: SubMarketClear) -> Dict[str, object]:
            return {
                "label": sub.label,
                "selected": sorted(sub.selected),
                "total_cost": sub.total_cost,
                "payments": {k: sub.payments[k] for k in sorted(sub.payments)},
                "external_cost": sub.external_cost,
            }

        payload = {
            "pricing": self.pricing,
            "method": self.method,
            "engine": self.engine,
            "regions": [sub_payload(r) for r in self.regions],
            "stitch": sub_payload(self.stitch) if self.stitch else None,
            "selected": sorted(self.selected),
            "total_cost": self.total_cost,
        }
        return json.dumps(payload, sort_keys=True, allow_nan=False)


def clear_sharded(
    network: Network,
    offers: Sequence[Offer],
    tm: TrafficMatrix,
    partition: RegionPartition,
    *,
    engine: str = "mcf",
    method: str = "greedy-drop",
    pricing: str = "vcg",
) -> ShardedClearResult:
    """Clear the market region by region, then stitch cross-region flows.

    Serial reference implementation: every sub-market in
    ``partition.regions`` order, then the stitch.  The parallel path
    (:func:`clear_sharded_spec` with ``workers > 1``) runs the identical
    per-region function in a process pool and must produce a
    byte-identical :meth:`~ShardedClearResult.canonical_json`.
    """
    if pricing not in PRICINGS:
        raise AuctionError(
            f"unknown pricing {pricing!r}; expected one of {PRICINGS}"
        )
    by_region, cross_offers = split_offers(offers, partition)
    intra_tms, cross_pairs = split_traffic(tm, partition)
    regions = tuple(
        _clear_submarket(
            region,
            by_region[region],
            _region_network(network, partition, region),
            intra_tms[region],
            engine=engine,
            method=method,
            pricing=pricing,
        )
        for region in partition.regions
    )
    stitch = _stitch_clear(
        partition, cross_offers, cross_pairs,
        engine=engine, method=method, pricing=pricing,
    )
    return ShardedClearResult(
        pricing=pricing,
        method=method,
        engine=engine,
        regions=regions,
        stitch=stitch,
    )


# -- the sweepable continental workload ---------------------------------------

#: Continental workloads (zoo, TM, partition) a process keeps, and offer
#: sets per workload and offer seed, each memo least recently used out:
#: sweep workers build a workload once, not per trial, and a stream of
#: offer seeds neither rebuilds the zoo nor grows memory.
WORKLOAD_MEMO_SIZE = 4
OFFERS_MEMO_SIZE = 8

_WORKLOAD_MEMO: "OrderedDict[Tuple, Tuple]" = OrderedDict()
_OFFERS_MEMO: "OrderedDict[Tuple, Tuple]" = OrderedDict()


def _memo_get(memo: "OrderedDict[Tuple, Tuple]", key: Tuple) -> Optional[Tuple]:
    value = memo.get(key)
    if value is not None:
        memo.move_to_end(key)
    return value


def _memo_put(memo: "OrderedDict[Tuple, Tuple]", key: Tuple, value: Tuple, size: int) -> None:
    memo[key] = value
    if len(memo) > size:
        memo.popitem(last=False)


def continental_workload(
    preset: str = "smoke",
    seed: int = 2026,
    *,
    load_fraction: float = 0.02,
    inter_region_fraction: float = 0.3,
    offer_seed: int = 7,
):
    """(zoo, offers, tm, partition) for a continental preset, memoized.

    The TM comes from the hierarchical region-profile model
    (:mod:`repro.traffic.hierarchy`), scaled so total demand is
    ``load_fraction`` of total offered capacity — the same loading
    convention as :func:`repro.experiments.pipeline.traffic_for_zoo`.
    Only the offers depend on ``offer_seed``.
    """
    base_key = (preset, seed, load_fraction, inter_region_fraction)
    key = base_key + (offer_seed,)
    cached = _memo_get(_OFFERS_MEMO, key)
    if cached is not None:
        return cached
    from repro.experiments.pipeline import offers_for_zoo

    base = _memo_get(_WORKLOAD_MEMO, base_key)
    if base is None:
        base = _build_workload(preset, seed, load_fraction, inter_region_fraction)
        _memo_put(_WORKLOAD_MEMO, base_key, base, WORKLOAD_MEMO_SIZE)
    zoo, tm, partition = base
    value = (zoo, offers_for_zoo(zoo, seed=offer_seed), tm, partition)
    _memo_put(_OFFERS_MEMO, key, value, OFFERS_MEMO_SIZE)
    return value


def _build_workload(
    preset: str, seed: int, load_fraction: float, inter_region_fraction: float
) -> Tuple:
    """(zoo, tm, partition): everything but the offers."""
    from repro.topology.continental import ContinentalConfig, build_continental
    from repro.traffic.hierarchy import (
        RegionProfile,
        hierarchical_matrix,
        profiles_from_catalog,
    )

    if preset == "smoke":
        config = ContinentalConfig.smoke(seed)
    elif preset == "t2":
        config = ContinentalConfig.t2(seed)
    else:
        raise AuctionError(f"unknown preset {preset!r}; expected smoke or t2")
    with span("sharded.workload", preset=preset, seed=seed):
        zoo = build_continental(config)
        profiles = profiles_from_catalog(zoo.catalog)
        raw = sum(p.total_gbps for p in profiles)
        target = zoo.offered.total_capacity_gbps() * load_fraction
        scale = target / raw if raw > 0 else 0.0
        profiles = [
            RegionProfile(p.region, p.users_m * scale, p.gbps_per_m_users)
            for p in profiles
        ]
        tm = hierarchical_matrix(
            zoo.sites,
            profiles,
            catalog=zoo.catalog,
            inter_region_fraction=inter_region_fraction,
        )
        partition = RegionPartition.from_sites(zoo.sites, catalog=zoo.catalog)
    return zoo, tm, partition


def region_clear_record(
    params: Mapping[str, object], seed: int
) -> Dict[str, object]:
    """One region sub-market as a flat sweep record (picklable trial body).

    The ``selection`` field is the sorted comma-joined link ids — a full-
    fidelity rendering, so the parallel path can reassemble the exact
    :class:`SubMarketClear` the serial path computes.
    """
    region = str(params["region"])
    zoo, offers, tm, partition = continental_workload(
        preset=str(params.get("preset", "smoke")),
        seed=int(seed),
        load_fraction=float(params.get("load_fraction", 0.02)),
        inter_region_fraction=float(params.get("inter_region_fraction", 0.3)),
        offer_seed=int(params.get("offer_seed", 7)),
    )
    if region not in partition.regions:
        raise AuctionError(
            f"unknown region {region!r}; expected one of {partition.regions}"
        )
    by_region, _cross = split_offers(offers, partition)
    intra_tms, _cross_pairs = split_traffic(tm, partition)
    sub = _clear_submarket(
        region,
        by_region[region],
        _region_network(zoo.offered, partition, region),
        intra_tms[region],
        engine=str(params.get("engine", "mcf")),
        method=str(params.get("method", "greedy-drop")),
        pricing=str(params.get("pricing", "bid")),
    )
    record: Dict[str, object] = {
        "cost": sub.total_cost,
        "external_cost": sub.external_cost,
        "num_selected": float(len(sub.selected)),
        "evaluations": float(sub.oracle_evaluations),
        "selection": ",".join(sorted(sub.selected)),
    }
    for provider in sorted(sub.payments):
        record[f"pay_{provider}"] = sub.payments[provider]
    return record


def _sub_from_record(label: str, record: Mapping[str, object]) -> SubMarketClear:
    selection = str(record["selection"])
    return SubMarketClear(
        label=label,
        selected=frozenset(selection.split(",")) if selection else frozenset(),
        total_cost=float(record["cost"]),
        payments={
            key[len("pay_"):]: float(value)
            for key, value in record.items()
            if key.startswith("pay_")
        },
        external_cost=float(record["external_cost"]),
        oracle_evaluations=int(float(record["evaluations"])),
    )


def clear_sharded_spec(
    preset: str = "smoke",
    seed: int = 2026,
    *,
    engine: str = "mcf",
    method: str = "greedy-drop",
    pricing: str = "bid",
    load_fraction: float = 0.02,
    inter_region_fraction: float = 0.3,
    offer_seed: int = 7,
    workers: int = 0,
) -> ShardedClearResult:
    """Clear a continental preset, serially or on a sweep worker pool.

    ``workers <= 1`` is the serial reference (:func:`clear_sharded`);
    ``workers > 1`` fans the region sub-markets out through the
    ``region_clear`` sweep experiment and reassembles the identical
    result — :meth:`ShardedClearResult.canonical_json` is byte-equal
    either way.  The stitch is cleared in-process in both paths.

    Default pricing is pay-as-bid: on generated continental workloads a
    provider is frequently *essential* inside its region, which makes
    the VCG leave-one-out run infeasible (the paper's known condition —
    resolved in practice with external transit contracts, which the
    generated zoos don't mint).  Pass ``pricing="vcg"`` when the
    workload guarantees redundancy.
    """
    if pricing not in PRICINGS:
        raise AuctionError(
            f"unknown pricing {pricing!r}; expected one of {PRICINGS}"
        )
    zoo, offers, tm, partition = continental_workload(
        preset=preset,
        seed=seed,
        load_fraction=load_fraction,
        inter_region_fraction=inter_region_fraction,
        offer_seed=offer_seed,
    )
    if workers <= 1:
        return clear_sharded(
            zoo.offered, offers, tm, partition,
            engine=engine, method=method, pricing=pricing,
        )

    import repro.experiments.trials  # noqa: F401 - registers region_clear
    from repro.sweeps.runner import run_sweep
    from repro.sweeps.spec import Axis, SweepSpec

    spec = SweepSpec(
        axes=(Axis("region", tuple(partition.regions)),),
        base={
            "preset": preset,
            "seed": seed,
            "engine": engine,
            "method": method,
            "pricing": pricing,
            "load_fraction": load_fraction,
            "inter_region_fraction": inter_region_fraction,
            "offer_seed": offer_seed,
        },
    )
    result = run_sweep("region_clear", spec, workers=workers)
    by_label = {
        str(o.params["region"]): _sub_from_record(str(o.params["region"]), o.record)
        for o in result.outcomes
    }
    missing = [r for r in partition.regions if r not in by_label]
    if missing:
        raise AuctionError(
            f"parallel clear lost region sub-markets: {missing}"
        )
    _by_region, cross_offers = split_offers(offers, partition)
    _intra, cross_pairs = split_traffic(tm, partition)
    stitch = _stitch_clear(
        partition, cross_offers, cross_pairs,
        engine=engine, method=method, pricing=pricing,
    )
    return ShardedClearResult(
        pricing=pricing,
        method=method,
        engine=engine,
        regions=tuple(by_label[r] for r in partition.regions),
        stitch=stitch,
    )
