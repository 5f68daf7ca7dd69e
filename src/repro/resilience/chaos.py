"""Deterministic fault injection and survivability campaigns.

The harness injects one fault per epoch into a running auction→provision→
serve timeline and measures what fraction of demand the POC keeps
carrying.  Six fault classes:

- ``link-flap``     — a *selected* backbone link fails mid-epoch,
- ``node-outage``   — a router site fails (all incident links),
- ``srlg-cut``      — a shared-risk group (parallel conduit) is cut,
- ``bp-dropout``    — a winning BP withdraws between clearing and
  activation (:class:`~repro.exceptions.ProviderDropoutError`),
- ``malformed-bid`` — a BP submits a non-finite bid, which is detected
  and quarantined (:class:`~repro.exceptions.BidError`),
- ``solver-stall``  — the exact MILP engine stalls
  (:class:`~repro.exceptions.SolverTimeoutError`), forcing the
  retry/fallback policy onto the heuristic engine.

Everything is seeded through :mod:`repro.rand`: the same seed plans the
same fault schedule, resolves the same targets, and reproduces the same
campaign report byte for byte.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import asdict, dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.exceptions import (
    BidError,
    NoFeasibleSelectionError,
    ProviderDropoutError,
    ReproError,
    SolverTimeoutError,
)
from repro.auction.bids import AdditiveCost
from repro.auction.constraints import make_constraint
from repro.auction.provider import Offer
from repro.core.poc import PublicOptionCore
from repro.netflow.failures import node_failures, shared_risk_groups
from repro.rand import make_rng
from repro.resilience.controller import DegradedModeController
from repro.resilience.policy import CircuitBreaker, ResilientAuctioneer, RetryPolicy
from repro.topology.geo import GeoPoint
from repro.topology.graph import Link, Network, Node
from repro.traffic.matrix import TrafficMatrix
from repro.traffic.synthetic import uniform_matrix

#: All fault classes, in the deterministic order campaigns cycle through.
FAULT_KINDS = (
    "link-flap",
    "node-outage",
    "srlg-cut",
    "bp-dropout",
    "solver-stall",
    "malformed-bid",
)

#: Topology faults degrade the backbone; the rest hit the control plane.
TOPOLOGY_KINDS = frozenset({"link-flap", "node-outage", "srlg-cut"})


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``target`` is resolved at planning time when the candidate set is
    static (nodes, SRLGs, providers); ``link-flap`` targets a *selected*
    link, which only exists once that epoch's auction has cleared, so the
    runner resolves it deterministically from ``salt``.
    """

    epoch: int
    kind: str
    target: str = ""
    link_ids: FrozenSet[str] = frozenset()
    salt: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ReproError(f"unknown fault kind {self.kind!r}; expected {FAULT_KINDS}")


@dataclass(frozen=True)
class ChaosConfig:
    """Shape of a fault-injection campaign."""

    seed: int = 7
    scenarios: int = 6
    kinds: Tuple[str, ...] = FAULT_KINDS

    def __post_init__(self) -> None:
        if self.scenarios < 1:
            raise ReproError(f"scenarios must be >= 1, got {self.scenarios}")
        if not self.kinds:
            raise ReproError("at least one fault kind is required")
        for kind in self.kinds:
            if kind not in FAULT_KINDS:
                raise ReproError(f"unknown fault kind {kind!r}; expected {FAULT_KINDS}")


def plan_campaign(
    network: Network, offers: Sequence[Offer], config: ChaosConfig
) -> List[FaultEvent]:
    """The deterministic fault schedule: one event per scenario epoch.

    Kinds cycle in ``config.kinds`` order (so a short campaign still
    covers every enabled class once); targets are drawn from the seeded
    stream.  SRLG cuts degrade to link flaps when the network has no
    parallel-conduit groups.
    """
    rng = make_rng(config.seed)
    nodes = sorted(network.node_ids)
    providers = sorted(o.provider for o in offers if o.in_auction)
    srlgs = shared_risk_groups(network)
    node_links = dict(node_failures(nodes, network))

    events: List[FaultEvent] = []
    for epoch in range(config.scenarios):
        kind = config.kinds[epoch % len(config.kinds)]
        salt = int(rng.integers(0, 2**31 - 1))
        if kind == "srlg-cut" and not srlgs:
            kind = "link-flap"
        if kind == "link-flap":
            event = FaultEvent(epoch=epoch, kind=kind, salt=salt)
        elif kind == "node-outage":
            target = nodes[salt % len(nodes)]
            event = FaultEvent(
                epoch=epoch, kind=kind, target=target,
                link_ids=node_links.get(target, frozenset()), salt=salt,
            )
        elif kind == "srlg-cut":
            group = srlgs[salt % len(srlgs)]
            link = network.link(sorted(group)[0])
            event = FaultEvent(
                epoch=epoch, kind=kind,
                target=f"{link.u}~{link.v}", link_ids=group, salt=salt,
            )
        elif kind in ("bp-dropout", "malformed-bid"):
            if not providers:
                raise ReproError(f"cannot schedule {kind}: no auction providers")
            event = FaultEvent(
                epoch=epoch, kind=kind,
                target=providers[salt % len(providers)], salt=salt,
            )
        else:  # solver-stall
            event = FaultEvent(epoch=epoch, kind=kind, target="milp", salt=salt)
        events.append(event)
    return events


@dataclass(frozen=True)
class ScenarioResult:
    """One epoch of the campaign: the fault and what survived it."""

    epoch: int
    kind: str
    target: str
    engine: str  # engine that produced the activated backbone
    fallback: bool  # MILP→heuristic fallback fired
    attempts: int  # primary-engine attempts
    served_fraction: float
    unserved_gbps: float
    rerouted: bool  # failures occurred but every demand still served
    disconnected_pairs: int
    quarantined: str = ""  # provider whose malformed bid was rejected
    dropped_out: str = ""  # provider that vanished mid-round
    infeasible: bool = False  # no acceptable selection existed at all

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ScenarioResult":
        return cls(**payload)


@dataclass
class CampaignReport:
    """Survivability of the POC across one fault-injection campaign."""

    seed: int
    scenarios: List[ScenarioResult] = field(default_factory=list)

    def served_by_class(self) -> Dict[str, float]:
        """Mean served-demand fraction per fault class."""
        sums: Dict[str, List[float]] = {}
        for s in self.scenarios:
            sums.setdefault(s.kind, []).append(s.served_fraction)
        return {kind: sum(v) / len(v) for kind, v in sorted(sums.items())}

    @property
    def fallback_count(self) -> int:
        return sum(1 for s in self.scenarios if s.fallback)

    @property
    def mean_served_fraction(self) -> float:
        if not self.scenarios:
            return 1.0
        return sum(s.served_fraction for s in self.scenarios) / len(self.scenarios)

    def to_json(self) -> str:
        """Canonical JSON (used for byte-identical reproducibility checks)."""
        return json.dumps(
            {"seed": self.seed, "scenarios": [s.to_dict() for s in self.scenarios]},
            sort_keys=True,
        )

    def formatted(self) -> str:
        tgt_w = max([12] + [len(s.target) + 2 for s in self.scenarios])
        lines = [
            f"chaos campaign: seed={self.seed} scenarios={len(self.scenarios)}",
            f"{'epoch':>5} {'fault':<14}{'target':<{tgt_w}}{'engine':<12}"
            f"{'served':>8} {'unserved Gbps':>14}  notes",
        ]
        for s in self.scenarios:
            notes = []
            if s.fallback:
                notes.append("fallback")
            if s.rerouted:
                notes.append("rerouted")
            if s.quarantined:
                notes.append(f"quarantined={s.quarantined}")
            if s.dropped_out:
                notes.append(f"dropout={s.dropped_out}")
            if s.infeasible:
                notes.append("INFEASIBLE")
            lines.append(
                f"{s.epoch:>5} {s.kind:<14}{s.target:<{tgt_w}}{s.engine:<12}"
                f"{s.served_fraction:>8.1%} {s.unserved_gbps:>14.2f}  "
                + ",".join(notes)
            )
        lines.append("")
        lines.append("served-demand fraction by fault class:")
        for kind, frac in self.served_by_class().items():
            lines.append(f"  {kind:<14}{frac:>8.1%}")
        lines.append(
            f"overall: {self.mean_served_fraction:.1%} served, "
            f"{self.fallback_count} heuristic fallback(s)"
        )
        return "\n".join(lines)


def _validate_offers(offers: Sequence[Offer]) -> None:
    """Reject bids whose declared cost is not a finite number.

    Construction-time checks catch negative prices; NaN/inf (a corrupted
    feed, the ``malformed-bid`` fault) slip through comparisons, so the
    clearing path probes every bid's full-basket cost here.
    """
    for offer in offers:
        total = offer.bid.cost(offer.link_ids)
        if not math.isfinite(total):
            raise BidError(
                f"provider {offer.provider} submitted a malformed bid "
                f"(non-finite cost {total!r})"
            )


def _corrupt_bid(offer: Offer) -> Offer:
    """The malformed-bid fault: the BP's feed turns to NaN prices."""
    return offer.with_bid(
        AdditiveCost({lid: float("nan") for lid in offer.link_ids})
    )


def _activate(
    poc: PublicOptionCore, result, withdrawn: FrozenSet[str]
) -> None:
    """Activate a cleared selection, unless a winner has since vanished.

    Raises :class:`ProviderDropoutError` when a provider in ``withdrawn``
    won links in ``result`` — the mid-round dropout the campaign must
    re-clear around.  A withdrawn *loser* changes nothing.
    """
    for provider in sorted(withdrawn):
        pr = result.providers.get(provider)
        if pr is not None and pr.won:
            raise ProviderDropoutError(
                provider, "withdrew after winning, before activation"
            )
    poc.activate(result)


def run_campaign(
    network: Network,
    offers: Sequence[Offer],
    tm: TrafficMatrix,
    config: Optional[ChaosConfig] = None,
    *,
    primary_method: str = "milp",
    fallback_method: str = "greedy-drop",
    constraint: int = 1,
    engine: str = "mcf",
    milp_time_limit_s: Optional[float] = None,
    checkpoint=None,
) -> CampaignReport:
    """Run a fault-injection campaign end to end.

    Per epoch: gather offers, inject the scheduled fault, clear the
    auction through the retry/fallback policy, activate the backbone,
    apply any mid-epoch topology fault through the degraded-mode
    controller, and record the served-demand residual.  Re-auction is
    deferred: the next epoch clears fresh (links repaired, BPs back).

    ``checkpoint`` (a :class:`~repro.experiments.pipeline.
    PipelineCheckpoint`) makes the campaign resumable: completed epochs
    are replayed from disk.  Per-epoch state is derived from the
    schedule's salts, so a resumed campaign is byte-identical to an
    uninterrupted one.
    """
    cfg = config or ChaosConfig()
    events = plan_campaign(network, offers, cfg)
    poc = PublicOptionCore(offered=network)
    report = CampaignReport(seed=cfg.seed)

    for event in events:
        stage = f"scenario-{event.epoch}"
        if checkpoint is not None and checkpoint.has(stage):
            report.scenarios.append(ScenarioResult.from_dict(checkpoint.get(stage)))
            continue
        result = _run_epoch(
            poc, offers, tm, event,
            primary_method=primary_method,
            fallback_method=fallback_method,
            constraint=constraint,
            engine=engine,
            milp_time_limit_s=milp_time_limit_s,
        )
        report.scenarios.append(result)
        if checkpoint is not None:
            checkpoint.save(stage, result.to_dict())
    return report


@contextlib.contextmanager
def injected_link_faults(poc: PublicOptionCore):
    """Scope chaos-injected link failures to a block, crash-safe.

    Snapshots the POC's failed-link set on entry and, on *any* exit —
    normal return, a crashed damage assessment, or a supervisor timeout
    raised mid-block — restores exactly the failures injected inside the
    block.  Pre-existing failures (a genuinely degraded POC) are left
    untouched, so the harness never masks real operational state.
    """
    before = poc.failed_links
    try:
        yield
    finally:
        injected = poc.failed_links - before
        if injected:
            poc.restore_links(injected)


def _run_epoch(
    poc: PublicOptionCore,
    offers: Sequence[Offer],
    tm: TrafficMatrix,
    event: FaultEvent,
    *,
    primary_method: str,
    fallback_method: str,
    constraint: int,
    engine: str,
    milp_time_limit_s: Optional[float],
) -> ScenarioResult:
    quarantined = ""
    dropped_out = ""
    round_offers = list(offers)

    # -- control-plane faults before clearing --------------------------------
    if event.kind == "malformed-bid":
        round_offers = [
            _corrupt_bid(o) if o.provider == event.target else o
            for o in round_offers
        ]
    try:
        _validate_offers(round_offers)
    except BidError:
        quarantined = event.target
        round_offers = [o for o in round_offers if o.provider != event.target]

    stalled = event.kind == "solver-stall"

    def simulate_stall() -> None:
        if stalled:
            raise SolverTimeoutError(
                "milp", milp_time_limit_s or 30.0, detail="injected solver stall"
            )

    auctioneer = ResilientAuctioneer(
        primary_method=primary_method,
        fallback_method=fallback_method,
        milp_time_limit_s=milp_time_limit_s,
        retry=RetryPolicy(max_attempts=2),
        breaker=CircuitBreaker(),
        seed=event.salt,
        before_primary=simulate_stall,
    )

    cons = make_constraint(constraint, poc.offered, tm, engine=engine)

    def infeasible_result() -> ScenarioResult:
        return ScenarioResult(
            epoch=event.epoch, kind=event.kind, target=event.target,
            engine="none", fallback=False, attempts=0,
            served_fraction=0.0, unserved_gbps=tm.total_gbps(),
            rerouted=False, disconnected_pairs=tm.num_pairs,
            quarantined=quarantined, dropped_out=dropped_out, infeasible=True,
        )

    try:
        result, prov = auctioneer.clear(round_offers, cons)
    except NoFeasibleSelectionError:
        return infeasible_result()

    # -- BP dropout between clearing and activation ---------------------------
    withdrawn = frozenset((event.target,)) if event.kind == "bp-dropout" else frozenset()
    try:
        _activate(poc, result, withdrawn)
    except ProviderDropoutError as exc:
        # The winner vanished: re-clear this round without it.
        dropped_out = exc.provider
        round_offers = [o for o in round_offers if o.provider != exc.provider]
        try:
            result, prov = auctioneer.clear(round_offers, cons)
        except NoFeasibleSelectionError:
            return infeasible_result()
        _activate(poc, result, frozenset())

    controller = DegradedModeController(poc, tm)

    # -- mid-epoch topology fault ---------------------------------------------
    # The injected failures live only for the duration of the damage
    # assessment: the context manager restores them on the way out, so a
    # trial that crashes mid-assessment (or is killed by the sweep
    # supervisor and retried in-process) never leaks a degraded POC into
    # the next scenario.
    target = event.target
    with injected_link_faults(poc):
        if event.kind == "link-flap":
            candidates = sorted(result.selected)
            target = candidates[event.salt % len(candidates)]
            state = controller.fail_links([target])
        elif event.kind == "node-outage":
            state = controller.fail_node(event.target)
        elif event.kind == "srlg-cut":
            state = controller.fail_links(event.link_ids)
        else:
            state = controller.assess()

    return ScenarioResult(
        epoch=event.epoch,
        kind=event.kind,
        target=target,
        engine=prov.engine,
        fallback=prov.fallback,
        attempts=prov.attempts,
        served_fraction=round(state.served_fraction, 9),
        unserved_gbps=round(state.unserved_gbps, 6),
        rerouted=state.rerouted,
        disconnected_pairs=len(state.disconnected_pairs),
        quarantined=quarantined,
        dropped_out=dropped_out,
    )


# -- the micro workload -------------------------------------------------------

#: Per-process memo of the seed-independent micro-scenario parts, keyed
#: by ``load_fraction``.  Nodes and links are frozen dataclasses and the
#: base TM is never handed out directly, so the memo is read-only state:
#: a sweep parent that prewarms it (see ``Experiment.prewarm``) lets
#: every fork-started worker inherit the built workload for free.
_MICRO_BASE: Dict[float, Tuple] = {}


def _micro_base(load_fraction: float) -> Tuple:
    """Build (once per process) the seed-independent micro parts.

    Returns ``(nodes, links_by_bp, ext_links, total, base_tm)``:
    the node tuple, the per-BP link lists, the external shadow-ring
    links, the TM volume, and the base traffic matrix.  Only offer
    *prices* depend on the scenario seed, so everything here is shared
    across trials; :func:`micro_scenario` assembles a fresh
    :class:`Network` and :class:`TrafficMatrix` per call from these
    immutable parts (in the original insertion order, so results are
    byte-identical to building from scratch) — callers that mutate
    their network can never corrupt another trial's workload.
    """
    cached = _MICRO_BASE.get(load_fraction)
    if cached is not None:
        return cached

    coords = [
        ("A", 40.0, -100.0), ("B", 42.0, -95.0), ("C", 42.0, -88.0),
        ("D", 40.0, -83.0), ("E", 36.0, -83.0), ("F", 34.0, -88.0),
        ("G", 34.0, -95.0), ("H", 36.0, -100.0),
    ]
    nodes = tuple(
        Node(id=node_id, point=GeoPoint(lat, lon)) for node_id, lat, lon in coords
    )

    ring = ["A", "B", "C", "D", "E", "F", "G", "H"]
    links: Dict[str, List[Link]] = {"alpha": [], "beta": [], "gamma": []}
    for i, u in enumerate(ring):
        v = ring[(i + 1) % len(ring)]
        links["alpha"].append(Link(
            id=f"{u}{v}", u=u, v=v, capacity_gbps=40.0, length_km=450.0,
            owner="alpha",
        ))
    for u, v in (("A", "E"), ("B", "F"), ("C", "G"), ("D", "H")):
        links["beta"].append(Link(
            id=f"{u}{v}", u=u, v=v, capacity_gbps=30.0, length_km=900.0,
            owner="beta",
        ))
    # Parallel conduits: same endpoints as ring links, so they land in
    # shared-risk groups (a backhoe cuts both).
    for u, v in (("A", "B"), ("E", "F")):
        links["gamma"].append(Link(
            id=f"{u}{v}p", u=u, v=v, capacity_gbps=20.0, length_km=460.0,
            owner="gamma",
        ))

    # Load is sized before the external shadow ring joins the offered
    # network, so the contract adds slack rather than shifting the TM.
    total = sum(
        link.capacity_gbps for bp in links for link in links[bp]
    ) * load_fraction

    ring_pairs = [(u, ring[(i + 1) % len(ring)]) for i, u in enumerate(ring)]
    ext_links = tuple(
        Link(
            id=f"ext:VL{idx:03d}", u=u, v=v, capacity_gbps=40.0,
            length_km=500.0, owner="ext", virtual=True,
        )
        for idx, (u, v) in enumerate(ring_pairs)
    )

    node_ids = sorted(node.id for node in nodes)
    base_tm = uniform_matrix(node_ids, total)

    base = (nodes, links, ext_links, total, base_tm)
    _MICRO_BASE[load_fraction] = base
    return base


def micro_scenario(
    seed: int = 7, *, load_fraction: float = 0.05
) -> Tuple[Network, List[Offer], TrafficMatrix]:
    """A compact deterministic workload for chaos campaigns and CI smoke.

    Eight POC sites on a ring (BP ``alpha``), four cross-chords (BP
    ``beta``), two parallel conduits (BP ``gamma``) that form
    shared-risk groups, and an external-ISP shadow ring of virtual links
    (``ext``, contract-priced well above the BPs) so the VCG
    leave-one-out selections stay feasible — the paper's standing
    assumption that A(OL − L_α) is nonempty.  Small enough that one
    exact MILP clear (four solves) takes 0.15-0.7 s on a 2-vCPU Xeon VM —
    so campaigns default to the real primary engine and still reproduce
    byte-identically — while every fault class has a meaningful target.
    ``seed`` perturbs per-link costs only; the topology is fixed (and
    memoized per process, see :func:`_micro_base`).
    """
    from repro.auction.provider import ExternalTransitContract, default_monthly_cost

    nodes, links, ext_links, _total, base_tm = _micro_base(load_fraction)

    net = Network(name="chaos-micro")
    for node in nodes:
        net.add_node(node)
    for bp_links in links.values():
        for link in bp_links:
            net.add_link(link)

    rng = make_rng(seed)
    offers: List[Offer] = []
    for bp in sorted(links):
        efficiency = float(rng.uniform(0.8, 1.2))
        prices = {}
        for link in links[bp]:
            noise = float(rng.lognormal(mean=0.0, sigma=0.1))
            prices[link.id] = default_monthly_cost(
                link.capacity_gbps, link.length_km, efficiency=efficiency
            ) * noise
        cost = AdditiveCost(prices)
        offers.append(Offer(provider=bp, links=links[bp], bid=cost, true_cost=cost))

    mean_bp_price = sum(
        o.bid.cost(o.link_ids) for o in offers
    ) / sum(len(o.links) for o in offers)
    price_per_link = round(3.0 * mean_bp_price, 2)
    contract = ExternalTransitContract(
        isp="ext",
        links=list(ext_links),
        per_link_monthly={link.id: price_per_link for link in ext_links},
    )
    for link in contract.links:
        net.add_link(link)
    offers.append(contract.to_offer())

    # A fresh TM per call (defensive copy of the memoized base: its
    # demands are plain floats, so the copy is exact).
    tm = TrafficMatrix.from_dict(base_tm.nodes, dict(base_tm.pairs()))
    return net, offers, tm
