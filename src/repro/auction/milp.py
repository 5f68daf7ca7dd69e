"""Exact min-cost selection as a mixed-integer program.

For additive bids under Constraint #1 the selection problem

    SL = argmin C(L)  s.t.  L carries the traffic matrix

is exactly a fixed-charge multi-commodity-flow MILP:

- binary y_l per offered link (lease it or not), cost c_l·y_l;
- continuous arc flows x[a, s] (commodities aggregated by source);
- conservation at every node, capacity Σ_s x[a, s] ≤ cap_a · y_link(a);
- one demand-connectivity row Σ_l y_l ≥ |E| − k, valid for every
  feasible selection (argued where :func:`exact_selection` builds it).

HiGHS (via :func:`scipy.optimize.milp`) closes the 22-link micro
scenario at or near the root node: over seeds 0-15, one VCG clear (the
selection and its three leave-one-out selections) explores 2-30
branch-and-bound nodes and spends 0.14-0.67 s in HiGHS on a 2-vCPU Xeon
VM.  That makes this the *reference* engine: the heuristics in
:mod:`repro.auction.selection` are measured against it in the ablation
benchmarks, and the small textbook instances in the test suite get true
optima (so the VCG payment identities hold exactly).  On the 99-link
tiny zoos one solve takes tens of seconds (zoo #131704 at load 0.02:
40 s to a proven optimum), so the benchmarks there run it with a time
limit.

Survivability constraints (#2/#3) would need scenario-expanded flow
copies — quadratic blow-up — so this engine deliberately supports only
Constraint #1 and raises otherwise.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import LinearConstraint, milp
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from repro.exceptions import (
    AuctionError,
    NoFeasibleSelectionError,
    SolverTimeoutError,
)
from repro.auction.bids import AdditiveCost, CostFunction, ScaledCost
from repro.auction.provider import Offer
from repro.obs import metrics, span
from repro.topology.graph import Network
from repro.traffic.matrix import TrafficMatrix


def _additive_prices(offer: Offer) -> Dict[str, float]:
    """Extract per-link prices; only additive bids are MILP-expressible.

    ScaledCost wrappers around additive bids (uniform bid shading) stay
    additive and are unwrapped here.
    """
    bid = offer.bid
    factor = 1.0
    while isinstance(bid, ScaledCost):
        factor *= bid.factor
        bid = bid.inner
    if isinstance(bid, AdditiveCost):
        return {lid: price * factor for lid, price in bid.prices.items()}
    raise AuctionError(
        f"the MILP engine requires additive bids; provider {offer.provider} "
        f"bid a {type(bid).__name__}"
    )


def exact_selection(
    offers: Sequence[Offer],
    network: Network,
    tm: TrafficMatrix,
    *,
    mip_rel_gap: float = 0.0,
    time_limit_s: Optional[float] = None,
) -> Tuple[FrozenSet[str], float]:
    """Optimal link set and its declared cost for Constraint #1.

    Fixed-charge network design is NP-hard; beyond ~50 links expect to
    need a ``time_limit_s`` and/or ``mip_rel_gap``, in which case the
    result is the incumbent (best found), not a certified optimum; every
    incumbent accepted at the time limit counts as ``milp.time_limited``.
    Raises :class:`NoFeasibleSelectionError` when no subset of the offered
    links can carry the TM, and :class:`SolverTimeoutError` when the time
    limit fired before any incumbent was found.
    """
    tm.validate_against(network.node_ids)
    prices: Dict[str, float] = {}
    for offer in offers:
        for lid, price in _additive_prices(offer).items():
            if lid in prices:
                raise AuctionError(f"link {lid} offered twice")
            prices[lid] = price

    link_ids = sorted(prices)
    if not link_ids:
        raise NoFeasibleSelectionError("no links offered")
    offered = network.restricted_to_links(link_ids)

    demands = [(pair, v) for pair, v in tm.pairs() if v > 0]
    if not demands:
        return frozenset(), 0.0

    with span("milp.build", links=len(link_ids)):
        sources = sorted({src for (src, _), _ in demands})
        nodes = offered.node_ids
        node_idx = {n: i for i, n in enumerate(nodes)}
        src_idx = {s: i for i, s in enumerate(sources)}
        link_idx = {lid: i for i, lid in enumerate(link_ids)}

        arcs: List[Tuple[int, int, int, float]] = []  # (link_i, tail_i, head_i, cap)
        for lid in link_ids:
            link = offered.link(lid)
            li = link_idx[lid]
            arcs.append((li, node_idx[link.u], node_idx[link.v], link.capacity_gbps))
            arcs.append((li, node_idx[link.v], node_idx[link.u], link.capacity_gbps))

        n_links, n_arcs, n_src, n_nodes = len(link_ids), len(arcs), len(sources), len(nodes)
        n_flow = n_arcs * n_src
        n_vars = n_flow + n_links  # flows then binaries

        b = np.zeros((n_src, n_nodes))
        for (src, dst), value in demands:
            b[src_idx[src], node_idx[src]] += value
            b[src_idx[src], node_idx[dst]] -= value

        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        for a, (_li, tail, head, _cap) in enumerate(arcs):
            for s in range(n_src):
                col = a * n_src + s
                rows.append(s * n_nodes + tail)
                cols.append(col)
                vals.append(1.0)
                rows.append(s * n_nodes + head)
                cols.append(col)
                vals.append(-1.0)
        a_eq = coo_matrix((vals, (rows, cols)), shape=(n_src * n_nodes, n_vars))
        b_eq = np.concatenate([b[s] for s in range(n_src)])
        conservation = LinearConstraint(a_eq.tocsc(), b_eq, b_eq)

        rows, cols, vals = [], [], []
        for a, (li, _t, _h, cap) in enumerate(arcs):
            for s in range(n_src):
                rows.append(a)
                cols.append(a * n_src + s)
                vals.append(1.0)
            rows.append(a)
            cols.append(n_flow + li)
            vals.append(-cap)
        a_cap = coo_matrix((vals, (rows, cols)), shape=(n_arcs, n_vars))
        capacity = LinearConstraint(a_cap.tocsc(), -np.inf, np.zeros(n_arcs))

        # Demand connectivity: a feasible selection joins every demand pair,
        # and each leased link merges at most two components of the leased
        # graph, so it leases at least |E| - k links (E the demand endpoints,
        # k the components of the undirected demand graph over E).  The
        # capacity rows alone let the relaxation lease ~flow/cap of a link.
        ends = sorted({node for pair, _v in demands for node in pair})
        end_idx = {n: i for i, n in enumerate(ends)}
        demand_graph = coo_matrix((
            np.ones(len(demands)),
            ([end_idx[src] for (src, _), _ in demands],
             [end_idx[dst] for (_, dst), _ in demands]),
        ), shape=(len(ends), len(ends)))
        k = connected_components(demand_graph, directed=False, return_labels=False)
        lease = np.zeros((1, n_vars))
        lease[0, n_flow:] = 1.0
        connectivity = LinearConstraint(lease, len(ends) - k, np.inf)

        c = np.zeros(n_vars)
        for lid, li in link_idx.items():
            c[n_flow + li] = prices[lid]

        integrality = np.zeros(n_vars)
        integrality[n_flow:] = 1

        from scipy.optimize import Bounds

        lower = np.zeros(n_vars)
        upper = np.full(n_vars, np.inf)
        upper[n_flow:] = 1.0

        options = {"mip_rel_gap": mip_rel_gap}
        if time_limit_s is not None:
            options["time_limit"] = time_limit_s
    with span("milp.solve", variables=n_vars, binaries=n_links):
        metrics().inc("milp.solves")
        res = milp(
            c,
            constraints=[conservation, capacity, connectivity],
            integrality=integrality,
            bounds=Bounds(lower, upper),
            options=options,
        )
    # status 1 = iteration/time limit; accept the incumbent if one exists,
    # and count it: VCG pivots priced off a selection that is not a proven
    # optimum lose the exact mechanism's guarantees.
    if res.status == 1 and res.x is not None:
        metrics().inc("milp.time_limited")
    elif res.status == 1:
        # The limit fired before HiGHS found any incumbent: the instance
        # may be perfectly feasible, we just ran out of budget.
        raise SolverTimeoutError(
            "milp", time_limit_s if time_limit_s is not None else float("inf"),
            detail=res.message,
        )
    elif res.status != 0 or res.x is None:
        raise NoFeasibleSelectionError(
            f"MILP found no feasible selection (status={res.status}: {res.message})"
        )
    y = res.x[n_flow:]
    selected = frozenset(lid for lid, li in link_idx.items() if y[li] > 0.5)
    cost = float(sum(prices[lid] for lid in sorted(selected)))
    return selected, cost
