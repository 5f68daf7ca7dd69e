"""Weighted max-min fair allocation by progressive filling.

The canonical bandwidth-sharing model: raise a common "water level" t,
give every unfrozen flow rate w_f·t, freeze flows as their demand is met
or a link they cross saturates.  The result is the unique weighted
max-min fair allocation: no flow's rate can be raised without lowering
that of a flow with an equal-or-smaller rate-to-weight ratio.

The implementation is O(iterations × F × L) with at most F iterations —
plenty for the simulator's scale, and simple enough to verify against
the fairness definition in property tests.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.exceptions import FlowError

#: Numerical slack when judging link saturation.
_EPS = 1e-9


def max_min_allocation(
    flow_paths: Mapping[str, Sequence[str]],
    demands: Mapping[str, float],
    weights: Mapping[str, float],
    capacities: Mapping[str, float],
) -> Dict[str, float]:
    """Weighted max-min rates for flows over shared links.

    ``flow_paths`` maps flow id → the link ids it crosses; ``demands``
    and ``weights`` are per flow; ``capacities`` per link.  Flows may
    cross a link at most once (paths, not walks).  Returns flow id → rate.

    Each filling iteration runs as numpy array operations over
    arrays-of-structs flow/link state.  The result is bit-identical to
    the per-flow Python loop kept as the executable specification in
    ``tests/dataplane/fairshare_spec.py``: accumulation is only
    order-preserving (``np.add.at``/``np.subtract.at``), and min or
    ``x + 0.0`` do not depend on evaluation order.  The regression suite
    asserts this case by case.
    """
    for fid, path in flow_paths.items():
        if not path:
            raise FlowError(f"flow {fid} has an empty path")
        if len(set(path)) != len(path):
            raise FlowError(f"flow {fid} crosses a link twice")
        for lid in path:
            if lid not in capacities:
                raise FlowError(f"flow {fid} crosses unknown link {lid}")
        if demands.get(fid, 0.0) <= 0:
            raise FlowError(f"flow {fid} needs positive demand")
        if weights.get(fid, 0.0) <= 0:
            raise FlowError(f"flow {fid} needs positive weight")
    for lid, cap in capacities.items():
        if cap <= 0:
            raise FlowError(f"link {lid} needs positive capacity")

    fids = list(flow_paths)
    lids = list(capacities)
    n_flows, n_links = len(fids), len(lids)
    if n_flows == 0:
        return {}
    link_index = {lid: i for i, lid in enumerate(lids)}

    w = np.array([weights[fid] for fid in fids])
    d = np.array([demands[fid] for fid in fids])
    # Flow/link incidence pairs in flow-major, path order: exactly the
    # order the specification's loop touches links in.
    pair_flow: List[int] = []
    pair_link: List[int] = []
    for i, fid in enumerate(fids):
        for lid in flow_paths[fid]:
            pair_flow.append(i)
            pair_link.append(link_index[lid])
    pf = np.asarray(pair_flow, dtype=np.int64)
    pl = np.asarray(pair_link, dtype=np.int64)

    rates = np.zeros(n_flows)
    frozen = np.zeros(n_flows, dtype=bool)
    residual = np.array([capacities[lid] for lid in lids])
    inf = float("inf")

    while not frozen.all():
        # The largest uniform water-level increment before something binds.
        active_w = np.where(frozen, 0.0, w)
        link_weight = np.zeros(n_links)
        np.add.at(link_weight, pl, active_w[pf])
        carrying = link_weight > 0
        delta = inf
        if carrying.any():
            delta = float(np.min(residual[carrying] / link_weight[carrying]))
        heads = (d[~frozen] - rates[~frozen]) / w[~frozen]
        if heads.size:
            delta = min(delta, float(np.min(heads)))
        if delta == inf:
            break  # no unfrozen flow crosses any capacitated link
        delta = max(delta, 0.0)

        increments = np.where(frozen, 0.0, delta * w)
        rates += increments
        np.subtract.at(residual, pl, increments[pf])

        # Freeze demand-satisfied flows and flows on saturated links.
        met = ~frozen & (rates >= d - _EPS)
        rates[met] = d[met]
        frozen |= met
        saturated = residual <= _EPS
        if saturated.any():
            frozen[pf[saturated[pl]]] = True

    return {fid: float(rates[i]) for i, fid in enumerate(fids)}


def is_max_min_fair(
    rates: Mapping[str, float],
    flow_paths: Mapping[str, Sequence[str]],
    demands: Mapping[str, float],
    weights: Mapping[str, float],
    capacities: Mapping[str, float],
    *,
    tol: float = 1e-6,
) -> bool:
    """Check the max-min fairness conditions of an allocation.

    (1) feasibility; (2) every flow is either demand-capped or crosses a
    saturated link on which no flow with a *smaller* rate/weight ratio is
    unfrozen — i.e. its rate cannot be raised without hurting a weaker
    flow.  Used by tests; not needed in production paths.
    """
    load: Dict[str, float] = {lid: 0.0 for lid in capacities}
    for fid, path in flow_paths.items():
        if rates[fid] < -tol or rates[fid] > demands[fid] + tol:
            return False
        for lid in path:
            load[lid] += rates[fid]
    for lid, total in load.items():
        if total > capacities[lid] + tol:
            return False

    # Bottleneck condition: every unsatisfied flow must have a saturated
    # link on its path where its rate/weight ratio is maximal among the
    # link's flows ("you already get the biggest fair share at your
    # bottleneck, so raising you would hurt someone weaker").
    for fid, path in flow_paths.items():
        if rates[fid] >= demands[fid] - tol:
            continue  # demand-capped
        ratio = rates[fid] / weights[fid]
        has_bottleneck = False
        for lid in path:
            if load[lid] < capacities[lid] - tol:
                continue  # unsaturated link cannot be the bottleneck
            others = [
                rates[other] / weights[other]
                for other in flows_sharing(lid, flow_paths)
                if other != fid
            ]
            if all(ratio >= other - tol for other in others):
                has_bottleneck = True
                break
        if not has_bottleneck:
            return False
    return True


def flows_sharing(link_id: str, flow_paths: Mapping[str, Sequence[str]]) -> List[str]:
    """Flow ids crossing a given link."""
    return [fid for fid, path in flow_paths.items() if link_id in path]
