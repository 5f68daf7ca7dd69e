"""Exact multi-commodity-flow computations via linear programming.

The central quantity is the *max concurrent flow* λ*: the largest uniform
scaling of the traffic matrix the network can carry with splittable
routing.  A link set is feasible for a TM exactly when λ* >= 1.

Formulation (node-arc, commodities aggregated by source):

- each undirected link becomes two directed arcs, each with the link's
  full-duplex capacity;
- for each source ``s`` with positive egress, variables x[a, s] >= 0 give
  the flow of s-sourced traffic on arc ``a``;
- flow conservation at every node v:  out(v,s) - in(v,s) = λ · b(s, v)
  where b(s, s) = Σ_t d(s,t), b(s, t) = -d(s,t);
- capacity:  Σ_s x[a, s] <= cap(a);
- maximize λ.

Aggregating by source keeps the variable count at |arcs| × |sources|
instead of |arcs| × |pairs|, which is what makes exact feasibility
affordable for the auction's inner loop at benchmark scale.

The LP is assembled and solved in one place,
:class:`repro.netflow.model.McfModel`; this module holds the result
type and the one-shot entry points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.topology.graph import Network
from repro.traffic.matrix import TrafficMatrix

#: λ is capped at this value so the LP stays bounded even for tiny TMs.
LAMBDA_CAP = 64.0

#: Subset results each warm model (node-arc or path LP) keeps memoized.
MEMO_SIZE = 8192


@dataclass(frozen=True)
class MCFResult:
    """Outcome of a max-concurrent-flow solve."""

    lam: float
    feasible: bool
    status: int
    message: str
    #: Total flow·km routed at λ = min(lam, 1) — a cost-of-carriage proxy.
    flow_km: float = 0.0
    #: Per-link load (Gbps, both directions summed) of a routing of the TM
    #: itself (flows rescaled to λ = 1 when λ* > 1).  None when infeasible.
    link_loads: Optional[Dict[str, float]] = None
    #: Raw routing detail for invariant audits, populated only when
    #: ``keep_flows=True``: ``arcs`` lists (arc_id, tail, head, capacity)
    #: and ``arc_flows[(arc_id, source)]`` the *unscaled* flow of
    #: source-sourced traffic on that arc at the solved λ.
    arcs: Optional[Tuple[Tuple[str, str, str, float], ...]] = None
    arc_flows: Optional[Dict[Tuple[str, str], float]] = None

    @property
    def utilization_headroom(self) -> float:
        """How much the TM could grow before saturating (λ* − 1)."""
        return self.lam - 1.0


def max_concurrent_flow(
    network: Network,
    tm: TrafficMatrix,
    *,
    keep_flows: bool = False,
) -> MCFResult:
    """Solve for the max concurrent flow λ* of ``tm`` on ``network``.

    A one-shot, uncached ``McfModel(network, tm).solve()``.  The LP's
    arcs follow link-id order whatever order the links were added in,
    so the result depends only on the network's content: every field
    equals the solve on ``network.restricted_to_links(network.link_ids)``.

    Raises :class:`FlowError` only on solver breakdown; an unreachable
    demand simply yields λ* = 0 (infeasible).  ``keep_flows=True``
    retains the per-arc, per-source routing on the result so the
    invariant suite (:mod:`repro.validate.invariants`) can audit flow
    conservation and capacity respect against the LP's own solution.
    """
    from repro.netflow.model import McfModel

    return McfModel(network, tm).solve(keep_flows=keep_flows)


def mcf_feasible(network: Network, tm: TrafficMatrix) -> bool:
    """Convenience wrapper: can ``network`` carry ``tm``?

    Routed through the warm-started model cache
    (:func:`repro.netflow.model.get_model`) so repeated yes/no queries on
    the same (topology, TM) never rebuild the LP, and trivially
    infeasible demand (egress/ingress exceeding a node's incident cut
    capacity) or a subset an earlier verdict or certificate settles is
    answered without any solve at all.
    """
    from repro.netflow.model import get_model

    return get_model(network, tm).feasible()
