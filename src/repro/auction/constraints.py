"""The POC's acceptability constraints A(OL) (Section 3.3, Figure 2).

A candidate link set is *acceptable* when it carries the traffic matrix
under the required failure tolerance:

- ``Constraint #1`` — carry the offered load.
- ``Constraint #2`` — carry it under every single-link failure.
- ``Constraint #3`` — carry it when each router pair's primary path fails
  (evaluated per pair).

Constraints wrap a feasibility oracle and add scenario logic; all oracle
calls share one cache per (network, tm, engine), which matters because the
selection loop probes thousands of overlapping subsets.  The exact
(``mcf``) oracle also remembers each Constraint #2/#3 verdict in its warm
model's memo, so later constraints over the same workload content reuse
it.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable

from repro.exceptions import FlowError
from repro.netflow.failures import primary_path_failures, single_link_failures
from repro.netflow.feasibility import BaseOracle, make_oracle
from repro.netflow.model import PRIMARY_PATH_SURVIVABLE, SINGLE_LINK_SURVIVABLE
from repro.obs import metrics
from repro.topology.graph import Network
from repro.traffic.matrix import TrafficMatrix


class Constraint:
    """Decides acceptability of link subsets for one (network, TM) pair."""

    #: Paper name, e.g. "constraint-1".
    name: str = "constraint"

    def __init__(self, network: Network, tm: TrafficMatrix, *, engine: str = "mcf") -> None:
        self.network = network
        self.tm = tm
        self.engine = engine
        self.oracle: BaseOracle = make_oracle(engine, network, tm)

    def satisfied(self, link_ids: Iterable[str]) -> bool:
        raise NotImplementedError

    @property
    def oracle_evaluations(self) -> int:
        """Number of non-cached oracle solves so far (diagnostics)."""
        return self.oracle.evaluations


class TrafficConstraint(Constraint):
    """Constraint #1: the links carry the traffic matrix."""

    name = "constraint-1"

    def satisfied(self, link_ids: Iterable[str]) -> bool:
        return self.oracle.feasible(frozenset(link_ids))


class Survivability(Constraint):
    """Feasible under every failure scenario the subclass names.

    The no-failure case is implied: removing any scenario's links must
    still leave a feasible network, and feasibility is monotone in the
    link set, so the full set is feasible whenever all failure cases are.
    We still check the base case first because it is the cheapest
    rejection.  A verdict depends only on the workload's content, so the
    oracle may remember it for every constraint over the same workload.
    """

    #: The oracle's memo kind for this constraint's verdicts.
    kind: int

    def satisfied(self, link_ids: Iterable[str]) -> bool:
        links = frozenset(link_ids)
        metrics().inc("auction.survivability_checks")
        return self.oracle.survivable(self.kind, links, lambda: self._survives(links))

    def scenarios(self, links: FrozenSet[str]) -> Iterable[FrozenSet[str]]:
        """The link sets that fail, one scenario at a time."""
        raise NotImplementedError

    def _survives(self, links: FrozenSet[str]) -> bool:
        base = self.oracle.check(links)
        if not base.feasible:
            return False
        # A link carrying zero flow in the base routing can fail for free:
        # the very same routing certifies feasibility of the reduced set.
        loads = base.link_loads or {}
        for scenario in self.scenarios(links):
            if all(loads.get(lid, 0.0) <= 1e-9 for lid in scenario):
                continue
            if not self.oracle.feasible(links - scenario):
                return False
        return True


class SingleLinkSurvivability(Survivability):
    """Constraint #2: feasible under every single-link failure."""

    name = "constraint-2"
    kind = SINGLE_LINK_SURVIVABLE

    def scenarios(self, links: FrozenSet[str]) -> Iterable[FrozenSet[str]]:
        return single_link_failures(links)


class PrimaryPathSurvivability(Survivability):
    """Constraint #3: feasible when each pair's primary path fails.

    For every router pair with traffic, compute the pair's primary
    (shortest) path within the candidate set; the candidate minus that
    path's links must still carry the full TM.  Pairs whose primary paths
    coincide are deduplicated by the scenario generator.
    """

    name = "constraint-3"
    kind = PRIMARY_PATH_SURVIVABLE

    def scenarios(self, links: FrozenSet[str]) -> Iterable[FrozenSet[str]]:
        return (scenario for _pair, scenario in primary_path_failures(self.network, links))


_CONSTRAINTS = {
    1: TrafficConstraint,
    2: SingleLinkSurvivability,
    3: PrimaryPathSurvivability,
}


def make_constraint(
    number: int,
    network: Network,
    tm: TrafficMatrix,
    *,
    engine: str = "mcf",
) -> Constraint:
    """Constraint #1, #2, or #3 over the given network and TM."""
    try:
        cls = _CONSTRAINTS[number]
    except KeyError:
        raise FlowError(
            f"unknown constraint number {number}; expected 1, 2, or 3"
        ) from None
    return cls(network, tm, engine=engine)
