"""Feasibility oracles: "can this link set carry this traffic matrix?"

The auction evaluates feasibility of *many* candidate link subsets, so the
oracle is a first-class, swappable object:

- :class:`MCFOracle` — exact, via the max-concurrent-flow LP.
- :class:`PathOracle` — the path-column LP of
  :class:`repro.netflow.pathmcf.PathMcfModel`; exact-equivalent verdicts
  by default (infeasible path verdicts re-checked on the node-arc model)
  at a fraction of the variable count, which is what scales feasibility
  to the continental (T2) link universe.
- :class:`GreedyOracle` — heuristic multipath routing (conservative:
  "feasible" answers are trustworthy, "infeasible" may be false).
- :class:`ShortestPathOracle` — plain IGP routing, the most conservative.

All oracles share a memoization cache keyed by the frozenset of link ids,
because the greedy-drop selection re-tests overlapping subsets constantly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, Optional, Union

from repro.exceptions import FlowError
from repro.topology.graph import Network
from repro.netflow.mcf import MCFResult
from repro.netflow.model import get_model
from repro.netflow.pathmcf import PathMcfModel
from repro.netflow.routing import RoutingOutcome, route_greedy_multipath, route_shortest_path
from repro.traffic.matrix import TrafficMatrix


@dataclass(frozen=True)
class FeasibilityResult:
    """Verdict plus a diagnostic utilization/slack figure."""

    feasible: bool
    #: max concurrent flow λ (exact oracle) or 1/max-utilization (heuristics);
    #: values >= 1 mean the TM fits with that much headroom.
    headroom: float
    #: Per-link load (Gbps) of one feasible routing of the TM, or None when
    #: infeasible.  Links absent from the dict carry zero flow — the
    #: survivability constraints exploit this: a zero-flow link can fail
    #: without any re-check, because the same routing still works.
    link_loads: Optional[Dict[str, float]] = None


class BaseOracle:
    """Shared caching machinery for all oracles.

    Engines implement :meth:`_evaluate`; :meth:`check` memoizes it per
    link subset and keeps the counters.  :meth:`feasible` shares the
    cache and counters; an engine that can answer yes/no more cheaply
    than a full result overrides :meth:`_feasible`, and the cache then
    holds that bare verdict until :meth:`check` asks for the result.
    Every engine raises :class:`~repro.exceptions.UnknownLinkError` for
    a link id the network does not have.
    """

    #: Human-readable engine name (used in reports and ablation benches).
    name: str = "base"

    def __init__(self, network: Network, tm: TrafficMatrix) -> None:
        tm.validate_against(network.node_ids)
        self.network = network
        self.tm = tm
        self._cache: Dict[FrozenSet[str], Union[FeasibilityResult, bool]] = {}
        self.evaluations = 0
        self.cache_hits = 0

    def check(self, link_ids: Iterable[str]) -> FeasibilityResult:
        """Evaluate feasibility of the subset, with memoization."""
        key = frozenset(link_ids)
        cached = self._cache.get(key)
        if cached is None:
            self.evaluations += 1
        else:
            self.cache_hits += 1
            if isinstance(cached, FeasibilityResult):
                return cached
        result = self._evaluate(key)
        self._cache[key] = result
        return result

    def feasible(self, link_ids: Iterable[str]) -> bool:
        """Can the subset carry the TM?  Memoized with :meth:`check`."""
        key = frozenset(link_ids)
        cached = self._cache.get(key)
        if cached is None:
            self.evaluations += 1
            cached = self._cache[key] = self._feasible(key)
        else:
            self.cache_hits += 1
        return cached if isinstance(cached, bool) else cached.feasible

    def survivable(self, kind: int, links: FrozenSet[str], decide: Callable[[], bool]) -> bool:
        """``decide()``: a survivability constraint's verdict for ``links``.

        ``kind`` names the constraint (a memo kind of
        :mod:`repro.netflow.model`).  How widely a verdict may be shared
        is the engine's call; this oracle remembers none.
        """
        return decide()

    def _evaluate(self, key: FrozenSet[str]) -> FeasibilityResult:
        """The uncached result for one subset."""
        raise NotImplementedError

    def _feasible(self, key: FrozenSet[str]) -> Union[FeasibilityResult, bool]:
        """The uncached yes/no answer for one subset (default: the full result)."""
        return self._evaluate(key)


def _lp_verdict(solved: MCFResult) -> FeasibilityResult:
    return FeasibilityResult(
        feasible=solved.feasible, headroom=solved.lam, link_loads=solved.link_loads
    )


def _routed_verdict(outcome: RoutingOutcome, subnet: Network) -> FeasibilityResult:
    max_util = outcome.max_utilization(subnet)
    headroom = (1.0 / max_util) if max_util > 0 else float("inf")
    if not outcome.feasible:
        headroom = min(headroom, 0.0)
    return FeasibilityResult(
        feasible=outcome.feasible,
        headroom=headroom,
        link_loads=outcome.link_load_gbps if outcome.feasible else None,
    )


class MCFOracle(BaseOracle):
    """Exact feasibility via the max-concurrent-flow LP.

    Results come from :meth:`repro.netflow.model.McfModel.verdict` on a
    warm model shared process-wide by workload content: the 65+ subset
    queries a single selection makes — and every selection over the
    same (topology, TM) after it — reuse one pre-assembled LP and its
    memo instead of rebuilding it per call.  Subsets whose demand
    provably exceeds a node's incident cut capacity are answered without
    any LP solve; such verdicts carry ``headroom=0.0`` rather than the
    exact (sub-1) λ, which no consumer of infeasible verdicts reads.
    Yes/no questions (:meth:`feasible`) go to
    :meth:`~repro.netflow.model.McfModel.feasible`, which may also answer
    from an indexed earlier verdict or an earlier solve's certificate.
    Survivability verdicts are kept in the model's memo, so every
    constraint over the same workload content shares them
    (:meth:`~repro.netflow.model.McfModel.survivable`).
    """

    name = "mcf"

    def __init__(self, network: Network, tm: TrafficMatrix) -> None:
        super().__init__(network, tm)
        self._model = get_model(network, tm)

    def _evaluate(self, key: FrozenSet[str]) -> FeasibilityResult:
        return _lp_verdict(self._model.verdict(key))

    def _feasible(self, key: FrozenSet[str]) -> bool:
        return self._model.feasible(key)

    def survivable(self, kind: int, links: FrozenSet[str], decide: Callable[[], bool]) -> bool:
        return self._model.survivable(kind, links, decide)


class PathOracle(BaseOracle):
    """Feasibility via the k-diverse-path LP, exact on fallback.

    The path LP is a restriction of the exact MCF, so its "feasible"
    verdicts are sound.  With ``exact_fallback`` (the default) the
    "infeasible" ones are re-checked on the warm node-arc model, making
    verdicts identical to :class:`MCFOracle` while the cheap path solve
    absorbs the common case; with ``exact_fallback=False`` the oracle is
    conservative like :class:`GreedyOracle` but LP-grade at splitting.
    """

    name = "path"

    def __init__(
        self,
        network: Network,
        tm: TrafficMatrix,
        *,
        k_paths: int = 4,
        exact_fallback: bool = True,
    ) -> None:
        super().__init__(network, tm)
        self._model = PathMcfModel(
            network, tm, k_paths=k_paths, exact_fallback=exact_fallback
        )

    @property
    def exact_fallbacks(self) -> int:
        return self._model.exact_fallbacks

    def _evaluate(self, key: FrozenSet[str]) -> FeasibilityResult:
        return _lp_verdict(self._model.solve(key))


class GreedyOracle(BaseOracle):
    """Heuristic feasibility via greedy multipath routing."""

    name = "greedy"

    def __init__(
        self,
        network: Network,
        tm: TrafficMatrix,
        *,
        max_paths_per_demand: int = 8,
    ) -> None:
        super().__init__(network, tm)
        self.max_paths_per_demand = max_paths_per_demand

    def _evaluate(self, key: FrozenSet[str]) -> FeasibilityResult:
        subnet = self.network.restricted_to_links(key)
        outcome = route_greedy_multipath(
            subnet, self.tm, max_paths_per_demand=self.max_paths_per_demand
        )
        return _routed_verdict(outcome, subnet)


class ShortestPathOracle(BaseOracle):
    """Most conservative: single shortest path per demand, no splitting."""

    name = "sp"

    def _evaluate(self, key: FrozenSet[str]) -> FeasibilityResult:
        subnet = self.network.restricted_to_links(key)
        return _routed_verdict(route_shortest_path(subnet, self.tm), subnet)


_ORACLES: Dict[str, Callable[..., BaseOracle]] = {
    "mcf": MCFOracle,
    "path": PathOracle,
    "greedy": GreedyOracle,
    "sp": ShortestPathOracle,
}


def make_oracle(engine: str, network: Network, tm: TrafficMatrix, **kwargs) -> BaseOracle:
    """Factory: ``engine`` is one of ``"mcf"``, ``"path"``, ``"greedy"``, ``"sp"``."""
    try:
        cls = _ORACLES[engine]
    except KeyError:
        raise FlowError(
            f"unknown feasibility engine {engine!r}; expected one of {sorted(_ORACLES)}"
        ) from None
    return cls(network, tm, **kwargs)
