"""Tests for min-cost link-set selection."""

import pytest

from repro.exceptions import AuctionError, NoFeasibleSelectionError
from repro.auction.bids import AdditiveCost
from repro.auction.constraints import make_constraint
from repro.auction.provider import Offer
from repro.auction.selection import (
    ENGINES,
    per_provider_cost,
    select_links,
    total_declared_cost,
)
from repro.traffic.matrix import TrafficMatrix

from tests.conftest import square_network, square_offers, square_tm


@pytest.fixture
def setup():
    net = square_network()
    offers = square_offers(net)
    tm = TrafficMatrix.from_dict(["A", "C"], {("A", "C"): 3.0})
    constraint = make_constraint(1, net, tm)
    return net, offers, constraint


class TestCostHelpers:
    def test_total_declared_cost(self, setup):
        _net, offers, _c = setup
        assert total_declared_cost(offers, ["AB", "AC"]) == 160.0
        assert total_declared_cost(offers, []) == 0.0

    def test_orphan_links_rejected(self, setup):
        _net, offers, _c = setup
        with pytest.raises(AuctionError):
            total_declared_cost(offers, ["nope"])

    def test_per_provider_cost(self, setup):
        _net, offers, _c = setup
        costs = per_provider_cost(offers, ["AB", "BC", "AC"])
        assert costs == {"P": 200.0, "Q": 60.0}


class TestGreedyDrop:
    def test_minimal_for_single_demand(self, setup):
        _net, offers, constraint = setup
        outcome = select_links(offers, constraint, method="greedy-drop")
        # Cheapest way to carry 3G A->C is the 60-unit diagonal alone.
        assert outcome.selected == frozenset({"AC"})
        assert outcome.total_cost == 60.0

    def test_infeasible_raises(self):
        net = square_network()
        offers = square_offers(net)
        tm = TrafficMatrix.from_dict(["A", "C"], {("A", "C"): 100.0})
        constraint = make_constraint(1, net, tm)
        with pytest.raises(NoFeasibleSelectionError):
            select_links(offers, constraint)

    def test_exclude_provider(self, setup):
        _net, offers, constraint = setup
        outcome = select_links(offers, constraint, exclude_providers=("Q",))
        assert "AC" not in outcome.selected
        # Must route around the ring: two links minimum.
        assert len(outcome.selected) == 2
        assert outcome.total_cost == 200.0

    def test_exclude_all_raises(self, setup):
        _net, offers, constraint = setup
        with pytest.raises(NoFeasibleSelectionError):
            select_links(offers, constraint, exclude_providers=("P", "Q"))

    def test_deterministic(self, setup):
        _net, offers, constraint = setup
        a = select_links(offers, constraint)
        b = select_links(offers, constraint)
        assert a.selected == b.selected


class TestEngineConsistency:
    @pytest.mark.parametrize("method", ENGINES)
    def test_all_engines_feasible_and_sane(self, setup, method):
        _net, offers, constraint = setup
        outcome = select_links(offers, constraint, method=method)
        assert constraint.satisfied(outcome.selected)
        assert outcome.total_cost <= total_declared_cost(
            offers, [l for o in offers for l in o.link_ids]
        )
        assert outcome.engine == method

    @pytest.mark.parametrize("method", [m for m in ENGINES if m != "milp"])
    def test_survivable_selection(self, method):
        net = square_network()
        offers = square_offers(net)
        tm = TrafficMatrix.from_dict(["A", "C"], {("A", "C"): 3.0})
        constraint = make_constraint(2, net, tm)
        outcome = select_links(offers, constraint, method=method)
        assert constraint.satisfied(outcome.selected)
        # Survivability needs at least two disjoint A->C routes.
        assert len(outcome.selected) >= 3

    def test_milp_rejects_survivability_constraints(self):
        net = square_network()
        offers = square_offers(net)
        tm = TrafficMatrix.from_dict(["A", "C"], {("A", "C"): 3.0})
        constraint = make_constraint(2, net, tm)
        with pytest.raises(AuctionError):
            select_links(offers, constraint, method="milp")

    def test_milp_matches_or_beats_heuristics(self, setup):
        _net, offers, constraint = setup
        exact = select_links(offers, constraint, method="milp")
        for method in ("greedy-drop", "add-prune", "local-search"):
            heuristic = select_links(offers, constraint, method=method)
            assert exact.total_cost <= heuristic.total_cost + 1e-9

    def test_unknown_method(self, setup):
        _net, offers, constraint = setup
        with pytest.raises(AuctionError):
            select_links(offers, constraint, method="annealing")

    def test_local_search_no_worse_than_greedy(self, setup):
        _net, offers, constraint = setup
        greedy = select_links(offers, constraint, method="greedy-drop")
        local = select_links(offers, constraint, method="local-search")
        assert local.total_cost <= greedy.total_cost + 1e-9


class TestPrefixEngine:
    def test_minimal_prefix_for_single_demand(self, setup):
        _net, offers, constraint = setup
        # The 60-unit diagonal is the cheapest ranked link and alone
        # carries the demand, so the binary search stops at prefix 1.
        outcome = select_links(offers, constraint, method="prefix")
        assert outcome.selected == frozenset({"AC"})
        assert outcome.total_cost == 60.0

    def test_prefix_contains_add_prune_selection(self, setup):
        _net, offers, constraint = setup
        prefix = select_links(offers, constraint, method="prefix")
        pruned = select_links(offers, constraint, method="add-prune")
        # add-prune starts from the prefix and only drops, so its
        # selection is a subset and never costs more.
        assert pruned.selected <= prefix.selected
        assert pruned.total_cost <= prefix.total_cost + 1e-9

    def test_logarithmic_oracle_call_count(self, tiny_zoo):
        from repro.experiments.pipeline import offers_for_zoo, traffic_for_zoo

        tm = traffic_for_zoo(tiny_zoo)
        offers = offers_for_zoo(tiny_zoo)
        constraint = make_constraint(1, tiny_zoo.offered, tm)
        outcome = select_links(offers, constraint, method="prefix")
        assert constraint.satisfied(outcome.selected)
        # 1 full-universe check + ceil(log2(n)) bisection probes.
        n = tiny_zoo.num_logical_links
        bound = 2 + n.bit_length()
        assert outcome.oracle_evaluations <= bound

    def test_infeasible_raises(self):
        net = square_network()
        offers = square_offers(net)
        tm = TrafficMatrix.from_dict(["A", "C"], {("A", "C"): 100.0})
        constraint = make_constraint(1, net, tm)
        with pytest.raises(NoFeasibleSelectionError):
            select_links(offers, constraint, method="prefix")


class TestSelectionOnZoo:
    def test_tiny_zoo_constraint1(self, tiny_zoo):
        from repro.experiments.pipeline import offers_for_zoo, traffic_for_zoo

        tm = traffic_for_zoo(tiny_zoo)
        offers = offers_for_zoo(tiny_zoo)
        constraint = make_constraint(1, tiny_zoo.offered, tm)
        outcome = select_links(offers, constraint, method="add-prune")
        assert constraint.satisfied(outcome.selected)
        # Selection should prune a meaningful share of the universe.
        assert len(outcome.selected) < tiny_zoo.num_logical_links
        assert outcome.total_cost > 0
        assert outcome.oracle_evaluations > 0

    def test_provider_links_partition(self, tiny_zoo):
        from repro.experiments.pipeline import offers_for_zoo, traffic_for_zoo

        tm = traffic_for_zoo(tiny_zoo)
        offers = offers_for_zoo(tiny_zoo)
        constraint = make_constraint(1, tiny_zoo.offered, tm)
        outcome = select_links(offers, constraint, method="add-prune")
        by_provider = outcome.provider_links(offers)
        combined = frozenset().union(*by_provider.values())
        assert combined == outcome.selected


class TestMilpTimeout:
    """The MILP wrapper surfaces budget exhaustion as SolverTimeoutError."""

    class _StalledResult:
        status = 1  # HiGHS: iteration/time limit reached
        x = None  # ... before any incumbent was found
        message = "time limit reached"

    class _IncumbentResult(_StalledResult):
        """The limit fired after HiGHS found an incumbent ``x``."""

        def __init__(self, x):
            self.x = x

    @staticmethod
    def _registry(monkeypatch):
        import repro.auction.milp as milp_mod
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        monkeypatch.setattr(milp_mod, "metrics", lambda: registry)
        return registry

    def test_no_incumbent_raises_solver_timeout(self, setup, monkeypatch):
        import repro.auction.milp as milp_mod
        from repro.exceptions import SolverTimeoutError

        monkeypatch.setattr(
            milp_mod, "milp", lambda *a, **k: self._StalledResult()
        )
        _net, offers, constraint = setup
        with pytest.raises(SolverTimeoutError) as ei:
            select_links(
                offers, constraint, method="milp", milp_time_limit_s=0.001
            )
        assert ei.value.solver == "milp"
        assert ei.value.limit_s == 0.001
        assert "time limit" in str(ei.value)

    def test_unbounded_run_reports_inf_limit(self, setup, monkeypatch):
        import repro.auction.milp as milp_mod
        from repro.exceptions import SolverTimeoutError

        monkeypatch.setattr(
            milp_mod, "milp", lambda *a, **k: self._StalledResult()
        )
        _net, offers, constraint = setup
        with pytest.raises(SolverTimeoutError) as ei:
            select_links(offers, constraint, method="milp")
        assert ei.value.limit_s == float("inf")

    def test_timeout_propagates_through_vcg(self, setup, monkeypatch):
        import repro.auction.milp as milp_mod
        from repro.auction.vcg import AuctionConfig, run_auction
        from repro.exceptions import SolverTimeoutError

        monkeypatch.setattr(
            milp_mod, "milp", lambda *a, **k: self._StalledResult()
        )
        _net, offers, constraint = setup
        cfg = AuctionConfig(method="milp", milp_time_limit_s=0.5)
        with pytest.raises(SolverTimeoutError):
            run_auction(offers, constraint, config=cfg)

    def test_generous_limit_still_solves(self, setup):
        _net, offers, constraint = setup
        outcome = select_links(
            offers, constraint, method="milp", milp_time_limit_s=60.0
        )
        assert outcome.selected == frozenset({"AC"})

    def test_incumbent_at_limit_is_returned_and_counted(self, setup, monkeypatch):
        import repro.auction.milp as milp_mod

        registry = self._registry(monkeypatch)
        real = milp_mod.milp
        monkeypatch.setattr(
            milp_mod, "milp", lambda *a, **k: self._IncumbentResult(real(*a, **k).x)
        )
        _net, offers, constraint = setup
        outcome = select_links(
            offers, constraint, method="milp", milp_time_limit_s=0.001
        )
        assert outcome.selected == frozenset({"AC"})
        assert registry.counter("milp.solves") == 1
        assert registry.counter("milp.time_limited") == 1

    def test_no_incumbent_is_not_counted_as_time_limited(self, setup, monkeypatch):
        import repro.auction.milp as milp_mod
        from repro.exceptions import SolverTimeoutError

        registry = self._registry(monkeypatch)
        monkeypatch.setattr(
            milp_mod, "milp", lambda *a, **k: self._StalledResult()
        )
        _net, offers, constraint = setup
        with pytest.raises(SolverTimeoutError):
            select_links(offers, constraint, method="milp", milp_time_limit_s=0.001)
        assert registry.counter("milp.solves") == 1
        assert registry.counter("milp.time_limited") == 0

    def test_proven_optimum_is_not_counted_as_time_limited(self, setup, monkeypatch):
        registry = self._registry(monkeypatch)
        _net, offers, constraint = setup
        select_links(offers, constraint, method="milp", milp_time_limit_s=60.0)
        assert registry.counter("milp.solves") == 1
        assert registry.counter("milp.time_limited") == 0
