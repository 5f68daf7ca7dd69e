"""Tests for the feasibility oracles and their caching."""

import pytest

from repro.exceptions import FlowError, UnknownLinkError
from repro.netflow.feasibility import (
    GreedyOracle,
    MCFOracle,
    ShortestPathOracle,
    make_oracle,
)
from repro.traffic.matrix import TrafficMatrix

from tests.conftest import square_network


@pytest.fixture
def net():
    return square_network()


@pytest.fixture
def tm():
    return TrafficMatrix.from_dict(["A", "C"], {("A", "C"): 8.0})


class TestFactory:
    def test_known_engines(self, net, tm):
        assert isinstance(make_oracle("mcf", net, tm), MCFOracle)
        assert isinstance(make_oracle("greedy", net, tm), GreedyOracle)
        assert isinstance(make_oracle("sp", net, tm), ShortestPathOracle)

    def test_unknown_engine(self, net, tm):
        with pytest.raises(FlowError):
            make_oracle("magic", net, tm)


class TestVerdicts:
    def test_mcf_splits(self, net, tm):
        oracle = MCFOracle(net, tm)
        assert oracle.feasible(net.link_ids)

    def test_sp_conservative(self, net, tm):
        oracle = ShortestPathOracle(net, tm)
        # 8G on the 5G diagonal without splitting: infeasible.
        assert not oracle.feasible(net.link_ids)

    def test_greedy_splits(self, net, tm):
        oracle = GreedyOracle(net, tm)
        assert oracle.feasible(net.link_ids)

    def test_subset_evaluation(self, net, tm):
        oracle = MCFOracle(net, tm)
        # Ring only (no diagonal): 8G A->C over two 10G paths: feasible.
        assert oracle.feasible(["AB", "BC", "CD", "DA"])
        # One path of the ring alone: 8G <= 10G: feasible.
        assert oracle.feasible(["AB", "BC"])
        # Diagonal alone: 8 > 5: infeasible.
        assert not oracle.feasible(["AC"])

    def test_soundness_hierarchy(self, net):
        """sp feasible => greedy feasible => mcf feasible."""
        for load in (2.0, 4.0, 5.0, 8.0, 20.0, 26.0):
            tm = TrafficMatrix.from_dict(["A", "C"], {("A", "C"): load})
            sp = ShortestPathOracle(net, tm).feasible(net.link_ids)
            greedy = GreedyOracle(net, tm).feasible(net.link_ids)
            mcf = MCFOracle(net, tm).feasible(net.link_ids)
            if sp:
                assert greedy
            if greedy:
                assert mcf

    def test_headroom_sign(self, net):
        light = TrafficMatrix.from_dict(["A", "B"], {("A", "B"): 1.0})
        oracle = MCFOracle(net, light)
        res = oracle.check(net.link_ids)
        assert res.feasible
        assert res.headroom > 1.0

    def test_link_loads_exposed(self, net, tm):
        for engine in ("mcf", "greedy"):
            oracle = make_oracle(engine, net, tm)
            res = oracle.check(net.link_ids)
            assert res.feasible
            assert res.link_loads
            for lid, load in res.link_loads.items():
                assert load <= net.link(lid).capacity_gbps + 1e-6

    def test_loads_none_when_infeasible(self, net):
        tm = TrafficMatrix.from_dict(["A", "C"], {("A", "C"): 100.0})
        res = MCFOracle(net, tm).check(net.link_ids)
        assert not res.feasible
        assert res.link_loads is None


class TestUnknownLinks:
    @pytest.mark.parametrize("engine", ["mcf", "path", "greedy", "sp"])
    def test_unknown_link_raises_typed_error(self, net, tm, engine):
        oracle = make_oracle(engine, net, tm)
        with pytest.raises(UnknownLinkError, match="nope"):
            oracle.check({"AB", "nope"})


class TestCaching:
    def test_cache_hits(self, net, tm):
        oracle = MCFOracle(net, tm)
        oracle.check(net.link_ids)
        oracle.check(net.link_ids)
        oracle.check(list(reversed(net.link_ids)))  # same set, other order
        assert oracle.evaluations == 1
        assert oracle.cache_hits == 2

    def test_distinct_subsets_evaluated(self, net, tm):
        oracle = MCFOracle(net, tm)
        oracle.check(["AB", "BC"])
        oracle.check(["CD", "DA"])
        assert oracle.evaluations == 2

    def test_tm_validated_at_construction(self, net):
        bad_tm = TrafficMatrix.from_dict(["A", "Z"], {("A", "Z"): 1.0})
        from repro.exceptions import TrafficError

        with pytest.raises(TrafficError):
            MCFOracle(net, bad_tm)
