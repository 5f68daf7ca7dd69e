"""Tests for Constraints #1/#2/#3."""

import dataclasses

import pytest

from repro.exceptions import FlowError
from repro.auction.constraints import (
    PrimaryPathSurvivability,
    SingleLinkSurvivability,
    TrafficConstraint,
    make_constraint,
)
from repro.netflow.failures import primary_path_failures
from repro.netflow.model import get_model, model_cache
from repro.resilience.chaos import micro_scenario
from repro.traffic.matrix import TrafficMatrix

from tests.conftest import square_network


@pytest.fixture
def net():
    return square_network()


@pytest.fixture
def light_tm():
    return TrafficMatrix.from_dict(["A", "C"], {("A", "C"): 3.0})


class TestFactory:
    def test_numbers(self, net, light_tm):
        assert isinstance(make_constraint(1, net, light_tm), TrafficConstraint)
        assert isinstance(make_constraint(2, net, light_tm), SingleLinkSurvivability)
        assert isinstance(make_constraint(3, net, light_tm), PrimaryPathSurvivability)

    def test_unknown_number(self, net, light_tm):
        with pytest.raises(FlowError):
            make_constraint(4, net, light_tm)

    def test_names(self, net, light_tm):
        assert make_constraint(1, net, light_tm).name == "constraint-1"
        assert make_constraint(2, net, light_tm).name == "constraint-2"
        assert make_constraint(3, net, light_tm).name == "constraint-3"


class TestConstraint1:
    def test_satisfied_by_capacity(self, net, light_tm):
        c = make_constraint(1, net, light_tm)
        assert c.satisfied(net.link_ids)
        assert c.satisfied(["AC"])  # 3 <= 5 direct

    def test_unsatisfied_when_cut(self, net, light_tm):
        c = make_constraint(1, net, light_tm)
        assert not c.satisfied(["AB"])  # no path A->C


class TestConstraint2:
    def test_ring_survives_single_failure(self, net, light_tm):
        c = make_constraint(2, net, light_tm)
        # Ring only: two disjoint A->C paths of 10G each; 3G survives any
        # one link failure.
        assert c.satisfied(["AB", "BC", "CD", "DA"])

    def test_single_path_fails(self, net, light_tm):
        c = make_constraint(2, net, light_tm)
        # Just the diagonal: its own failure kills the demand.
        assert not c.satisfied(["AC"])

    def test_stricter_than_constraint1(self, net, light_tm):
        c1 = make_constraint(1, net, light_tm)
        c2 = make_constraint(2, net, light_tm)
        for subset in (["AC"], ["AB", "BC"], ["AB", "BC", "CD", "DA"], net.link_ids):
            if c2.satisfied(subset):
                assert c1.satisfied(subset)

    def test_capacity_matters_not_just_connectivity(self, net):
        heavy = TrafficMatrix.from_dict(["A", "C"], {("A", "C"): 17.0})
        c1 = make_constraint(1, net, heavy)
        c2 = make_constraint(2, net, heavy)
        # 17G fits the intact network (25G of A->C capacity) but cannot
        # survive losing AB: the remainder is AC(5) + A-D-C(10) = 15G.
        assert c1.satisfied(net.link_ids)
        assert not c2.satisfied(net.link_ids)


class TestConstraint3:
    def test_primary_path_failure_survived(self, net, light_tm):
        c = make_constraint(3, net, light_tm)
        # Full set: A-C primary is the diagonal; ring still carries 3G.
        assert c.satisfied(net.link_ids)

    def test_unsatisfied_without_alternates(self, net, light_tm):
        c = make_constraint(3, net, light_tm)
        assert not c.satisfied(["AC"])

    def test_stricter_than_constraint1(self, net, light_tm):
        c1 = make_constraint(1, net, light_tm)
        c3 = make_constraint(3, net, light_tm)
        for subset in (["AC"], ["AB", "BC"], ["AB", "BC", "CD", "DA"], net.link_ids):
            if c3.satisfied(subset):
                assert c1.satisfied(subset)


class TestOracleSharing:
    def test_evaluations_counted(self, net, light_tm):
        # An earlier test may already have decided this workload's
        # Constraint #2 verdict in the shared model memo.
        model_cache().clear()
        c = make_constraint(2, net, light_tm)
        before = c.oracle_evaluations
        c.satisfied(net.link_ids)
        assert c.oracle_evaluations > before

    def test_repeat_check_uses_cache(self, net, light_tm):
        c = make_constraint(2, net, light_tm)
        c.satisfied(net.link_ids)
        evals = c.oracle_evaluations
        c.satisfied(net.link_ids)
        assert c.oracle_evaluations == evals  # fully cached

    def test_engines_agree_on_easy_instances(self, net, light_tm):
        for number in (1, 2, 3):
            verdicts = {
                engine: make_constraint(number, net, light_tm, engine=engine).satisfied(
                    net.link_ids
                )
                for engine in ("mcf", "greedy")
            }
            # Greedy is conservative: it may reject what MCF accepts, but
            # never the reverse.
            if verdicts["greedy"]:
                assert verdicts["mcf"]


def _with_length(net, link_id, length_km):
    """``net`` with one link's length changed (in place)."""
    link = net.remove_link(link_id)
    net.add_link(dataclasses.replace(link, length_km=length_km))
    return net


class TestSharedVerdicts:
    """Constraint #2/#3 verdicts live in the warm model's memo."""

    def test_identical_workload_reuses_verdict(self):
        model_cache().clear()
        first_net, _offers, first_tm = micro_scenario(0)
        first = make_constraint(3, first_net, first_tm)
        verdict = first.satisfied(first_net.link_ids)
        assert first.oracle_evaluations > 0
        # Built separately, content-identical: the verdict is shared.
        net, _offers, tm = micro_scenario(0)
        assert net is not first_net
        second = make_constraint(3, net, tm)
        assert second.satisfied(net.link_ids) == verdict
        assert second.oracle_evaluations == 0

    def test_moved_primary_path_gets_own_memo(self):
        model_cache().clear()
        net, _offers, tm = micro_scenario(0)
        moved = _with_length(micro_scenario(0)[0], "BC", 2000.0)
        assert list(primary_path_failures(moved, moved.link_ids)) != list(
            primary_path_failures(net, net.link_ids)
        )
        assert get_model(moved, tm) is not get_model(net, tm)
        full = frozenset(net.link_ids)
        subsets = [full, full - {"BC"}, full - {"CD", "CG", "ext:VL001"}]
        original = [make_constraint(3, net, tm).satisfied(s) for s in subsets]
        warm = [make_constraint(3, moved, tm).satisfied(s) for s in subsets]
        model_cache().clear()
        cold = [make_constraint(3, moved, tm).satisfied(s) for s in subsets]
        assert warm == cold
        # The move changes a verdict, so sharing across it would show.
        assert warm != original

    def test_hits_counted_apart_and_cleared(self):
        model_cache().clear()
        net, _offers, tm = micro_scenario(0)
        verdict = make_constraint(2, net, tm).satisfied(net.link_ids)
        model = get_model(net, tm)
        before = (model.memo_hits, model.solves, model.certified, model.cut_shortcircuits)
        again = make_constraint(2, net, tm)
        assert again.satisfied(net.link_ids) == verdict
        assert model.survival_hits == 1
        assert (model.memo_hits, model.solves, model.certified,
                model.cut_shortcircuits) == before
        model.clear_memo()
        fresh = make_constraint(2, net, tm)
        assert fresh.satisfied(net.link_ids) == verdict
        assert fresh.oracle_evaluations > 0
        assert model.survival_hits == 1

    def test_constraints_keep_separate_verdicts(self, net, light_tm):
        model_cache().clear()
        make_constraint(2, net, light_tm).satisfied(net.link_ids)
        c3 = make_constraint(3, net, light_tm)
        c3.satisfied(net.link_ids)
        assert c3.oracle_evaluations > 0
        assert get_model(net, light_tm).survival_hits == 0

    @pytest.mark.parametrize("engine", ["greedy", "sp", "path"])
    def test_other_engines_remember_nothing(self, net, light_tm, engine):
        for number in (2, 3):
            make_constraint(number, net, light_tm, engine=engine).satisfied(net.link_ids)
            again = make_constraint(number, net, light_tm, engine=engine)
            again.satisfied(net.link_ids)
            assert again.oracle_evaluations > 0
