"""Regression tests for the warm-started MCF model and its caches.

Complements ``tests/property/test_prop_warm_mcf.py`` (the 200-case
byte-identity sweep) with targeted checks: memo/state isolation between
subsets, the direct HiGHS path, the cut short circuit's soundness, and
the process-wide content-addressed model cache.  "Cold" results come
from the ``linprog`` reference in ``tests/netflow/reference_mcf.py``.
"""

import pytest

import repro.netflow.model as model_module
from repro.exceptions import FlowError, UnknownLinkError
from repro.netflow.mcf import LAMBDA_CAP, mcf_feasible
from repro.netflow.model import McfModel, ModelCache, get_model, model_cache
from repro.topology.graph import Link, Network, Node
from repro.traffic.matrix import TrafficMatrix

from tests.netflow.reference_mcf import reference_max_concurrent_flow


def diamond_network():
    """Four nodes, five links — enough structure for distinct subsets."""
    net = Network(name="diamond")
    for n in ("A", "B", "C", "D"):
        net.add_node(Node(id=n))
    net.add_link(Link(id="AB", u="A", v="B", capacity_gbps=10.0, length_km=100.0))
    net.add_link(Link(id="BC", u="B", v="C", capacity_gbps=10.0, length_km=100.0))
    net.add_link(Link(id="CD", u="C", v="D", capacity_gbps=10.0, length_km=100.0))
    net.add_link(Link(id="DA", u="D", v="A", capacity_gbps=10.0, length_km=100.0))
    net.add_link(Link(id="AC", u="A", v="C", capacity_gbps=4.0, length_km=150.0))
    return net


def diamond_tm(scale=1.0):
    return TrafficMatrix.from_dict(
        ["A", "B", "C", "D"],
        {("A", "C"): 3.0 * scale, ("B", "D"): 2.0 * scale},
    )


class TestSolveApi:
    def test_default_solves_full_network(self):
        net, tm = diamond_network(), diamond_tm()
        model = McfModel(net, tm)
        cold = reference_max_concurrent_flow(net.restricted_to_links(net.link_ids), tm)
        warm = model.solve()
        assert warm.lam == cold.lam
        assert warm.link_loads == cold.link_loads

    def test_unknown_link_raises(self):
        model = McfModel(diamond_network(), diamond_tm())
        with pytest.raises(UnknownLinkError):
            model.solve({"AB", "nope"})

    def test_empty_subset_infeasible(self):
        model = McfModel(diamond_network(), diamond_tm())
        result = model.solve(frozenset())
        assert not result.feasible
        assert result.lam == 0.0
        assert not model.feasible(frozenset())

    def test_empty_tm_always_feasible(self):
        net = diamond_network()
        tm = TrafficMatrix.from_dict(["A", "B", "C", "D"], {})
        model = McfModel(net, tm)
        assert model.feasible(frozenset())
        assert model.solve({"AB"}).lam == LAMBDA_CAP

    def test_keep_flows_detail_matches_cold_path(self):
        net, tm = diamond_network(), diamond_tm()
        subset = frozenset({"AB", "BC", "CD", "DA"})
        warm = McfModel(net, tm).solve(subset, keep_flows=True)
        cold = reference_max_concurrent_flow(
            net.restricted_to_links(subset), tm, keep_flows=True
        )
        assert warm.arcs == cold.arcs
        assert warm.arc_flows == cold.arc_flows


class TestMemoIsolation:
    def test_cache_hit_never_leaks_between_subsets(self):
        """The memo must key on the exact subset: A's entry is A's alone."""
        net, tm = diamond_network(), diamond_tm()
        model = McfModel(net, tm)
        sub_a = frozenset({"AB", "BC", "CD", "DA"})
        sub_b = frozenset({"AB", "BC", "CD", "DA", "AC"})
        first_a = model.solve(sub_a)
        first_b = model.solve(sub_b)
        assert first_a.lam != first_b.lam  # distinct answers to distinct subsets
        again_a = model.solve(sub_a)
        again_b = model.solve(sub_b)
        assert model.memo_hits == 2
        assert again_a is first_a
        assert again_b is first_b
        # And both still equal a model that never saw the other subset.
        assert McfModel(net, tm).solve(sub_a).lam == first_a.lam
        assert McfModel(net, tm).solve(sub_b).lam == first_b.lam

    def test_keep_flows_memoized_separately(self):
        model = McfModel(diamond_network(), diamond_tm())
        plain = model.solve({"AB", "BC"})
        detailed = model.solve({"AB", "BC"}, keep_flows=True)
        assert plain.arc_flows is None
        assert detailed.arc_flows is not None
        assert plain.lam == detailed.lam

    def test_memo_bound_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(model_module, "MEMO_SIZE", 2)
        net, tm = diamond_network(), diamond_tm()
        model = McfModel(net, tm)
        model.solve({"AB", "BC", "CD", "DA"})
        model.solve({"AB", "BC", "CD", "DA", "AC"})
        model.solve({"AB", "BC", "CD"})  # evicts the first entry
        assert len(model._memo) == 2
        solves_before = model.solves
        model.solve({"AB", "BC", "CD", "DA"})  # re-solved, not remembered
        assert model.solves == solves_before + 1

    def test_feasible_hits_refresh_recency(self, monkeypatch):
        """A subset only ever asked through feasible() must not age out."""
        monkeypatch.setattr(model_module, "MEMO_SIZE", 2)
        net, tm = diamond_network(), diamond_tm()
        model = McfModel(net, tm)
        ring = frozenset({"AB", "BC", "CD", "DA"})
        assert model.feasible(ring)
        model.feasible(net.link_ids)
        model.feasible(ring)  # a hit: ring is now the most recent entry
        model.feasible({"AB", "BC", "CD", "AC"})  # evicts the full set
        solves_before = model.solves
        assert model.feasible(ring)
        assert model.solves == solves_before

    def test_memo_answers_before_cut_test(self, monkeypatch):
        """A memoized subset is answered without running the cut test."""
        model = McfModel(diamond_network(), diamond_tm())
        ring = frozenset({"AB", "BC", "CD", "DA"})
        model.solve(ring)
        monkeypatch.setattr(model, "cut_infeasible", None)  # would raise if called
        assert model.verdict(ring) is model.solve(ring)

    def test_clear_memo(self):
        model = McfModel(diamond_network(), diamond_tm())
        model.solve()
        model.clear_memo()
        solves_before = model.solves
        model.solve()
        assert model.solves == solves_before + 1


class TestSurvivabilityVerdicts:
    """Constraint #2/#3 verdicts kept in the model memo (``survivable``)."""

    KINDS = (model_module.SINGLE_LINK_SURVIVABLE, model_module.PRIMARY_PATH_SURVIVABLE)

    def test_decided_once_per_kind_and_subset(self):
        model = McfModel(diamond_network(), diamond_tm())
        ring = frozenset({"AB", "BC", "CD", "DA"})
        decided = []

        def decide(verdict):
            def run():
                decided.append(verdict)
                return verdict
            return run

        single, primary = self.KINDS
        assert model.survivable(single, ring, decide(False)) is False
        assert model.survivable(single, ring, decide(True)) is False  # remembered
        assert model.survivable(primary, ring, decide(True)) is True  # own kind
        assert model.survivable(single, {"AB"}, decide(True)) is True  # own subset
        assert decided == [False, True, True]
        assert model.survival_hits == 1
        assert (model.memo_hits, model.solves) == (0, 0)

    def test_never_read_as_a_solve_or_certified_answer(self):
        model = McfModel(diamond_network(), diamond_tm())
        ring = frozenset({"AB", "BC", "CD", "DA"})
        for kind in self.KINDS:
            model.survivable(kind, ring, lambda: False)
        assert model.feasible(ring)
        assert model.solve(ring).feasible
        assert model.survival_hits == 0

    def test_unknown_kind_rejected(self):
        model = McfModel(diamond_network(), diamond_tm())
        with pytest.raises(FlowError):
            model.survivable(0, {"AB"}, lambda: True)  # would clobber a solve

    def test_shares_the_memo_bound(self, monkeypatch):
        monkeypatch.setattr(model_module, "MEMO_SIZE", 2)
        model = McfModel(diamond_network(), diamond_tm())
        single, _primary = self.KINDS
        model.survivable(single, {"AB"}, lambda: True)
        model.solve({"AB", "BC"})
        model.solve({"AB", "BC", "CD"})  # evicts the verdict
        assert len(model._memo) == 2
        assert model.survivable(single, {"AB"}, lambda: False) is False
        assert model.survival_hits == 0

    def test_clear_memo_drops_verdicts(self):
        model = McfModel(diamond_network(), diamond_tm())
        single, _primary = self.KINDS
        model.survivable(single, {"AB"}, lambda: True)
        model.clear_memo()
        assert model.survivable(single, {"AB"}, lambda: False) is False
        assert model.survival_hits == 0


class TestVerdictIndex:
    """Robust verdicts answer containing and contained subsets (``_indexed``)."""

    def test_subset_of_a_cut_refused_set_comes_from_the_index(self):
        net = diamond_network()
        tm = TrafficMatrix.from_dict(["A", "B", "C", "D"], {("A", "C"): 30.0})
        model = McfModel(net, tm)
        assert not model.feasible({"AB", "DA", "AC"})  # C keeps only AC: cut 4 < 30
        assert not model.feasible({"AB", "AC"})  # inside it: no second cut test
        assert (model.cut_shortcircuits, model.certified, model.solves) == (1, 1, 0)
        assert not reference_max_concurrent_flow(
            net.restricted_to_links({"AB", "AC"}), tm
        ).feasible

    @pytest.mark.parametrize("capacity", [4.0 * (1.0 - 5e-5), 4.0, 4.0 * (1.0 + 5e-5)])
    def test_lp_verdict_inside_the_margin_band_is_not_indexed(self, capacity):
        """λ = capacity / demand lies within the margin of 1, either side."""
        net = Network(name="band")
        for n in ("A", "B", "C", "D"):
            net.add_node(Node(id=n))
        net.add_link(Link(id="AB", u="A", v="B", capacity_gbps=capacity, length_km=1.0))
        net.add_link(Link(id="CD", u="C", v="D", capacity_gbps=1.0, length_km=1.0))
        tm = TrafficMatrix.from_dict(["A", "B", "C", "D"], {("A", "B"): 4.0})
        model = McfModel(net, tm)
        margin = model_module._CUT_MARGIN
        assert 1.0 - margin < model.solve({"AB"}).lam < 1.0 / (1.0 - margin)
        assert model._robust_feasible == [] and model._robust_infeasible == []
        # So a superset is not inferred from it: the LP decides.
        assert model.feasible(net.link_ids) == (capacity >= 4.0)
        assert (model.solves, model.certified) == (2, 0)

    def test_antichains_keep_only_the_strongest_verdicts(self):
        model = McfModel(diamond_network(), diamond_tm())
        ring = model._subset({"AB", "BC", "CD", "DA"}).mask
        full, path, ab, bc = (
            model._subset(links).mask
            for links in (model.network.link_ids, {"AB", "BC"}, {"AB"}, {"BC"})
        )
        model._index(full, True)
        model._index(ring, True)  # a smaller feasible set evicts its superset
        model._index(full, True)  # implied by the ring: adds nothing
        assert model._robust_feasible == [ring]
        model._index(ab, False)
        model._index(bc, False)
        model._index(path, False)  # a larger infeasible set evicts its subsets
        assert model._robust_infeasible == [full ^ path]
        assert model._indexed(full) is True
        assert model._indexed(ab) is False
        assert model._indexed(ab | model._subset({"CD"}).mask) is None

    def test_bound_evicts_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(model_module, "INDEX_SIZE", 2)
        model = McfModel(diamond_network(), diamond_tm())
        no_ac, no_cd, no_ab = (
            model._subset(set(model.network.link_ids) - {lid}).mask
            for lid in ("AC", "CD", "AB")
        )
        model._index(no_ac, True)
        model._index(no_cd, True)
        assert model._indexed(no_ac) is True  # used: now the most recent
        model._index(no_ab, True)  # evicts no_cd, the least recently used
        assert model._robust_feasible == [no_ab, no_ac]
        model._index(model._subset({"AB"}).mask, False)
        model.clear_memo()
        assert model._robust_feasible == [] and model._robust_infeasible == []


class TestKillSwitch:
    """There is none: every solve takes the direct HiGHS path."""

    def test_warm_path_used_by_default(self):
        model = McfModel(diamond_network(), diamond_tm())
        model.solve()
        assert model.fallback_solves == 0
        assert model.solves == 1


class TestCutShortCircuit:
    def test_short_circuit_fires_and_is_sound(self):
        """Dropping C's cheap incident cut must trip the egress test."""
        net = diamond_network()
        tm = TrafficMatrix.from_dict(
            ["A", "B", "C", "D"], {("A", "C"): 30.0}
        )
        model = McfModel(net, tm)
        subset = frozenset({"AB", "DA", "AC"})  # C keeps only AC: cut 4 < 30
        assert model.cut_infeasible(subset)
        assert not model.feasible(subset)
        assert model.cut_shortcircuits == 1
        # Soundness: the LP agrees.
        assert not reference_max_concurrent_flow(
            net.restricted_to_links(subset), tm
        ).feasible

    def test_short_circuit_never_fires_on_feasible_subsets(self):
        net, tm = diamond_network(), diamond_tm()
        model = McfModel(net, tm)
        assert not model.cut_infeasible(net.link_ids)
        assert model.feasible()
        assert model.cut_shortcircuits == 0

    def test_unknown_link_raises_typed_error(self):
        model = McfModel(diamond_network(), diamond_tm())
        with pytest.raises(UnknownLinkError, match="nope"):
            model.cut_infeasible({"AB", "nope"})


class TestModelCache:
    def test_content_key_shares_models_across_rebuilds(self):
        cache = ModelCache(maxsize=4)
        tm = diamond_tm()
        model_a = cache.get(diamond_network(), tm)
        model_b = cache.get(diamond_network(), tm)  # fresh but identical net
        assert model_a is model_b
        assert cache.hits == 1 and cache.misses == 1

    def test_different_tm_gets_different_model(self):
        cache = ModelCache(maxsize=4)
        net = diamond_network()
        model_a = cache.get(net, diamond_tm())
        model_b = cache.get(net, diamond_tm(scale=2.0))
        assert model_a is not model_b
        assert cache.misses == 2

    def test_mutated_network_fingerprints_differently(self):
        cache = ModelCache(maxsize=4)
        net = diamond_network()
        tm = diamond_tm()
        model_a = cache.get(net, tm)
        net.add_link(Link(id="BD", u="B", v="D", capacity_gbps=5.0, length_km=10.0))
        model_b = cache.get(net, tm)
        assert model_a is not model_b

    def test_lru_bound(self):
        cache = ModelCache(maxsize=2)
        tm = diamond_tm()
        nets = []
        for cap in (1.0, 2.0, 3.0):
            net = diamond_network()
            net.add_link(Link(id="X", u="A", v="B", capacity_gbps=cap, length_km=1.0))
            nets.append(net)
            cache.get(net, tm)
        assert len(cache) == 2
        cache.get(nets[0], tm)  # evicted: rebuilt as a miss
        assert cache.misses == 4

    def test_process_wide_cache_backs_mcf_feasible(self):
        net, tm = diamond_network(), diamond_tm()
        hits_before = model_cache().hits
        assert mcf_feasible(net, tm)
        assert mcf_feasible(net, tm)  # same content: must hit the cache
        assert model_cache().hits > hits_before
        assert get_model(net, tm).memo_hits >= 1
