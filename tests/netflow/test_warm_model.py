"""Regression tests for the warm-started MCF model and its caches.

Complements ``tests/property/test_prop_warm_mcf.py`` (the 200-case
byte-identity sweep) with targeted checks: memo/state isolation between
subsets, the direct HiGHS path, the cut short circuit's soundness, and
the process-wide content-addressed model cache.  "Cold" results come
from the ``linprog`` reference in ``tests/netflow/reference_mcf.py``.
"""

import pytest

import repro.netflow.model as model_module
from repro.exceptions import UnknownLinkError
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
