"""Property tests: certified yes/no answers always equal the LP's verdict.

:meth:`repro.netflow.model.McfModel.feasible` may answer from an earlier
solve's certificate instead of solving: a stored routing repaired onto
the new subset proves "feasible", stored capacity duals bound λ* below
1 and prove "infeasible".  Both are sound only if the routing repair
keeps every arc within its limit and the dual bound's shortest-path
distances are exact (zero-length arcs are edges, parallel arcs count
with the shortest one).  It may also answer from its verdict index: a
subset containing one proven feasible with margin, or inside one proven
infeasible with it.  These tests generate multigraphs that stress
exactly that: parallel links, equal capacities (so equal duals),
zero-length links, isolated nodes whose demand cannot arrive, and walk
drop sequences and random subsets through one model, comparing every
answer with the ``linprog`` reference on the restricted network.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.netflow.feasibility import MCFOracle
from repro.netflow.model import McfModel
from repro.topology.graph import Link, Network, Node
from repro.traffic.matrix import TrafficMatrix

from tests.netflow.reference_mcf import reference_max_concurrent_flow

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True)

CAPACITIES = (1.0, 2.5, 4.0, 4.0, 10.0)
LENGTHS = (0.0, 0.0, 50.0, 120.5)


@st.composite
def workloads(draw):
    """(network, tm, drop order, subsets): a multigraph and a TM near its limit."""
    n_nodes = draw(st.integers(3, 7))
    nodes = [f"n{i}" for i in range(n_nodes)]
    # The last node may stay isolated, so demand to it cannot arrive.
    wired = n_nodes - draw(st.integers(0, 1))
    net = Network(name="cert")
    for node in nodes:
        net.add_node(Node(id=node))
    ends = [
        (i, (i + 1) % wired) for i in range(wired)
    ] + draw(st.lists(
        st.tuples(st.integers(0, wired - 1), st.integers(0, wired - 1)),
        max_size=2 * n_nodes,
    ))
    ends += draw(st.lists(st.sampled_from(ends), max_size=3))  # parallel links
    for number, (u, v) in enumerate(ends):
        if u == v:
            continue
        net.add_link(Link(
            id=f"L{number:02d}", u=nodes[u], v=nodes[v],
            capacity_gbps=draw(st.sampled_from(CAPACITIES)),
            length_km=draw(st.sampled_from(LENGTHS)),
        ))

    pairs = draw(st.lists(
        st.tuples(st.integers(0, n_nodes - 1), st.integers(0, n_nodes - 1))
        .filter(lambda p: p[0] != p[1]),
        min_size=1, max_size=2 * n_nodes,
    ))
    demands = {
        (nodes[s], nodes[t]): draw(st.sampled_from((0.5, 1.0, 2.0, 3.0)))
        for s, t in pairs
    }
    # Scale the TM so the full network sits near λ = 1: drops then flip
    # the verdict, which is where certificates must not go wrong.
    full = reference_max_concurrent_flow(
        net.restricted_to_links(net.link_ids),
        TrafficMatrix.from_dict(nodes, demands),
    )
    if 0.0 < full.lam < 64.0:
        scale = full.lam * draw(st.sampled_from((0.4, 0.7, 0.9, 1.0, 1.3)))
        demands = {pair: value * scale for pair, value in demands.items()}
    tm = TrafficMatrix.from_dict(nodes, demands)

    link_ids = sorted(net.link_ids)
    order = draw(st.permutations(link_ids))
    subsets = draw(st.lists(
        st.lists(st.sampled_from(link_ids), unique=True).map(frozenset),
        max_size=6,
    )) if link_ids else []
    return net, tm, list(order), subsets


def _reference(net, tm, subset):
    return reference_max_concurrent_flow(net.restricted_to_links(subset), tm)


def _assert_identical(result, reference):
    assert result.lam == reference.lam
    assert result.feasible == reference.feasible
    assert result.status == reference.status
    assert result.message == reference.message
    assert result.flow_km == reference.flow_km
    assert result.link_loads == reference.link_loads


class TestCertifiedAnswersMatchTheLp:
    @SETTINGS
    @given(workloads())
    def test_drop_walk_and_random_subsets(self, workload):
        """Greedy-drop order, then arbitrary subsets, through one model."""
        net, tm, order, subsets = workload
        model = McfModel(net, tm)
        current = frozenset(net.link_ids)
        asked = [current]
        assert model.feasible(current) == _reference(net, tm, current).feasible
        for lid in order:
            candidate = current - {lid}
            verdict = model.feasible(candidate)
            assert verdict == _reference(net, tm, candidate).feasible, sorted(candidate)
            asked.append(candidate)
            if verdict:
                current = candidate
        for subset in subsets:
            assert model.feasible(subset) == _reference(net, tm, subset).feasible, sorted(subset)
            asked.append(subset)
        # Certificates never leak into exact answers.
        for subset in asked[::3]:
            _assert_identical(model.solve(subset), _reference(net, tm, subset))
            _assert_identical(model.verdict(subset), model.solve(subset))

    @SETTINGS
    @given(workloads())
    def test_oracle_feasible_then_check(self, workload):
        """``check`` after a certified ``feasible`` is the exact result."""
        net, tm, order, _subsets = workload
        oracle = MCFOracle(net, tm)
        current = frozenset(net.link_ids)
        oracle.feasible(current)
        for lid in order:
            candidate = current - {lid}
            if oracle.feasible(candidate):
                current = candidate
        result = oracle.check(current)
        reference = _reference(net, tm, current)
        assert result.feasible == reference.feasible
        if reference.feasible:
            assert result.headroom == reference.lam
            assert result.link_loads == reference.link_loads
        assert oracle.evaluations == len(order) + 1
        assert oracle.cache_hits == 1


class _CountingModel(McfModel):
    """A model that counts the answers its verdict index gives."""

    def __init__(self, network, tm):
        super().__init__(network, tm)
        self.indexed = 0

    def _indexed(self, mask):
        verdict = super()._indexed(mask)
        self.indexed += verdict is not None
        return verdict


class TestIndexedAnswersMatchTheLp:
    def test_selection_and_leave_one_out_walks(self):
        """Drop walks like a VCG clear's, through one model: every answer,
        inferred from the verdict index or not, is the LP's verdict."""
        inferred = []

        @SETTINGS
        @given(workloads())
        def walks(workload):
            net, tm, order, _subsets = workload
            model = _CountingModel(net, tm)
            verdicts = {}

            def check(subset):
                if subset not in verdicts:
                    verdicts[subset] = _reference(net, tm, subset).feasible
                verdict = model.feasible(subset)
                assert verdict == verdicts[subset], sorted(subset)
                return verdict

            # The selection over every link, then two leave-one-out walks.
            for left_out in [None] + order[:2]:
                current = frozenset(order) - {left_out}
                if not check(current):
                    continue
                for lid in order:
                    if lid in current and check(current - {lid}):
                        current -= {lid}
            inferred.append(model.indexed)

        walks()
        assert sum(inferred) > 0  # the index answered, so its answers were checked


def _network(links, nodes=("A", "B", "C", "D")):
    net = Network(name="cert-unit")
    for node in nodes:
        net.add_node(Node(id=node))
    for lid, u, v, cap in links:
        net.add_link(Link(id=lid, u=u, v=v, capacity_gbps=cap, length_km=10.0))
    return net


class TestCertificateCases:
    def test_parallel_link_absorbs_a_dropped_link(self):
        net = _network([("P1", "A", "B", 10.0), ("P2", "A", "B", 10.0)], ("A", "B"))
        tm = TrafficMatrix.from_dict(["A", "B"], {("A", "B"): 4.0})
        model = McfModel(net, tm)
        assert model.feasible()
        for kept in ({"P1"}, {"P2"}):
            assert model.feasible(kept)
            assert _reference(net, tm, kept).feasible
        assert model.solves == 1 and model.certified == 2

    def test_bottleneck_forces_the_lp(self):
        """Every route is saturated at λ = 2: no single path has room."""
        net = _network([
            ("AB", "A", "B", 4.0), ("BD", "B", "D", 4.0),
            ("AC", "A", "C", 4.0), ("CD", "C", "D", 4.0),
            ("AD", "A", "D", 4.0),
        ])
        tm = TrafficMatrix.from_dict(["A", "B", "C", "D"], {("A", "D"): 6.0})
        model = McfModel(net, tm)
        assert model.solve().lam == pytest.approx(2.0)
        kept = {"AB", "BD", "AC", "CD"}
        assert model.feasible(kept)
        assert model.solves == 2 and model.certified == 0
        assert _reference(net, tm, kept).feasible

    def test_subset_of_a_refuted_set_is_refuted_without_an_lp(self):
        """Two clusters joined by 6 Gbps must carry 9: no node cut shows it."""
        net = _network([
            ("AB", "A", "B", 10.0), ("AB2", "A", "B", 10.0), ("CD", "C", "D", 10.0),
            ("BC", "B", "C", 3.0), ("AD", "A", "D", 3.0),
        ])
        tm = TrafficMatrix.from_dict(
            ["A", "B", "C", "D"], {("A", "C"): 8.0, ("B", "D"): 1.0}
        )
        model = McfModel(net, tm)
        assert not model.feasible()
        kept = {"AB", "CD", "BC", "AD"}
        assert not model.cut_infeasible(kept)
        assert not model.feasible(kept)
        assert model.solves == 1 and model.certified == 1
        assert model.cut_shortcircuits == 0
        assert not _reference(net, tm, kept).feasible

    def test_clear_memo_drops_the_certificates(self):
        net = _network([("P1", "A", "B", 10.0), ("P2", "A", "B", 10.0)], ("A", "B"))
        tm = TrafficMatrix.from_dict(["A", "B"], {("A", "B"): 4.0})
        model = McfModel(net, tm)
        assert model.feasible()
        model.clear_memo()
        assert model.feasible({"P1"})
        assert model.solves == 2 and model.certified == 0

    def test_certified_answer_never_answers_solve_or_verdict(self):
        net = _network([("P1", "A", "B", 10.0), ("P2", "A", "B", 10.0)], ("A", "B"))
        tm = TrafficMatrix.from_dict(["A", "B"], {("A", "B"): 4.0})
        model = McfModel(net, tm)
        model.feasible()
        assert model.feasible({"P1"}) and model.certified == 1
        exact = _reference(net, tm, {"P1"})
        _assert_identical(model.verdict({"P1"}), exact)
        _assert_identical(model.solve({"P1"}), exact)
        assert model.solves == 2


class TestDemandDistance:
    def test_zero_length_and_parallel_arcs(self):
        """dist(A, C) = 0 + 1: the zero arc is an edge, the short parallel wins."""
        net = _network([
            ("AB", "A", "B", 1.0), ("BC1", "B", "C", 1.0), ("BC2", "B", "C", 1.0),
        ], ("A", "B", "C"))
        tm = TrafficMatrix.from_dict(["A", "B", "C"], {("A", "C"): 2.0})
        model = McfModel(net, tm)
        # Arcs in link-id order, forward then reverse: AB, BC1, BC2.
        lengths = np.array([0.0, 0.0, 3.0, 3.0, 1.0, 1.0])
        arcs = np.ones(6, dtype=bool)
        assert model._demand_distance(arcs, lengths) == 2.0 * 1.0
        arcs[4:] = False  # without BC2 only the 3-long parallel is left
        assert model._demand_distance(arcs, lengths) == 2.0 * 3.0
        arcs[:2] = False  # A cut off: the demand cannot arrive
        assert model._demand_distance(arcs, lengths) == float("inf")
