"""Property tests: warm-started MCF solves are byte-identical to cold ones.

The contract of :class:`repro.netflow.model.McfModel` is absolute: for
any (topology, TM, dropped-link subset), the warm path must return the
*same floats* as building the LP from scratch for scipy ``linprog`` on
the restricted network (the reference in ``tests/netflow/reference_mcf.py``)
— not approximately, bit for bit.  These tests sweep 200 seeded cases
(random topologies, random TMs, random surviving-link subsets) and
compare every field of the result with ``==``.
"""

import numpy as np
import pytest

from repro.netflow.mcf import max_concurrent_flow
from repro.netflow.model import McfModel
from repro.topology.graph import Link, Network, Node
from repro.traffic.matrix import TrafficMatrix

from tests.netflow.reference_mcf import reference_max_concurrent_flow

N_CASES = 200


def _random_case(seed: int):
    """One seeded (network, tm, surviving-subset) instance."""
    rng = np.random.default_rng(seed)
    n_nodes = int(rng.integers(3, 8))
    nodes = [f"n{i}" for i in range(n_nodes)]
    net = Network(name=f"prop-{seed}")
    for node in nodes:
        net.add_node(Node(id=node))
    # A ring for connectivity plus random chords (parallels allowed).
    link_no = 0
    for i in range(n_nodes):
        u, v = nodes[i], nodes[(i + 1) % n_nodes]
        net.add_link(Link(
            id=f"L{link_no}", u=u, v=v,
            capacity_gbps=float(np.round(rng.uniform(1.0, 30.0), 3)),
            length_km=float(np.round(rng.uniform(10.0, 500.0), 1)),
        ))
        link_no += 1
    for _ in range(int(rng.integers(0, n_nodes))):
        u, v = rng.choice(n_nodes, size=2, replace=False)
        net.add_link(Link(
            id=f"L{link_no}", u=nodes[int(u)], v=nodes[int(v)],
            capacity_gbps=float(np.round(rng.uniform(1.0, 30.0), 3)),
            length_km=float(np.round(rng.uniform(10.0, 500.0), 1)),
        ))
        link_no += 1

    demands = {}
    for _ in range(int(rng.integers(1, 2 * n_nodes))):
        s, t = rng.choice(n_nodes, size=2, replace=False)
        demands[(nodes[int(s)], nodes[int(t)])] = float(
            np.round(rng.uniform(0.1, 12.0), 3)
        )
    tm = TrafficMatrix.from_dict(nodes, demands)

    link_ids = sorted(net.link_ids)
    n_drop = int(rng.integers(0, len(link_ids)))
    dropped = set(
        str(x) for x in rng.choice(link_ids, size=n_drop, replace=False)
    )
    subset = frozenset(lid for lid in link_ids if lid not in dropped)
    return net, tm, subset


def _assert_identical(warm, cold):
    """Every MCFResult field equal with ``==`` — no tolerances."""
    assert warm.lam == cold.lam
    assert warm.feasible == cold.feasible
    assert warm.status == cold.status
    assert warm.message == cold.message
    assert warm.flow_km == cold.flow_km
    assert warm.link_loads == cold.link_loads
    assert warm.arcs == cold.arcs
    assert warm.arc_flows == cold.arc_flows


class TestWarmColdByteIdentity:
    @pytest.mark.parametrize("seed", range(N_CASES))
    def test_warm_equals_cold(self, seed):
        net, tm, subset = _random_case(seed)
        model = McfModel(net, tm)
        keep_flows = seed % 5 == 0  # routing detail on every fifth case
        warm = model.solve(subset, keep_flows=keep_flows)
        cold = reference_max_concurrent_flow(
            net.restricted_to_links(subset), tm, keep_flows=keep_flows
        )
        _assert_identical(warm, cold)

    @pytest.mark.parametrize("seed", range(0, N_CASES, 10))
    def test_memo_hit_identical_to_first_solve(self, seed):
        """A cache hit returns the same object-level floats as the miss."""
        net, tm, subset = _random_case(seed)
        model = McfModel(net, tm)
        first = model.solve(subset)
        again = model.solve(subset)
        assert model.memo_hits >= 1
        _assert_identical(again, first)

    @pytest.mark.parametrize("seed", range(0, N_CASES, 10))
    def test_feasible_matches_full_solve(self, seed):
        """feasible() (with short-circuit) agrees with the exact verdict."""
        net, tm, subset = _random_case(seed)
        model = McfModel(net, tm)
        verdict = model.feasible(subset)
        exact = reference_max_concurrent_flow(net.restricted_to_links(subset), tm)
        assert verdict == exact.feasible


class TestNoStateLeaksBetweenSubsets:
    @pytest.mark.parametrize("seed", range(0, N_CASES, 20))
    def test_interleaved_subsets_match_dedicated_models(self, seed):
        """Solving A, B, A again leaks nothing from B into A (or back).

        Every answer from one shared model must equal the answer from a
        fresh model that only ever saw that one subset.
        """
        net, tm, _subset = _random_case(seed)
        rng = np.random.default_rng(seed + 10_000)
        link_ids = sorted(net.link_ids)
        subsets = []
        for _ in range(4):
            n_drop = int(rng.integers(0, len(link_ids)))
            dropped = set(
                str(x) for x in rng.choice(link_ids, size=n_drop, replace=False)
            )
            subsets.append(frozenset(l for l in link_ids if l not in dropped))

        shared = McfModel(net, tm)
        order = subsets + subsets[::-1]  # revisit everything after the others
        for subset in order:
            from_shared = shared.solve(subset)
            dedicated = McfModel(net, tm).solve(subset)
            _assert_identical(from_shared, dedicated)


def _shuffled_copy(net: Network, seed: int) -> Network:
    """The same network content with links added in a seeded random order."""
    rng = np.random.default_rng(seed + 20_000)
    copy = Network(name=net.name)
    for node in net.nodes:
        copy.add_node(node)
    links = net.links
    for i in rng.permutation(len(links)):
        copy.add_link(links[int(i)])
    return copy


class TestLinkInsertionOrder:
    @pytest.mark.parametrize("seed", range(N_CASES))
    def test_result_follows_link_id_order(self, seed):
        """``max_concurrent_flow`` ignores the order links were added in.

        Its LP takes arcs in link-id order, so on a shuffled build it must
        equal the reference on the id-ordered ``restricted_to_links`` copy.
        """
        net, tm, _subset = _random_case(seed)
        shuffled = _shuffled_copy(net, seed)
        keep_flows = seed % 5 == 0
        result = max_concurrent_flow(shuffled, tm, keep_flows=keep_flows)
        reference = reference_max_concurrent_flow(
            net.restricted_to_links(net.link_ids), tm, keep_flows=keep_flows
        )
        _assert_identical(result, reference)
