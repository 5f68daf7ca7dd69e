"""Reference max-concurrent-flow solve: the LP assembled for scipy ``linprog``.

The executable specification of :class:`repro.netflow.model.McfModel`.
It builds the node-arc LP described in :mod:`repro.netflow.mcf` from
Python lists, arcs in the network's own link order, and hands it to
``linprog(method="highs")``.  The byte-identity suites compare the
template-sliced model against it field by field with ``==``: on a
network whose links are in id order (any ``restricted_to_links``
result) the two must agree bit for bit.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from repro.netflow.mcf import LAMBDA_CAP, MCFResult
from repro.netflow.model import _finish_result
from repro.topology.graph import Network
from repro.traffic.matrix import TrafficMatrix


def _directed_arcs(network: Network) -> List[Tuple[str, str, str, float, float]]:
    """Expand undirected links to directed arcs.

    Returns tuples (arc_id, tail, head, capacity, length).
    """
    arcs = []
    for link in network.iter_links():
        arcs.append((f"{link.id}>f", link.u, link.v, link.capacity_gbps, link.length_km))
        arcs.append((f"{link.id}>r", link.v, link.u, link.capacity_gbps, link.length_km))
    return arcs


def reference_max_concurrent_flow(
    network: Network,
    tm: TrafficMatrix,
    *,
    keep_flows: bool = False,
) -> MCFResult:
    """Solve for the max concurrent flow λ* of ``tm`` on ``network``."""
    tm.validate_against(network.node_ids)
    demands = [(pair, v) for pair, v in tm.pairs() if v > 0]
    if not demands:
        return MCFResult(lam=LAMBDA_CAP, feasible=True, status=0, message="empty TM")

    sources = sorted({src for (src, _), _ in demands})
    nodes = network.node_ids
    node_idx = {n: i for i, n in enumerate(nodes)}
    src_idx = {s: i for i, s in enumerate(sources)}
    arcs = _directed_arcs(network)
    n_arcs, n_src, n_nodes = len(arcs), len(sources), len(nodes)
    if n_arcs == 0:
        return MCFResult(lam=0.0, feasible=False, status=2, message="no links")

    # Net supply b(s, v).
    b = np.zeros((n_src, n_nodes))
    for (src, dst), value in demands:
        b[src_idx[src], node_idx[src]] += value
        b[src_idx[src], node_idx[dst]] -= value

    # Variable layout: x[a, s] at index a * n_src + s; λ last.
    n_x = n_arcs * n_src
    lam_col = n_x

    eq_rows: List[int] = []
    eq_cols: List[int] = []
    eq_vals: List[float] = []
    # Conservation row index: s * n_nodes + v.
    for a, (_aid, tail, head, _cap, _len) in enumerate(arcs):
        ti, hi = node_idx[tail], node_idx[head]
        for s in range(n_src):
            col = a * n_src + s
            eq_rows.append(s * n_nodes + ti)
            eq_cols.append(col)
            eq_vals.append(1.0)
            eq_rows.append(s * n_nodes + hi)
            eq_cols.append(col)
            eq_vals.append(-1.0)
    # -λ·b term.
    for s in range(n_src):
        for v in range(n_nodes):
            if b[s, v] != 0.0:
                eq_rows.append(s * n_nodes + v)
                eq_cols.append(lam_col)
                eq_vals.append(-b[s, v])
    a_eq = coo_matrix(
        (eq_vals, (eq_rows, eq_cols)), shape=(n_src * n_nodes, n_x + 1)
    ).tocsr()
    b_eq = np.zeros(n_src * n_nodes)

    ub_rows: List[int] = []
    ub_cols: List[int] = []
    ub_vals: List[float] = []
    caps = np.empty(n_arcs)
    for a, (_aid, _t, _h, cap, _len) in enumerate(arcs):
        caps[a] = cap
        for s in range(n_src):
            ub_rows.append(a)
            ub_cols.append(a * n_src + s)
            ub_vals.append(1.0)
    a_ub = coo_matrix((ub_vals, (ub_rows, ub_cols)), shape=(n_arcs, n_x + 1)).tocsr()

    c = np.zeros(n_x + 1)
    c[lam_col] = -1.0
    bounds = [(0, None)] * n_x + [(0, LAMBDA_CAP)]

    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=caps,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
    )
    return _finish_result(res.x, res.status, res.message, arcs, sources, keep_flows)
