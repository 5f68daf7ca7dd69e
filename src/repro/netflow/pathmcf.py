"""Path-based max-concurrent-flow: LP over k-diverse shortest-path columns.

The exact node-arc LP (:mod:`repro.netflow.mcf`) has |arcs| × |sources|
variables — at continental scale (≥100k offered links, 500+ sites) that
is billions of nonzeros before the solver even starts.  The classic
remedy is a *path formulation*: pick a small set of candidate paths per
demand pair and let the LP split each demand across only those columns.
Variables drop to |pairs| × k, independent of how many links the network
has.

Candidate paths are generated on the :class:`~repro.topology.sparse.
SparseTopology` CSR adjacency with a penalty method: run Dijkstra,
multiply the weights of the links the path used by ``diversity_penalty``,
and repeat up to ``k_paths`` times.  The penalties push successive runs
onto link-diverse alternatives, which is what gives the LP room to split
flow; identical repeats (forced by bridges) are deduplicated.

The path LP is a *restriction* of the exact formulation — every path
solution is a valid arc solution — so its λ is a **lower bound** on the
exact λ*.  Feasible verdicts (λ ≥ 1) are therefore sound; infeasible
verdicts may be artifacts of missing columns.  With ``exact_fallback``
(the default) those verdicts — and subsets where some demand pair loses
all of its columns — are re-checked on the warm node-arc
:class:`~repro.netflow.model.McfModel`, so callers get exact answers
while the cheap path LP absorbs the common feasible case.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from repro.exceptions import UnknownLinkError
from repro.obs import metrics, span
from repro.netflow.mcf import LAMBDA_CAP, MEMO_SIZE, MCFResult
from repro.topology.graph import Network
from repro.topology.sparse import SparseTopology
from repro.traffic.matrix import TrafficMatrix

#: Floor on link weights so zero-length (virtual) links still cost
#: something and the multiplicative diversity penalty has purchase.
_MIN_WEIGHT_KM = 1e-6


@dataclass(frozen=True)
class PathColumn:
    """One candidate path for one demand pair, as link *indices*."""

    pair: Tuple[str, str]
    #: Positions into the sparse topology's link arrays, in path order.
    link_positions: Tuple[int, ...]
    #: Directed arcs (2·link + direction) — capacity is per direction,
    #: exactly as the node-arc formulation expands undirected links.
    arc_keys: Tuple[int, ...]
    length_km: float


def k_diverse_paths(
    sparse: SparseTopology,
    src_idx: int,
    dst_idx: int,
    k: int,
    *,
    diversity_penalty: float = 8.0,
) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Up to ``k`` link-diverse shortest paths between two node indices.

    Returns (link_positions, arc_keys) tuples in discovery order; the
    first entry is the true shortest path.  Deterministic: Dijkstra
    breaks distance ties by node index, and parallel links by link id
    (the CSR adjacency is sorted by link id, and only strict improvements
    relax).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = sparse.num_nodes
    indptr, nbrs, lidx = sparse.adj_indptr, sparse.adj_node, sparse.adj_link
    weights = np.maximum(sparse.length_km, _MIN_WEIGHT_KM).astype(np.float64)
    link_u, link_v = sparse.link_u, sparse.link_v

    out: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = []
    seen = set()
    for _ in range(k):
        dist = np.full(n, np.inf)
        parent_node = np.full(n, -1, dtype=np.int64)
        parent_link = np.full(n, -1, dtype=np.int64)
        dist[src_idx] = 0.0
        heap = [(0.0, src_idx)]
        while heap:
            d, u = heapq.heappop(heap)
            if u == dst_idx:
                break
            if d > dist[u]:
                continue
            for j in range(indptr[u], indptr[u + 1]):
                v = int(nbrs[j])
                li = int(lidx[j])
                nd = d + weights[li]
                if nd < dist[v]:
                    dist[v] = nd
                    parent_node[v] = u
                    parent_link[v] = li
                    heapq.heappush(heap, (nd, v))
        if not np.isfinite(dist[dst_idx]):
            break
        links: List[int] = []
        arcs: List[int] = []
        node = dst_idx
        while node != src_idx:
            li = int(parent_link[node])
            prev = int(parent_node[node])
            links.append(li)
            # Direction 0 traverses u→v in the link's stored orientation.
            arcs.append(2 * li + (0 if (link_u[li] == prev and link_v[li] == node) else 1))
            node = prev
        links.reverse()
        arcs.reverse()
        key = tuple(links)
        if key not in seen:
            seen.add(key)
            out.append((key, tuple(arcs)))
        # Penalize the links just used so the next run detours.
        weights[list(key)] *= diversity_penalty
    return out


class PathMcfModel:
    """Max concurrent flow via a path LP, with exact node-arc fallback.

    ``solve(link_ids)`` answers the same question as the exact model when
    the verdict is feasible or ``exact_fallback`` is on; without the
    fallback it reports the (lower-bound) path-restricted λ.  Results are
    memoized per subset, mirroring :class:`~repro.netflow.model.McfModel`.
    """

    def __init__(
        self,
        network: Network,
        tm: TrafficMatrix,
        *,
        k_paths: int = 4,
        diversity_penalty: float = 8.0,
        exact_fallback: bool = True,
    ) -> None:
        tm.validate_against(network.node_ids)
        if k_paths < 1:
            raise ValueError(f"k_paths must be >= 1, got {k_paths}")
        self.network = network
        self.tm = tm
        self.k_paths = int(k_paths)
        self.exact_fallback = bool(exact_fallback)
        self._memo: "OrderedDict[FrozenSet[str], MCFResult]" = OrderedDict()
        self.memo_hits = 0
        self.path_solves = 0
        self.exact_fallbacks = 0

        self._sparse = SparseTopology.from_network(network)
        self._link_set: FrozenSet[str] = frozenset(self._sparse.link_ids.tolist())
        self._link_pos: Dict[str, int] = {
            lid: i for i, lid in enumerate(self._sparse.link_ids.tolist())
        }
        self._demands: List[Tuple[Tuple[str, str], float]] = sorted(
            ((pair, v) for pair, v in tm.pairs() if v > 0 and pair[0] != pair[1]),
            key=lambda item: item[0],
        )

        lengths = self._sparse.length_km
        self._columns: List[List[PathColumn]] = []
        with span("pathmcf.columns", pairs=len(self._demands), k=self.k_paths):
            for (src, dst), _value in self._demands:
                found = k_diverse_paths(
                    self._sparse,
                    self._sparse.node_index(src),
                    self._sparse.node_index(dst),
                    self.k_paths,
                    diversity_penalty=diversity_penalty,
                )
                self._columns.append(
                    [
                        PathColumn(
                            pair=(src, dst),
                            link_positions=links,
                            arc_keys=arcs,
                            length_km=float(lengths[list(links)].sum()),
                        )
                        for links, arcs in found
                    ]
                )

    # -- public API ----------------------------------------------------------

    @property
    def num_columns(self) -> int:
        return sum(len(cols) for cols in self._columns)

    def path_columns(self) -> Dict[Tuple[str, str], Tuple[Tuple[str, ...], ...]]:
        """pair → candidate paths as link-id tuples (for tests/audits)."""
        ids = self._sparse.link_ids
        return {
            pair: tuple(
                tuple(ids[list(col.link_positions)].tolist()) for col in cols
            )
            for (pair, _v), cols in zip(self._demands, self._columns)
        }

    def solve(self, link_ids: Optional[Iterable[str]] = None) -> MCFResult:
        """Max concurrent flow of the TM over ``link_ids`` (default: all)."""
        key = self._link_set if link_ids is None else frozenset(link_ids)
        missing = key - self._link_set
        if missing:
            raise UnknownLinkError(sorted(missing)[0])
        cached = self._memo.get(key)
        if cached is not None:
            self.memo_hits += 1
            self._memo.move_to_end(key)
            return cached
        result = self._solve_uncached(key)
        self._memo[key] = result
        if len(self._memo) > MEMO_SIZE:
            self._memo.popitem(last=False)
        return result

    def feasible(self, link_ids: Optional[Iterable[str]] = None) -> bool:
        return self.solve(link_ids).feasible

    # -- internals -----------------------------------------------------------

    def _exact(self, key: FrozenSet[str]) -> MCFResult:
        from repro.netflow.model import get_model

        self.exact_fallbacks += 1
        metrics().inc("pathmcf.exact_fallbacks")
        return get_model(self.network, self.tm).solve(key)

    def _solve_uncached(self, key: FrozenSet[str]) -> MCFResult:
        if not self._demands:
            return MCFResult(lam=LAMBDA_CAP, feasible=True, status=0, message="empty TM")
        if not key:
            return MCFResult(lam=0.0, feasible=False, status=2, message="no links")

        keep = np.zeros(self._sparse.num_links, dtype=bool)
        keep[[self._link_pos[lid] for lid in key]] = True

        # A column survives iff every link on its path is kept.  A pair
        # with no surviving column might still be routable through the
        # subset off the candidate paths — that is a coverage gap, not
        # evidence of infeasibility — so it goes to the exact model.
        surviving: List[List[PathColumn]] = []
        for cols in self._columns:
            alive = [c for c in cols if keep[list(c.link_positions)].all()]
            if not alive:
                if self.exact_fallback:
                    return self._exact(key)
                return MCFResult(
                    lam=0.0,
                    feasible=False,
                    status=2,
                    message="no candidate path survives in subset",
                )
            surviving.append(alive)

        result = self._solve_path_lp(key, surviving)
        if not result.feasible and self.exact_fallback:
            # Lower bound below 1 proves nothing; ask the exact model.
            return self._exact(key)
        return result

    def _solve_path_lp(
        self, key: FrozenSet[str], surviving: List[List[PathColumn]]
    ) -> MCFResult:
        self.path_solves += 1
        metrics().inc("pathmcf.path_solves")
        flat: List[PathColumn] = [c for cols in surviving for c in cols]
        n_cols = len(flat)
        lam_col = n_cols

        # Capacity rows: one per directed arc used by any column.
        arc_rows: Dict[int, int] = {}
        for col in flat:
            for arc in col.arc_keys:
                if arc not in arc_rows:
                    arc_rows[arc] = len(arc_rows)
        caps = np.empty(len(arc_rows))
        for arc, row in arc_rows.items():
            caps[row] = self._sparse.capacity_gbps[arc // 2]

        ub_rows: List[int] = []
        ub_cols: List[int] = []
        for j, col in enumerate(flat):
            for arc in col.arc_keys:
                ub_rows.append(arc_rows[arc])
                ub_cols.append(j)
        a_ub = coo_matrix(
            (np.ones(len(ub_rows)), (ub_rows, ub_cols)),
            shape=(len(arc_rows), n_cols + 1),
        ).tocsr()

        # Demand rows: Σ_p f_p − λ·d = 0 per pair.
        eq_rows: List[int] = []
        eq_cols: List[int] = []
        eq_vals: List[float] = []
        j = 0
        for i, cols in enumerate(surviving):
            for _ in cols:
                eq_rows.append(i)
                eq_cols.append(j)
                eq_vals.append(1.0)
                j += 1
            eq_rows.append(i)
            eq_cols.append(lam_col)
            eq_vals.append(-self._demands[i][1])
        a_eq = coo_matrix(
            (eq_vals, (eq_rows, eq_cols)), shape=(len(surviving), n_cols + 1)
        ).tocsr()

        c = np.zeros(n_cols + 1)
        c[lam_col] = -1.0
        bounds = [(0, None)] * n_cols + [(0, LAMBDA_CAP)]

        with span("pathmcf.solve", columns=n_cols, arcs=len(arc_rows)):
            metrics().inc("pathmcf.solves")
            res = linprog(
                c,
                A_ub=a_ub,
                b_ub=caps,
                A_eq=a_eq,
                b_eq=np.zeros(len(surviving)),
                bounds=bounds,
                method="highs",
            )

        x = res.x
        lam = float(x[lam_col]) if x is not None else 0.0
        feasible = lam >= 1.0 - 1e-7
        flow_km = 0.0
        link_loads: Optional[Dict[str, float]] = None
        if x is not None:
            flows = x[:n_cols]
            flow_km = float(
                sum(f * col.length_km for f, col in zip(flows, flat))
            )
            if lam > 1.0:
                flow_km /= lam
            if feasible:
                scale = 1.0 / lam if lam > 1.0 else 1.0
                per_link = np.zeros(self._sparse.num_links)
                for f, col in zip(flows, flat):
                    if f > 1e-12:
                        per_link[list(col.link_positions)] += f * scale
                ids = self._sparse.link_ids
                link_loads = {
                    str(ids[i]): float(per_link[i])
                    for i in np.nonzero(per_link > 1e-9)[0]
                }
        return MCFResult(
            lam=lam,
            feasible=feasible,
            status=int(res.status),
            message=str(res.message),
            flow_km=flow_km,
            link_loads=link_loads,
        )
