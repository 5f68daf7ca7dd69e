"""Max-concurrent-flow solving: build the LP once, solve subsets.

The auction's feasibility oracle asks the *same* (topology, TM) question
for dozens of overlapping link subsets — bench ab1 counts 65+ LP solves
per selection, most differing from the previous one by a single dropped
link.  Assembling each of those LPs from Python lists and re-entering
scipy's LP front end (input validation, bounds canonicalization,
COO→CSR→vstack→CSC conversion) costs roughly four times the actual
HiGHS runtime at micro-benchmark scale.

:class:`McfModel` builds everything that does not depend on the link
subset exactly once:

- the sorted-link directed-arc table (the same arc order
  ``Network.restricted_to_links`` produces, so a subset solve equals a
  solve of the restricted subnet — see below);
- node/source index maps and the net-supply matrix ``b(s, v)``;
- per-arc row/value templates for the canonical CSC form of the stacked
  ``[A_ub; A_eq]`` constraint matrix.

A subset solve then *slices* those templates with numpy, producing byte-
for-byte the same CSC arrays scipy's LP front end (``method="highs"``)
would build for the restricted subnet, and hands them straight to HiGHS
through scipy's bundled bindings (``scipy.optimize._highspy``, scipy
>= 1.15) with the identical options.  Identical inputs to the same
deterministic solver give identical outputs, so results are
*bit-identical* to solving the restricted subnet through that front
end; ``tests/property/test_prop_warm_mcf.py`` asserts this over
hundreds of seeded cases against the reference assembly kept in
``tests/netflow/reference_mcf.py``.

Yes/no questions (:meth:`McfModel.feasible`) may skip the LP.  λ* only
grows with the link set, so a subset containing one proven feasible with
a margin is feasible, and a subset inside one proven infeasible with it
is infeasible: the model indexes such robust verdicts.  Every solve also
leaves a certificate — a feasible subset's routing, an infeasible one's
capacity duals — that settles many nearby subsets with the same margin,
which the LP can never contradict.  ``solve()`` and ``verdict()`` never
answer from the index or a certificate, so every result they return is
an LP result.
The survivability constraints keep their verdicts in the same memo
(:meth:`McfModel.survivable`): a verdict depends only on the model's
content key, so every constraint over the same workload shares it.

:class:`ModelCache` keys models by *content* (node order, sorted link
attributes, TM entries) rather than object identity, so freshly rebuilt
but identical workloads — e.g. every trial of the figure2 micro grid —
share one model per process, and fork-started pool workers inherit the
parent's warmed cache read-only.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import reduce
from operator import or_
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple, Union

import numpy as np
import scipy.optimize._highspy._core as _h  # type: ignore
from scipy.optimize._highspy._core import (  # type: ignore
    HighsDebugLevel,
    kHighsInf,
    simplex_constants as _simplex_constants,
)
from scipy.optimize._linprog_highs import _highs_to_scipy_status_message  # type: ignore
from scipy.optimize._linprog_util import _check_result  # type: ignore
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.exceptions import FlowError, UnknownLinkError
from repro.obs import metrics, span
from repro.netflow.mcf import LAMBDA_CAP, MEMO_SIZE, MCFResult
from repro.topology.graph import Network
from repro.traffic.matrix import TrafficMatrix

_HIGHS_OPTIONS_OBJ = None


def _highs_options():
    """A prebuilt ``HighsOptions`` equal to the one scipy's LP front end builds.

    The front end re-validates and re-applies the same option values on
    every call (a measurable fraction of small-LP solve time); the
    resulting ``HighsOptions`` contents are constant, so build the object
    once per process.  ``Highs.passOptions`` copies it, and each solve
    uses a fresh ``Highs`` instance, so no solver state (e.g. a previous
    basis) can leak between solves — that is what keeps every solve
    independent of the subsets solved before it.
    """
    global _HIGHS_OPTIONS_OBJ
    if _HIGHS_OPTIONS_OBJ is None:
        opts = _h.HighsOptions()
        # The non-default entries scipy's options dict actually sets
        # (None-valued entries and "sense" are skipped by its wrapper;
        # bool presolve is translated to the "on"/"off" string form).
        opts.presolve = "on"
        opts.highs_debug_level = HighsDebugLevel.kHighsDebugLevelNone
        opts.log_to_console = False
        opts.output_flag = False
        opts.simplex_strategy = _simplex_constants.SimplexStrategy.kSimplexStrategyDual
        _HIGHS_OPTIONS_OBJ = opts
    return _HIGHS_OPTIONS_OBJ


def _run_highs(c, indptr, indices, data, lhs, rhs, lb, ub):
    """Minimal HiGHS invocation, result-identical to scipy's wrapper.

    Replicates ``scipy.optimize._highspy._highs_wrapper`` for the pure-LP
    case but skips what the MCF result never reads: per-call option
    re-validation and the Lagrange-multiplier extraction loops.  The
    model and options handed to ``Highs.run`` are exactly what scipy
    would pass, and status/message strings are reproduced verbatim, so
    downstream bytes cannot tell the difference.  The raw row duals come
    back too (``row_dual``): the model keeps an infeasible solve's
    capacity-row duals as a certificate.
    """
    lp = _h.HighsLp()
    lp.num_col_ = c.size
    lp.num_row_ = rhs.size
    lp.a_matrix_.num_col_ = c.size
    lp.a_matrix_.num_row_ = rhs.size
    lp.a_matrix_.format_ = _h.MatrixFormat.kColwise
    lp.col_cost_ = c
    lp.col_lower_ = lb
    lp.col_upper_ = ub
    lp.row_lower_ = lhs
    lp.row_upper_ = rhs
    lp.a_matrix_.start_ = indptr
    lp.a_matrix_.index_ = indices
    lp.a_matrix_.value_ = data

    highs = _h._Highs()
    res = {"x": None, "fun": None}
    if highs.passOptions(_highs_options()) == _h.HighsStatus.kError:
        status = highs.getModelStatus()
        res.update({"status": status, "message": highs.modelStatusToString(status)})
        return res
    if highs.passModel(lp) == _h.HighsStatus.kError:
        status = _h.HighsModelStatus.kModelError
        res.update({"status": status, "message": highs.modelStatusToString(status)})
        return res
    if highs.run() == _h.HighsStatus.kError:
        status = highs.getModelStatus()
        res.update({"status": status, "message": highs.modelStatusToString(status)})
        return res

    model_status = highs.getModelStatus()
    info = highs.getInfo()
    if model_status != _h.HighsModelStatus.kOptimal:
        res.update(
            {
                "status": model_status,
                "message": "model_status is "
                f"{highs.modelStatusToString(model_status)}; "
                "primal_status is "
                f"{highs.solutionStatusToString(info.primal_solution_status)}",
            }
        )
        return res
    solution = highs.getSolution()
    res.update(
        {
            "status": model_status,
            "message": highs.modelStatusToString(model_status),
            "x": np.array(solution.col_value),
            "slack": rhs - solution.row_value,
            "fun": info.objective_function_value,
            "row_dual": np.array(solution.row_dual),
        }
    )
    return res


#: Relative demand margin for the cut-capacity short circuit and the
#: certificates.  The LP calls a subset feasible when λ >= 1 - 1e-7; the
#: shortcuts only answer when they prove λ* <= 1 - 1e-4 (infeasible) or
#: λ* >= 1 / (1 - 1e-4) (feasible), comfortably clear of both that
#: verdict threshold and HiGHS's 1e-7 feasibility tolerance, so they can
#: never contradict the LP.
_CUT_MARGIN = 1e-4

#: :meth:`McfModel.verdict`'s answer when the cut test proves infeasibility.
CUT_INFEASIBLE = MCFResult(
    lam=0.0, feasible=False, status=2, message="demand exceeds a node's cut capacity"
)

#: Certificates a model keeps per kind (feasible routings, infeasibility
#: duals), most recent first.
CERTIFICATES = 16

#: Robust verdicts a model indexes per kind (minimal feasible subsets,
#: maximal infeasible ones), most recently used first.
INDEX_SIZE = 64

#: What an int memo key's three low bits say its entry holds: the
#: ``solve()`` result without or with routing detail, a certified yes/no
#: verdict (a bool) that only ``feasible()`` reads, or a survivability
#: verdict (a bool, Constraint #2 or #3) that only ``survivable()`` reads.
_PLAIN, _FLOWS, _CERTIFIED, SINGLE_LINK_SURVIVABLE, PRIMARY_PATH_SURVIVABLE = range(5)


class _Subset:
    """A link subset: its bitmask over a model's sorted link positions."""

    __slots__ = ("mask", "_n_links", "_links")

    def __init__(self, mask: int, n_links: int) -> None:
        self.mask = mask
        self._n_links = n_links
        self._links: Optional[np.ndarray] = None

    @property
    def links(self) -> np.ndarray:
        """The subset as a bool array over link positions (built on first use:
        memo hits need only the mask)."""
        if self._links is None:
            raw = np.frombuffer(self.mask.to_bytes((self._n_links + 7) // 8, "little"), np.uint8)
            self._links = np.unpackbits(raw, count=self._n_links, bitorder="little").view(bool)
        return self._links


def _bit_positions(mask: int) -> List[int]:
    positions = []
    while mask:
        low = mask & -mask
        positions.append(low.bit_length() - 1)
        mask ^= low
    return positions


def _remember_certificate(store: list, certificate: tuple) -> None:
    store.insert(0, certificate)
    del store[CERTIFICATES:]


def _find_inside(chain: List[int], outside: int) -> bool:
    """Does a mask of ``chain`` share no bit with ``outside``?  It moves to the front."""
    for i, mask in enumerate(chain):
        if not mask & outside:
            chain.insert(0, chain.pop(i))
            return True
    return False


def _add_minimal(chain: List[int], mask: int) -> None:
    """Add ``mask`` to an antichain of minimal masks, most recent first.

    A mask that contains a kept one adds nothing; otherwise the kept masks
    that contain it go, and the oldest beyond :data:`INDEX_SIZE` too.
    """
    if _find_inside(chain, ~mask):
        return
    chain[:] = [mask] + [kept for kept in chain if mask & ~kept]
    del chain[INDEX_SIZE:]


class McfModel:
    """A reusable max-concurrent-flow LP over one (network, TM) pair.

    ``solve(link_ids)`` answers the same question as
    ``max_concurrent_flow(network.restricted_to_links(link_ids), tm)``
    — bit-identically — without re-deriving any of the subset-independent
    structure.  Results are memoized per subset, so oracles, auction
    rounds, and sweep trials sharing one model never pay for the same
    subset twice.
    """

    #: Always 0: every solve goes straight to HiGHS.  Kept because the
    #: benchmark (``bench/``) reads it to check exactly that.
    fallback_solves = 0

    def __init__(self, network: Network, tm: TrafficMatrix) -> None:
        tm.validate_against(network.node_ids)
        self.network = network
        self.tm = tm
        self._memo: "OrderedDict[int, Union[MCFResult, bool]]" = OrderedDict()
        self.memo_hits = 0
        self.solves = 0
        self.cut_shortcircuits = 0
        self.certified = 0
        self.survival_hits = 0
        #: Minimal subsets proven feasible with the margin (see _indexed).
        self._robust_feasible: List[int] = []
        #: Complements of maximal subsets proven infeasible with the margin.
        self._robust_infeasible: List[int] = []
        #: (subset mask, per-arc load of a TM routing within the arc limits)
        self._routings: List[Tuple[int, np.ndarray]] = []
        #: (subset mask, per-arc dual lengths ℓ)
        self._duals: List[Tuple[int, np.ndarray]] = []

        demands = [(pair, v) for pair, v in tm.pairs() if v > 0]
        self._empty_tm = not demands
        nodes = network.node_ids
        node_idx = {n: i for i, n in enumerate(nodes)}
        self._n_nodes = len(nodes)
        self._sources: List[str] = sorted({src for (src, _), _ in demands})
        self._n_src = len(self._sources)

        links = sorted(network.iter_links(), key=lambda link: link.id)
        self._link_ids: List[str] = [link.id for link in links]
        self._link_set: FrozenSet[str] = frozenset(self._link_ids)
        self._link_bit: Dict[str, int] = {lid: 1 << i for i, lid in enumerate(self._link_ids)}
        n_links = len(links)
        self._all = _Subset((1 << n_links) - 1, n_links)

        with span("mcf.model_build", links=n_links, sources=self._n_src, nodes=self._n_nodes):
            # Directed arcs in sorted-link, forward-then-reverse order.
            self._arc_meta: List[Tuple[str, str, str, float, float]] = []
            for link in links:
                self._arc_meta.append(
                    (f"{link.id}>f", link.u, link.v, link.capacity_gbps, link.length_km)
                )
                self._arc_meta.append(
                    (f"{link.id}>r", link.v, link.u, link.capacity_gbps, link.length_km)
                )
            n_arcs = 2 * n_links
            # A column for variable x[a, s] holds three entries: the
            # capacity row (above the conservation block) and the two
            # conservation rows of the arc's endpoints.  Canonical CSC
            # needs rows ascending within the column, so store the
            # endpoint rows pre-sorted with their matching +-1 values.
            # Endpoints always differ: ``Link`` rejects self-loops.
            self._arc_row_lo = np.empty(n_arcs, dtype=np.int32)
            self._arc_row_hi = np.empty(n_arcs, dtype=np.int32)
            self._arc_val_lo = np.empty(n_arcs)
            self._arc_val_hi = np.empty(n_arcs)
            self._arc_cap = np.empty(n_arcs)
            self._arc_ends: List[Tuple[int, int]] = []
            self._out_arcs: List[List[Tuple[int, int]]] = [[] for _ in nodes]
            for a, (_aid, tail, head, cap, _length) in enumerate(self._arc_meta):
                ti, hi = node_idx[tail], node_idx[head]
                self._arc_cap[a] = cap
                self._arc_ends.append((ti, hi))
                self._out_arcs[ti].append((a, hi))
                if ti <= hi:
                    self._arc_row_lo[a], self._arc_val_lo[a] = ti, 1.0
                    self._arc_row_hi[a], self._arc_val_hi[a] = hi, -1.0
                else:
                    self._arc_row_lo[a], self._arc_val_lo[a] = hi, -1.0
                    self._arc_row_hi[a], self._arc_val_hi[a] = ti, 1.0
            #: The load a certified routing may put on each arc.
            self._arc_limit = self._arc_cap * (1.0 - _CUT_MARGIN)

            # Net supply b(s, v) and the λ column of A_eq (rows already
            # ascending because s-major, node-minor iteration is sorted).
            b = np.zeros((self._n_src, self._n_nodes))
            src_idx = {s: i for i, s in enumerate(self._sources)}
            for (src, dst), value in demands:
                b[src_idx[src], node_idx[src]] += value
                b[src_idx[src], node_idx[dst]] -= value
            lam_rows: List[int] = []
            lam_vals: List[float] = []
            for s in range(self._n_src):
                for v in range(self._n_nodes):
                    if b[s, v] != 0.0:
                        lam_rows.append(s * self._n_nodes + v)
                        lam_vals.append(-b[s, v])
            self._lam_rows = np.asarray(lam_rows, dtype=np.int32)
            self._lam_vals = np.asarray(lam_vals)

            # Demand pairs for the dual certificates' distance sums.
            self._src_nodes = np.asarray([node_idx[s] for s in self._sources], dtype=np.int64)
            self._dem_src = np.asarray([src_idx[s] for (s, _), _ in demands], dtype=np.int64)
            self._dem_dst = np.asarray([node_idx[t] for (_, t), _ in demands], dtype=np.int64)
            self._dem_val = np.asarray([value for _, value in demands])
            # Their shortest paths run on one graph entry per (tail, head)
            # node pair, built once: each call writes only the entries'
            # lengths (see _demand_distance).
            n = self._n_nodes
            pair = np.asarray([t * n + h for t, h in self._arc_ends], dtype=np.int64)
            self._pair_order = np.argsort(pair, kind="stable")
            pairs, self._pair_start = np.unique(pair[self._pair_order], return_index=True)
            self._pair_graph = csr_matrix(
                (np.zeros(pairs.size), pairs % n, np.searchsorted(pairs // n, np.arange(n + 1))),
                shape=(n, n),
            )

            # Per-link endpoint/capacity arrays for the cut short circuit,
            # and per-node egress/ingress demand totals.
            self._link_u_idx = np.asarray([node_idx[link.u] for link in links], dtype=np.int64)
            self._link_v_idx = np.asarray([node_idx[link.v] for link in links], dtype=np.int64)
            self._link_cap = np.asarray([link.capacity_gbps for link in links])
            self._egress = np.zeros(self._n_nodes)
            self._ingress = np.zeros(self._n_nodes)
            for (src, dst), value in demands:
                self._egress[node_idx[src]] += value
                self._ingress[node_idx[dst]] += value

    # -- public API ----------------------------------------------------------

    def solve(
        self,
        link_ids: Optional[Iterable[str]] = None,
        *,
        keep_flows: bool = False,
    ) -> MCFResult:
        """Max concurrent flow of the TM over ``link_ids`` (default: all).

        Bit-identical to
        ``max_concurrent_flow(network.restricted_to_links(link_ids), tm)``.
        """
        subset = self._subset(link_ids)
        memo_key = subset.mask << 3 | (_FLOWS if keep_flows else _PLAIN)
        result = self._recall(memo_key)
        if result is None:
            result = self._solve_uncached(subset, keep_flows)
            self._remember(memo_key, result)
        return result

    def verdict(self, link_ids: Optional[Iterable[str]] = None) -> MCFResult:
        """Can the subset carry the TM?  Memo, then cut test, then LP.

        The cut test answers "no" without solving when some node's egress
        or ingress demand exceeds the cut capacity of its incident kept
        links (with margin, so it can never contradict the LP).  Its
        answer is :data:`CUT_INFEASIBLE`, whose λ is 0 rather than the
        exact (sub-1) λ, and it is not memoized.  Neither the index nor a
        certificate answers here: every answer is an LP result or the cut
        answer.
        """
        subset = self._subset(link_ids)
        result = self._recall(subset.mask << 3 | _PLAIN)
        if result is not None:
            return result
        if self._cut_refuses(subset):
            return CUT_INFEASIBLE
        # Via solve() (whose memo lookup misses again), so every LP solve
        # runs inside the method the benchmark times as netflow.lp_solve.
        return self.solve(subset)

    def feasible(self, link_ids: Optional[Iterable[str]] = None) -> bool:
        """Can the subset carry the TM?  Memo, index, cut test, certificates, LP.

        The yes/no answer of :meth:`verdict`, which it may also infer from
        an indexed robust verdict (see :meth:`_indexed`) or prove from an
        earlier solve's certificate (see :meth:`_certify`) instead of
        solving.  Both count as ``certified``.  A certificate's answer is
        memoized as a bare verdict that ``solve()`` and ``verdict()`` never
        read; an index answer is not memoized, since the index gives it
        again for a few bit operations.
        """
        subset = self._subset(link_ids)
        key = subset.mask << 3
        known = self._recall(key | _PLAIN)
        if known is not None:
            return known.feasible
        certified = self._recall(key | _CERTIFIED)
        if certified is not None:
            return certified
        certified = self._indexed(subset.mask)
        if certified is None:
            if self._cut_refuses(subset):
                return False
            certified = self._certify(subset)
            if certified is None:
                return self.solve(subset).feasible
            self._remember(key | _CERTIFIED, certified)
            self._index(subset.mask, certified)
        self.certified += 1
        metrics().inc("mcf.certified")
        return certified

    def survivable(self, kind: int, link_ids: Iterable[str], decide: Callable[[], bool]) -> bool:
        """The subset's survivability verdict of ``kind``, decided once per model.

        ``kind`` is :data:`SINGLE_LINK_SURVIVABLE` or
        :data:`PRIMARY_PATH_SURVIVABLE`; ``decide()`` runs only when the
        memo does not hold that verdict yet, and its answer shares the LRU
        with every other entry.  A remembered verdict counts a
        ``survival_hit``, never a memo hit or a solve.
        """
        if kind not in (SINGLE_LINK_SURVIVABLE, PRIMARY_PATH_SURVIVABLE):
            raise FlowError(f"unknown survivability kind {kind}")
        key = self._subset(link_ids).mask << 3 | kind
        verdict = self._memo.get(key)
        if verdict is None:
            verdict = decide()
            self._remember(key, verdict)
        else:
            self.survival_hits += 1
            self._memo.move_to_end(key)
            metrics().inc("mcf.survival_hits")
        return verdict

    def cut_infeasible(self, link_ids: Iterable[str]) -> bool:
        """True when a node's demand provably exceeds its incident cut.

        Sound one-way test: a ``True`` answer guarantees the LP would
        report infeasible; ``False`` says nothing.
        """
        return self._cut_infeasible(self._subset(link_ids).links)

    def clear_memo(self) -> None:
        """Forget every memoized answer, survivability verdicts included,
        every indexed verdict and every certificate."""
        self._memo.clear()
        self._robust_feasible.clear()
        self._robust_infeasible.clear()
        self._routings.clear()
        self._duals.clear()

    # -- internals -----------------------------------------------------------

    def _subset(self, link_ids: Optional[Iterable[str]]) -> _Subset:
        """Resolve link ids (an already resolved subset passes through)."""
        if link_ids is None:
            return self._all
        if isinstance(link_ids, _Subset):
            return link_ids
        if not isinstance(link_ids, (frozenset, set, list, tuple)):
            link_ids = list(link_ids)
        try:
            mask = reduce(or_, map(self._link_bit.__getitem__, link_ids), 0)
        except KeyError:
            raise UnknownLinkError(min(set(link_ids) - self._link_set)) from None
        return _Subset(mask, len(self._link_ids))

    def _recall(self, memo_key: int) -> Union[MCFResult, bool, None]:
        """The memoized entry, if any, marked as the most recently used."""
        cached = self._memo.get(memo_key)
        if cached is not None:
            self.memo_hits += 1
            self._memo.move_to_end(memo_key)
            metrics().inc("mcf.memo_hits")
        return cached

    def _remember(self, memo_key: int, entry: Union[MCFResult, bool]) -> None:
        self._memo[memo_key] = entry
        if len(self._memo) > MEMO_SIZE:
            self._memo.popitem(last=False)

    def _cut_refuses(self, subset: _Subset) -> bool:
        """The cut test; a refusal is counted and indexed."""
        if not self._cut_infeasible(subset.links):
            return False
        self.cut_shortcircuits += 1
        metrics().inc("mcf.cut_shortcircuits")
        self._index(subset.mask, False)
        return True

    def _cut_infeasible(self, links: np.ndarray) -> bool:
        if self._empty_tm:
            return False
        node_cap = np.zeros(self._n_nodes)
        np.add.at(node_cap, self._link_u_idx[links], self._link_cap[links])
        np.add.at(node_cap, self._link_v_idx[links], self._link_cap[links])
        margin = 1.0 - _CUT_MARGIN
        return bool(
            np.any(node_cap < self._egress * margin - 1e-9)
            or np.any(node_cap < self._ingress * margin - 1e-9)
        )

    # -- verdict index -----------------------------------------------------------

    def _indexed(self, mask: int) -> Optional[bool]:
        """The verdict an indexed robust verdict implies for ``mask``, or None.

        λ* never falls when links are added.  So a subset T containing an S
        with λ*(S) >= 1 / (1 - margin) is feasible, and a T inside an S
        with λ*(S) <= 1 - margin is infeasible, both clear of the LP's
        1 - 1e-7 threshold and HiGHS's 1e-7 tolerance, so the answer can
        never contradict the LP.  The infeasible side keeps complements:
        T lies inside S exactly when T shares no link with S's complement.
        """
        if _find_inside(self._robust_feasible, ~mask):
            return True
        if _find_inside(self._robust_infeasible, mask):
            return False
        return None

    def _index(self, mask: int, feasible: bool) -> None:
        """Index a verdict proven with the margin (see :meth:`_indexed`)."""
        if feasible:
            _add_minimal(self._robust_feasible, mask)
        else:
            _add_minimal(self._robust_infeasible, self._all.mask ^ mask)

    # -- certificates ----------------------------------------------------------

    def _certify(self, subset: _Subset) -> Optional[bool]:
        """The verdict an earlier solve's certificate proves, or None.

        Two kinds, both sound one-way tests with the cut test's margin:

        - a *routing* of the TM over a stored subset S, each arc within
          (1 - margin) of its capacity, proves T feasible when every arc
          in S but not in T can hand its load to a path of T's arcs that
          has that much room left (flow moved along a path keeps every
          commodity conserved); the repaired routing is stored for T;
        - *dual lengths* ℓ >= 0 on the arcs (an infeasible solve's
          capacity-row duals) prove T infeasible when
          Σ_{a∈T} cap_a·ℓ_a < (1 - margin)·Σ_{s,t} d_st·dist_{ℓ,T}(s, t):
          by weak duality that ratio bounds λ* of T from above, for any
          ℓ >= 0.  A demand pair T disconnects makes the sum infinite.
        """
        mask, arcs = subset.mask, np.repeat(subset.links, 2)
        # Nearest first: fewest links to reroute, fewest links outside S.
        routings = sorted(
            ((stored & ~mask).bit_count(), i) for i, (stored, _) in enumerate(self._routings)
        )
        for _dropped, i in routings:
            stored, loads = self._routings[i]
            loads = self._reroute(stored & ~mask, loads, arcs)
            if loads is not None:
                _remember_certificate(self._routings, (mask, loads))
                return True
        duals = sorted(
            ((mask & ~stored).bit_count(), i) for i, (stored, _) in enumerate(self._duals)
        )
        for _extra, i in duals:
            if self._refutes(arcs, self._duals[i][1]):
                self._duals.insert(0, self._duals.pop(i))
                return False
        return None

    def _refutes(self, arcs: np.ndarray, lengths: np.ndarray) -> bool:
        """Do dual ``lengths`` prove the kept ``arcs`` infeasible (see :meth:`_certify`)?"""
        weight = np.dot(self._arc_cap[arcs], lengths[arcs])
        return weight < (1.0 - _CUT_MARGIN) * self._demand_distance(arcs, lengths)

    def _reroute(self, dropped: int, loads: np.ndarray, arcs: np.ndarray) -> Optional[np.ndarray]:
        """``loads`` with every dropped link's arc load moved onto kept arcs, or None."""
        loads = loads.copy()
        room = np.where(arcs, self._arc_limit - loads, -1.0).tolist()
        for link in _bit_positions(dropped):
            for arc in (2 * link, 2 * link + 1):
                load = float(loads[arc])
                if load <= 0.0:
                    continue
                path = self._path_with_room(*self._arc_ends[arc], load, room)
                if path is None:
                    return None
                for a in path:
                    room[a] -= load
                loads[path] += load
                loads[arc] = 0.0
        return loads

    def _path_with_room(
        self, src: int, dst: int, load: float, room: List[float]
    ) -> Optional[List[int]]:
        """Fewest-hop src→dst arcs each with ``room`` for ``load`` (breadth-first)."""
        via = {src: -1}
        frontier = [src]
        while frontier:
            reached = []
            for node in frontier:
                for arc, head in self._out_arcs[node]:
                    if head in via or room[arc] < load:
                        continue
                    via[head] = arc
                    if head == dst:
                        path = []
                        while arc >= 0:
                            path.append(arc)
                            arc = via[self._arc_ends[arc][0]]
                        return path
                    reached.append(head)
            frontier = reached
        return None

    def _demand_distance(self, arcs: np.ndarray, lengths: np.ndarray) -> float:
        """Σ_{s,t} d_st·dist(s, t) over the ``arcs`` kept, arc a ``lengths[a]`` long.

        Infinite when a demand pair is disconnected.  Each node pair's
        graph entry is its shortest kept arc (a CSR matrix would *sum*
        duplicate entries), or ∞ when it keeps none; zero-length arcs stay
        explicit zeros, which sparse input keeps as edges (a dense matrix
        would read 0 as "no edge").
        """
        kept = np.where(arcs, lengths, np.inf)[self._pair_order]
        self._pair_graph.data = np.minimum.reduceat(kept, self._pair_start)
        dist = dijkstra(self._pair_graph, directed=True, indices=self._src_nodes)
        return float(np.dot(self._dem_val, dist[self._dem_src, self._dem_dst]))

    def _learn(self, subset: _Subset, arc_positions: np.ndarray, x, row_dual) -> None:
        """Index a robust verdict and keep a certificate from one LP solve."""
        if x is None:
            return
        n_arcs = arc_positions.size
        lam = float(x[-1])
        if lam >= 1.0 / (1.0 - _CUT_MARGIN):
            self._index(subset.mask, True)
            if lam >= 1.0 + 2.0 * _CUT_MARGIN:
                loads = np.zeros(self._arc_cap.size)
                loads[arc_positions] = x[:-1].reshape(n_arcs, self._n_src).sum(axis=1) / lam
                if np.all(loads <= self._arc_limit):
                    _remember_certificate(self._routings, (subset.mask, loads))
        elif lam <= 1.0 - _CUT_MARGIN:
            self._index(subset.mask, False)
            lengths = np.zeros(self._arc_cap.size)
            lengths[arc_positions] = np.maximum(-row_dual[:n_arcs], 0.0)
            if self._refutes(np.repeat(subset.links, 2), lengths):
                _remember_certificate(self._duals, (subset.mask, lengths))

    # -- LP --------------------------------------------------------------------

    def _solve_uncached(self, subset: _Subset, keep_flows: bool) -> MCFResult:
        self.solves += 1
        if self._empty_tm:
            return MCFResult(lam=LAMBDA_CAP, feasible=True, status=0, message="empty TM")
        if not subset.mask:
            return MCFResult(lam=0.0, feasible=False, status=2, message="no links")
        return self._solve_fast(subset, keep_flows)

    def _solve_fast(self, subset: _Subset, keep_flows: bool) -> MCFResult:
        """Assemble the subset LP from the templates and call HiGHS directly.

        The assembled CSC arrays are exactly what scipy's LP pipeline
        (``_clean_inputs`` → vstack → ``csc_array``) would produce for the
        restricted subnet: same canonical column order (arc-major,
        source-minor, λ last), same ascending rows per column, same float
        values.  HiGHS is deterministic, so the solution bytes match the
        reference assembly's solve of that subnet.
        """
        link_positions = np.flatnonzero(subset.links)
        n_src = self._n_src
        n_nodes = self._n_nodes
        with span(
            "mcf.build",
            arcs=2 * link_positions.size,
            sources=n_src,
            nodes=n_nodes,
        ):
            arc_positions = np.repeat(link_positions * 2, 2)
            arc_positions[1::2] += 1
            n_arcs = arc_positions.size
            n_x = n_arcs * n_src
            lam_nnz = self._lam_rows.size
            n_eq_rows = n_src * n_nodes

            # Rows of the stacked [A_ub; A_eq] matrix: capacity row a (the
            # arc's position within the subset), then the two conservation
            # rows offset by the n_arcs capacity rows.
            rows = np.empty((n_arcs, n_src, 3), dtype=np.int32)
            src_offsets = np.arange(n_src, dtype=np.int32) * n_nodes + n_arcs
            rows[:, :, 0] = np.arange(n_arcs, dtype=np.int32)[:, None]
            rows[:, :, 1] = self._arc_row_lo[arc_positions][:, None] + src_offsets[None, :]
            rows[:, :, 2] = self._arc_row_hi[arc_positions][:, None] + src_offsets[None, :]
            vals = np.empty((n_arcs, n_src, 3))
            vals[:, :, 0] = 1.0
            vals[:, :, 1] = self._arc_val_lo[arc_positions][:, None]
            vals[:, :, 2] = self._arc_val_hi[arc_positions][:, None]

            indices = np.concatenate([rows.reshape(-1), self._lam_rows + np.int32(n_arcs)])
            data = np.concatenate([vals.reshape(-1), self._lam_vals])
            indptr = np.empty(n_x + 2, dtype=np.int32)
            indptr[: n_x + 1] = np.arange(0, 3 * n_x + 1, 3, dtype=np.int32)
            indptr[n_x + 1] = 3 * n_x + lam_nnz

            c = np.zeros(n_x + 1)
            c[n_x] = -1.0
            lb = np.zeros(n_x + 1)
            ub = np.full(n_x + 1, kHighsInf)
            ub[n_x] = LAMBDA_CAP
            lhs = np.concatenate([np.full(n_arcs, -kHighsInf), np.zeros(n_eq_rows)])
            rhs = np.concatenate([self._arc_cap[arc_positions], np.zeros(n_eq_rows)])

        with span("mcf.solve", variables=n_x + 1):
            metrics().inc("mcf.solves")
            res = _run_highs(c, indptr, indices, data, lhs, rhs, lb, ub)

        status, message = _highs_to_scipy_status_message(
            res.get("status", None), res.get("message", None)
        )
        x = res["x"]
        if "slack" in res:
            slack_all = res["slack"]
            slack = np.array(slack_all[:n_arcs])
            con = np.array(slack_all[n_arcs:])
        else:
            slack, con = None, None
        bounds = np.zeros((n_x + 1, 2))
        bounds[:, 1] = np.inf
        bounds[n_x, 1] = LAMBDA_CAP
        status, message = _check_result(
            x, res.get("fun"), status, slack, con, bounds, 1e-9, message, None
        )

        arcs = [self._arc_meta[a] for a in arc_positions]
        result = _finish_result(x, status, message, arcs, self._sources, keep_flows)
        self._learn(subset, arc_positions, x, res.get("row_dual"))
        return result


def _finish_result(
    x,
    status: int,
    message: str,
    arcs: List[Tuple[str, str, str, float, float]],
    sources: List[str],
    keep_flows: bool,
) -> MCFResult:
    """Turn a raw LP solution into an :class:`MCFResult`."""
    if status not in (0, 3):  # 3 = unbounded cannot happen with the cap
        metrics().inc("mcf.failures")
        raise FlowError(f"MCF solver failed: status={status} {message}")
    n_arcs, n_src = len(arcs), len(sources)
    n_x = n_arcs * n_src
    lam_col = n_x
    lam = float(x[lam_col]) if x is not None else 0.0

    # Numerical tolerance: HiGHS returns e.g. 0.9999999997 for exactly-tight
    # instances.
    feasible = lam >= 1.0 - 1e-7

    flow_km = 0.0
    link_loads: Optional[Dict[str, float]] = None
    arcs_out: Optional[Tuple[Tuple[str, str, str, float], ...]] = None
    arc_flows: Optional[Dict[Tuple[str, str], float]] = None
    with span("mcf.extract"):
        if keep_flows and x is not None:
            arcs_out = tuple((aid, tail, head, cap) for aid, tail, head, cap, _l in arcs)
            arc_flows = {}
            for a, (aid, _t, _h, _c, _l) in enumerate(arcs):
                for s, source in enumerate(sources):
                    value = float(x[a * n_src + s])
                    if value > 1e-12:
                        arc_flows[(aid, source)] = value
        if x is not None:
            lengths = np.repeat([arc[4] for arc in arcs], n_src)
            flow_km = float(np.dot(x[:n_x], lengths))
            if lam > 1.0:
                flow_km /= lam  # report at the TM's own scale
            if feasible:
                scale = 1.0 / lam if lam > 1.0 else 1.0
                per_arc = x[:n_x].reshape(n_arcs, n_src).sum(axis=1) * scale
                link_loads = {}
                for a, (aid, _t, _h, _c, _l) in enumerate(arcs):
                    if per_arc[a] > 1e-9:
                        lid = aid[:-2]  # strip the ">f"/">r" direction suffix
                        link_loads[lid] = link_loads.get(lid, 0.0) + float(per_arc[a])

    return MCFResult(
        lam=lam,
        feasible=feasible,
        status=status,
        message=message,
        flow_km=flow_km,
        link_loads=link_loads,
        arcs=arcs_out,
        arc_flows=arc_flows,
    )


def _fingerprint(network: Network, tm: TrafficMatrix) -> Tuple:
    """Content key: identical workloads share a model across rebuilds."""
    return (
        tuple(network.node_ids),
        tuple(
            sorted(
                (link.id, link.u, link.v, float(link.capacity_gbps), float(link.length_km))
                for link in network.iter_links()
            )
        ),
        tuple((pair, float(value)) for pair, value in tm.pairs()),
    )


class ModelCache:
    """Bounded LRU of :class:`McfModel` keyed by workload content.

    Keying by content rather than object identity makes the cache
    self-correcting under topology mutation (a mutated network simply
    fingerprints differently) and lets independently constructed but
    identical workloads — every micro-grid trial, every auction round
    over the same offer universe — share one warm model per process.
    """

    def __init__(self, maxsize: int = 8) -> None:
        self.maxsize = int(maxsize)
        self._models: "OrderedDict[Tuple, McfModel]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, network: Network, tm: TrafficMatrix) -> McfModel:
        key = _fingerprint(network, tm)
        model = self._models.get(key)
        if model is not None:
            self.hits += 1
            self._models.move_to_end(key)
            metrics().inc("mcf.model_cache_hits")
            return model
        self.misses += 1
        metrics().inc("mcf.model_cache_misses")
        model = McfModel(network, tm)
        self._models[key] = model
        if len(self._models) > self.maxsize:
            self._models.popitem(last=False)
        return model

    def clear(self) -> None:
        self._models.clear()

    def __len__(self) -> int:
        return len(self._models)


#: Process-wide cache: oracles, mcf_feasible, and sweep prewarm all share it.
_MODEL_CACHE = ModelCache()


def get_model(network: Network, tm: TrafficMatrix) -> McfModel:
    """The process-wide cached model for this (network, TM) content."""
    return _MODEL_CACHE.get(network, tm)


def model_cache() -> ModelCache:
    """The process-wide :class:`ModelCache` (for stats and tests)."""
    return _MODEL_CACHE
