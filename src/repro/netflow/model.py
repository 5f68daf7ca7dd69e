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

:class:`ModelCache` keys models by *content* (node order, sorted link
attributes, TM entries) rather than object identity, so freshly rebuilt
but identical workloads — e.g. every trial of the figure2 micro grid —
share one model per process, and fork-started pool workers inherit the
parent's warmed cache read-only.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np
import scipy.optimize._highspy._core as _h  # type: ignore
from scipy.optimize._highspy._core import (  # type: ignore
    HighsDebugLevel,
    kHighsInf,
    simplex_constants as _simplex_constants,
)
from scipy.optimize._linprog_highs import _highs_to_scipy_status_message  # type: ignore
from scipy.optimize._linprog_util import _check_result  # type: ignore

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
    downstream bytes cannot tell the difference.
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
        }
    )
    return res


#: Relative demand margin for the cut-capacity short circuit.  The LP
#: calls a subset feasible when λ >= 1 - 1e-7; the short circuit only
#: answers "infeasible" when the structural bound λ* <= cap/demand sits
#: below 1 - 1e-4, comfortably clear of both that verdict threshold and
#: HiGHS's 1e-7 feasibility tolerance, so it can never contradict the LP.
_CUT_MARGIN = 1e-4

#: :meth:`McfModel.verdict`'s answer when the cut test proves infeasibility.
CUT_INFEASIBLE = MCFResult(
    lam=0.0, feasible=False, status=2, message="demand exceeds a node's cut capacity"
)


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
        self._memo: "OrderedDict[Tuple[FrozenSet[str], bool], MCFResult]" = OrderedDict()
        self.memo_hits = 0
        self.solves = 0
        self.cut_shortcircuits = 0

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
        self._link_pos: Dict[str, int] = {lid: i for i, lid in enumerate(self._link_ids)}
        n_links = len(links)

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
            for a, (_aid, tail, head, cap, _length) in enumerate(self._arc_meta):
                ti, hi = node_idx[tail], node_idx[head]
                self._arc_cap[a] = cap
                if ti <= hi:
                    self._arc_row_lo[a], self._arc_val_lo[a] = ti, 1.0
                    self._arc_row_hi[a], self._arc_val_hi[a] = hi, -1.0
                else:
                    self._arc_row_lo[a], self._arc_val_lo[a] = hi, -1.0
                    self._arc_row_hi[a], self._arc_val_hi[a] = ti, 1.0

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
        key = self._subset(link_ids)
        memo_key = (key, keep_flows)
        result = self._recall(memo_key)
        if result is None:
            result = self._solve_uncached(key, keep_flows)
            self._memo[memo_key] = result
            if len(self._memo) > MEMO_SIZE:
                self._memo.popitem(last=False)
        return result

    def verdict(self, link_ids: Optional[Iterable[str]] = None) -> MCFResult:
        """Can the subset carry the TM?  Memo, then cut test, then LP.

        The cut test answers "no" without solving when some node's egress
        or ingress demand exceeds the cut capacity of its incident kept
        links (with margin, so it can never contradict the LP).  Its
        answer is :data:`CUT_INFEASIBLE`, whose λ is 0 rather than the
        exact (sub-1) λ, and it is not memoized.
        """
        key = self._subset(link_ids)
        result = self._recall((key, False))
        if result is not None:
            return result
        if self.cut_infeasible(key):
            self.cut_shortcircuits += 1
            metrics().inc("mcf.cut_shortcircuits")
            return CUT_INFEASIBLE
        # Via solve() (whose memo lookup misses again), so every LP solve
        # runs inside the method the benchmark times as netflow.lp_solve.
        return self.solve(key)

    def feasible(self, link_ids: Optional[Iterable[str]] = None) -> bool:
        """``verdict(link_ids).feasible``."""
        return self.verdict(link_ids).feasible

    def cut_infeasible(self, link_ids: Iterable[str]) -> bool:
        """True when a node's demand provably exceeds its incident cut.

        Sound one-way test: a ``True`` answer guarantees the LP would
        report infeasible; ``False`` says nothing.
        """
        if self._empty_tm:
            return False
        positions = self._positions(link_ids)
        node_cap = np.zeros(self._n_nodes)
        np.add.at(node_cap, self._link_u_idx[positions], self._link_cap[positions])
        np.add.at(node_cap, self._link_v_idx[positions], self._link_cap[positions])
        margin = 1.0 - _CUT_MARGIN
        return bool(
            np.any(node_cap < self._egress * margin - 1e-9)
            or np.any(node_cap < self._ingress * margin - 1e-9)
        )

    def clear_memo(self) -> None:
        self._memo.clear()

    # -- internals -----------------------------------------------------------

    def _subset(self, link_ids: Optional[Iterable[str]]) -> FrozenSet[str]:
        key = self._link_set if link_ids is None else frozenset(link_ids)
        missing = key - self._link_set
        if missing:
            raise UnknownLinkError(sorted(missing)[0])
        return key

    def _recall(self, memo_key: Tuple[FrozenSet[str], bool]) -> Optional[MCFResult]:
        """The memoized result, if any, marked as the most recently used."""
        cached = self._memo.get(memo_key)
        if cached is not None:
            self.memo_hits += 1
            self._memo.move_to_end(memo_key)
            metrics().inc("mcf.memo_hits")
        return cached

    def _positions(self, link_ids: Iterable[str]) -> np.ndarray:
        pos = self._link_pos
        try:
            return np.asarray(sorted(pos[lid] for lid in link_ids), dtype=np.int64)
        except KeyError as err:
            raise UnknownLinkError(err.args[0]) from None

    def _solve_uncached(self, key: FrozenSet[str], keep_flows: bool) -> MCFResult:
        self.solves += 1
        if self._empty_tm:
            return MCFResult(lam=LAMBDA_CAP, feasible=True, status=0, message="empty TM")
        if not key:
            return MCFResult(lam=0.0, feasible=False, status=2, message="no links")
        return self._solve_fast(key, keep_flows)

    def _solve_fast(self, key: FrozenSet[str], keep_flows: bool) -> MCFResult:
        """Assemble the subset LP from the templates and call HiGHS directly.

        The assembled CSC arrays are exactly what scipy's LP pipeline
        (``_clean_inputs`` → vstack → ``csc_array``) would produce for the
        restricted subnet: same canonical column order (arc-major,
        source-minor, λ last), same ascending rows per column, same float
        values.  HiGHS is deterministic, so the solution bytes match the
        reference assembly's solve of that subnet.
        """
        link_positions = self._positions(key)
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
        return _finish_result(x, status, message, arcs, self._sources, keep_flows)


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
