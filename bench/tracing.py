"""Per-layer spans recorded from outside the program.

A :class:`Tracer` replaces a layer's public function with a wrapper that
records one span per call — ``[name, start, end, parent, child_s, busy]``
on the system-wide monotonic clock — and puts the original back on
:meth:`Tracer.restore`.  Each wrapper patches the attribute the *caller*
looks up (``repro.experiments.figure2.run_auction``, not
``repro.auction.vcg.run_auction``), because a ``from x import f`` binds
the caller's own name at import time.

Synchronous spans nest through a stack, so a span's self time is its
duration minus its children's.  Coroutine functions get a stepping
wrapper that times each resumption, so their ``busy`` time excludes the
time they spent suspended (``read_frame`` waiting for bytes) and their
self time is that busy time.  Spans stay in memory until the benchmark
writes them out at exit.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict, deque
from typing import Callable, Dict, List, Optional, Tuple

clock = time.monotonic


class _Stepped:
    """Awaitable running one coroutine while timing each of its steps."""

    __slots__ = ("coro", "tracer", "name")

    def __init__(self, coro, tracer: "Tracer", name: str) -> None:
        self.coro = coro
        self.tracer = tracer
        self.name = name

    def __await__(self):
        coro = self.coro
        busy = 0.0
        start = None
        value, error = None, None
        while True:
            t = clock()
            if start is None:
                start = t
            try:
                if error is not None:
                    yielded = coro.throw(error)
                else:
                    yielded = coro.send(value)
            except StopIteration as stop:
                end = clock()
                self.tracer.spans.append([self.name, start, end, -1, 0.0, busy + end - t])
                return stop.value
            except BaseException:
                end = clock()
                self.tracer.spans.append([self.name, start, end, -1, 0.0, busy + end - t])
                raise
            busy += clock() - t
            try:
                value, error = (yield yielded), None
            except BaseException as exc:  # delivered into the wrapped coroutine
                value, error = None, exc


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.started = clock()
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        #: Objects whose constructor was wrapped with ``register=``.
        self.instances: Dict[str, list] = defaultdict(list)
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        *,
        count: Optional[Tuple[str, Callable[[object], int]]] = None,
        register: Optional[str] = None,
        on_exit: Optional[Callable[[float], None]] = None,
    ) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``count=(key, fn)`` adds ``fn(result)`` to ``counts[key]``;
        ``register=key`` keeps the constructed object (for ``__init__``);
        ``on_exit`` receives each call's duration.
        """
        original = getattr(owner, attr)
        setattr(owner, attr, self.traced(
            original, name, count=count, register=register, on_exit=on_exit
        ))
        self._undo.append(lambda: setattr(owner, attr, original))

    def traced(self, original, name, *, count=None, register=None, on_exit=None):
        """``original`` wrapped to record spans (see :meth:`wrap`)."""
        if inspect.iscoroutinefunction(original):
            tracer = self

            @functools.wraps(original)
            def stepped(*args, **kwargs):
                return _Stepped(original(*args, **kwargs), tracer, name)

            return stepped
        spans, stack, instances, counts = (
            self.spans, self._stack, self.instances, self.counts
        )

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, 0.0, None]
            spans.append(span)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
                if span[3] >= 0:
                    spans[span[3]][4] += span[2] - span[1]
                if on_exit is not None:
                    on_exit(span[2] - span[1])
            if register is not None:
                instances[register].append(args[0])
            if count is not None:
                counts[count[0]] += count[1](result)
            return result

        return traced

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._undo:
            self._undo.pop()()

    def dump(self) -> Dict[str, object]:
        """Spans and counts as plain JSON-ready data."""
        return {
            "run_id": self.run_id,
            "started": self.started,
            "ended": clock(),
            "spans": self.spans,
            "counts": dict(self.counts),
        }


def span_table(spans: List[list], since: float = float("-inf"),
               until: float = float("inf")) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, busy seconds and self seconds.

    Only spans starting inside ``[since, until)`` count.
    """
    table: Dict[str, Dict[str, float]] = {}
    for name, start, end, _parent, child_s, busy in spans:
        if not since <= start < until:
            continue
        row = table.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        if busy is None:
            row["busy_s"] += end - start
            row["self_s"] += end - start - child_s
        else:
            row["busy_s"] += busy
            row["self_s"] += busy
    return table


def write_jsonl(path, dumps: List[Dict[str, object]]) -> None:
    """Append every span of every dump as ``{name, start, end, parent, run_id}``."""
    with open(path, "a", encoding="utf-8") as out:
        for dump in dumps:
            run_id = dump["run_id"]
            for name, start, end, parent, _child_s, busy in dump["spans"]:
                line = {"name": name, "start": start, "end": end,
                        "parent": parent, "run_id": run_id}
                if busy is not None:
                    line["busy"] = busy
                out.write(json.dumps(line) + "\n")


# -- the layers ---------------------------------------------------------------


def _n_links(network) -> int:
    return len(network.link_ids)


def _n_pairs(tm) -> int:
    return sum(1 for _ in tm.pairs())


def install_clearing(tracer: Tracer) -> None:
    """Spans around the auction pipeline's layers (all clearing workloads)."""
    import repro.auction.sharded as sharded
    import repro.auction.vcg as vcg
    import repro.experiments.figure2 as figure2
    import repro.resilience.chaos as chaos
    import repro.resilience.policy as policy
    import repro.topology.zoo as zoo
    import repro.traffic.hierarchy as hierarchy
    from repro.netflow.feasibility import BaseOracle
    from repro.netflow.model import McfModel
    from repro.sweeps import SweepRunner

    tracer.wrap(SweepRunner, "run", "sweeps.run")
    tracer.wrap(chaos, "micro_scenario", "experiments.workload")
    tracer.wrap(figure2, "figure2_workload", "experiments.workload")
    tracer.wrap(sharded, "continental_workload", "experiments.workload")
    for module in (figure2, policy, sharded):
        tracer.wrap(module, "run_auction", "auction.clear")
    tracer.wrap(sharded, "clear_sharded", "auction.clear")
    tracer.wrap(vcg, "select_links", "auction.select")
    tracer.wrap(sharded, "select_links", "auction.select")
    tracer.wrap(sharded, "split_offers", "auction.sharded_split")
    tracer.wrap(sharded, "split_traffic", "auction.sharded_split")
    tracer.wrap(BaseOracle, "__init__", "netflow.oracle_init", register="oracle")
    tracer.wrap(McfModel, "__init__", "netflow.model_build", register="model")
    tracer.wrap(McfModel, "solve", "netflow.lp_solve")
    tracer.wrap(zoo, "waxman_network", "topology.waxman")
    tracer.wrap(zoo, "bp_logical_links", "topology.logical_links")
    tracer.wrap(zoo, "build_offered_network", "topology.offered_network",
                count=("topology.links", _n_links))
    tracer.wrap(figure2, "traffic_for_zoo", "traffic.matrix",
                count=("traffic.pairs", _n_pairs))
    tracer.wrap(hierarchy, "hierarchical_matrix", "traffic.matrix",
                count=("traffic.pairs", _n_pairs))


def trace_trials(tracer: Tracer, experiment: str) -> None:
    """Re-register a sweep experiment with its trial function traced.

    The sweep runner looks trials up in the registry, so the registry
    entry is the attribute its caller reads.
    """
    import dataclasses

    from repro.sweeps.registry import get_experiment, register

    exp = get_experiment(experiment)
    traced = tracer.traced(exp.trial, "sweeps.trial")
    register(dataclasses.replace(exp, trial=traced), replace=True)
    tracer._undo.append(lambda: register(exp, replace=True))


def netflow_counts(tracer: Tracer) -> Dict[str, float]:
    """Oracle and LP-model counters summed over every instance built."""
    models = tracer.instances.get("model", [])
    oracles = tracer.instances.get("oracle", [])
    solves = sum(m.solves for m in models)
    memo_hits = sum(m.memo_hits for m in models)
    evaluations = sum(o.evaluations for o in oracles)
    hits = sum(o.cache_hits for o in oracles)
    calls = evaluations + hits
    return {
        "netflow.oracle_calls": calls,
        "netflow.oracle_hit_ratio": hits / calls if calls else 0.0,
        "netflow.lp_solves": solves,
        "netflow.memo_hit_ratio": (
            memo_hits / (memo_hits + solves) if memo_hits + solves else 0.0
        ),
        "netflow.cut_shortcircuits": (
            sum(m.cut_shortcircuits for m in models)
            + sum(getattr(o, "shortcircuits", 0) for o in oracles)
        ),
        "netflow.model_builds": len(models),
        "netflow.fallback_solves": sum(m.fallback_solves for m in models),
    }


def install_service(tracer: Tracer, requests: list) -> None:
    """Daemon-side spans: transport, request path, journal, dataplane.

    ``requests`` collects ``[t_submit, queue_wait_s, status]`` per
    request: the time from ``submit`` until its future resolved, minus
    its own answer time.  The worker answers requests in the order their
    futures resolve, so the k-th answered resolution pairs with the k-th
    answer span.  ``os.fsync`` is patched process-wide: inside the
    daemon only the journal calls it.
    """
    import os

    import repro.service.snapshot as snapshot
    import repro.service.transport as transport
    from repro.service import Journal, PocService, ServiceSnapshot

    answers: deque = deque()
    tracer.wrap(transport, "read_frame", "service.decode")
    tracer.wrap(transport, "write_frame", "service.encode")
    for method in ("admit", "allocate", "price", "health_summary"):
        tracer.wrap(ServiceSnapshot, method, "service.answer", on_exit=answers.append)
    tracer.wrap(Journal, "append", "service.journal")
    tracer.wrap(os, "fsync", "service.fsync")
    tracer.wrap(snapshot, "freeze_allocation", "dataplane.freeze")

    answered = ("ok", "degraded", "error")

    def resolved(t_submit: float, future) -> None:
        t = clock()
        if future.cancelled():
            return
        status = future.result().status
        own = answers.popleft() if status in answered and answers else 0.0
        requests.append([t_submit, t - t_submit - own, status])

    submit = PocService.submit

    @functools.wraps(submit)
    def traced_submit(self, *args, **kwargs):
        t_submit = clock()
        future = submit(self, *args, **kwargs)
        future.add_done_callback(functools.partial(resolved, t_submit))
        return future

    PocService.submit = traced_submit
    tracer._undo.append(lambda: setattr(PocService, "submit", submit))
