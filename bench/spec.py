"""What the benchmark measures: workloads, metrics, units, directions, bounds.

This module is the single definition of the benchmark.  ``BENCHMARK.json``
at the repository root restates its gated part; ``test_bench_stats.py``
keeps the two equal.

Every end-to-end metric marked ``gated`` is reported by every workload,
so the two normalized ones have one meaning per workload (see
``README.md``):

- ``norm_ops_per_s``: ``clears_per_s`` on the three clearing workloads,
  ``svc_max_qps`` on ``svc-socket``, at the reference machine speed;
- ``norm_op_p50_ms``: ``clear_p50_ms`` on the clearing workloads,
  ``svc_p50_ms`` on ``svc-socket``, at the reference machine speed.

The remaining end-to-end metrics exist on some workloads only (or read
0 on a healthy run, like ``fail_frac``), so ``BENCHMARK.json`` cannot
list them; ``compare.py`` gates them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: The seed the golden digests in ``expected.json`` are pinned to (the
#: repository-wide CLI default).
DEFAULT_SEED = 2020

#: Seconds one run measures (``--seconds``); BENCHMARK.json's run_seconds.
RUN_SECONDS = 10

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Workload name -> why it is in the benchmark (one line each).
WORKLOADS: Dict[str, str] = {
    "fig2-micro": (
        "serial Figure-2 sweep on the seed-independent micro topology: the "
        "oracle memo and model cache answer most calls"
    ),
    "clear-tiny": (
        "cold VCG clears on one tiny zoo with seeded demand, so no cache "
        "carries over: LP assembly and HiGHS solves dominate"
    ),
    "continental": (
        "T2 substrate build (208k links, topology generation dominates) then "
        "sharded smoke clears with seeded offers"
    ),
    "svc-socket": (
        "journaled POC daemon over a socket: open-loop 1000 qps, closed-loop "
        "saturation, and overload against the 64-slot queue"
    ),
}


@dataclass(frozen=True)
class Metric:
    """One metric: how to read it and how far it may worsen."""

    unit: str
    better: str  # "lower" | "higher"
    #: Share of the parent's median by which the metric may worsen
    #: before a change counts as a regression; None = never gated.
    bound: Optional[float]
    #: Workloads reporting it; None = every workload.
    workloads: Optional[Tuple[str, ...]] = None
    #: Listed in BENCHMARK.json (reported by every workload).
    gated: bool = False


CLEARING = ("fig2-micro", "clear-tiny", "continental")
SERVICE = ("svc-socket",)

#: End-to-end metrics, measured with tracing off.
METRICS: Dict[str, Metric] = {
    "setup_s": Metric("s", "lower", 0.25, gated=True),
    "norm_ops_per_s": Metric("1/s", "higher", 0.25, gated=True),
    "norm_op_p50_ms": Metric("ms", "lower", 0.25, gated=True),
    "peak_rss_mb": Metric("MB", "lower", 0.1, gated=True),
    "fail_frac": Metric("ratio", "lower", 0.0),
    "clears_per_s": Metric("1/s", "higher", 0.25, CLEARING),
    "clear_p50_ms": Metric("ms", "lower", 0.25, CLEARING),
    "build_s": Metric("s", "lower", 0.25, ("continental",)),
    "svc_max_qps": Metric("1/s", "higher", 0.25, SERVICE),
    "svc_p50_ms": Metric("ms", "lower", 0.25, SERVICE),
    "svc_p99_ms": Metric("ms", "lower", 0.25, SERVICE),
    "svc_p999_ms": Metric("ms", "lower", None, SERVICE),
    "svc_overload_qps": Metric("1/s", "higher", 0.25, SERVICE),
    "svc_overload_shed_frac": Metric("ratio", "lower", 0.05, SERVICE),
    "gen_lateness_p99_ms": Metric("ms", "lower", None, SERVICE),
}

#: Per-layer metrics from the traced run, as listed in BENCHMARK.json:
#: name -> (unit, better).  Every workload reports all of them; a layer
#: the workload never enters reads 0.  Time is a share of the traced
#: process's wall time (busy or self time / wall) and counts are per
#: operation, so a run that gets more done in its seconds stays
#: comparable; absolute seconds and totals are in the result file.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "sweeps.run_self_share": ("ratio", "lower"),
    "experiments.workload_share": ("ratio", "lower"),
    "auction.select_self_share": ("ratio", "lower"),
    "auction.sharded_split_share": ("ratio", "lower"),
    "netflow.lp_solve_share": ("ratio", "lower"),
    "netflow.model_build_share": ("ratio", "lower"),
    "topology.build_share": ("ratio", "lower"),
    "traffic.matrix_share": ("ratio", "lower"),
    "service.decode_share": ("ratio", "lower"),
    "service.encode_share": ("ratio", "lower"),
    "service.answer_share": ("ratio", "lower"),
    "service.journal_share": ("ratio", "lower"),
    "service.fsync_share": ("ratio", "lower"),
    "dataplane.freeze_share": ("ratio", "lower"),
    "auction.select_calls_per_op": ("count/op", "lower"),
    "netflow.oracle_calls_per_op": ("count/op", "lower"),
    "netflow.oracle_hit_ratio": ("ratio", "higher"),
    "netflow.lp_solves_per_op": ("count/op", "lower"),
    "netflow.memo_hit_ratio": ("ratio", "higher"),
    "netflow.cut_shortcircuits_per_op": ("count/op", "higher"),
    "netflow.model_builds_per_op": ("count/op", "lower"),
    "netflow.fallback_solves": ("count", "lower"),
    "service.journal_appends_per_request": ("ratio", "lower"),
    "service.cpu_util": ("ratio", "lower"),
}


def metrics_for(workload: str) -> Dict[str, Metric]:
    """The end-to-end metrics one workload reports."""
    return {
        name: metric
        for name, metric in METRICS.items()
        if metric.workloads is None or workload in metric.workloads
    }
