"""Parallel scenario sweeps: declarative grids, pooled execution, caching.

The subsystem the ROADMAP's "as many scenarios as you can imagine" goal
rests on.  Dataflow::

    SweepSpec ──trials()──► TrialSupervisor ──► ResultStore ──► aggregate
      (grid)    (seeded)    (in-process/pool)   (JSONL cache)    (group-by)

See DESIGN.md §8 for the full design, trial-key hashing rules, and the
resume semantics.
"""

from repro.sweeps.aggregate import (
    GroupStat,
    MetricStat,
    aggregate,
    format_report,
    report_json,
)
from repro.sweeps.cache import ResultStore, trial_key
from repro.sweeps.registry import (
    Experiment,
    get_experiment,
    register,
    registered_names,
)
from repro.sweeps.runner import (
    SweepProgress,
    SweepResult,
    SweepRunner,
    TrialOutcome,
    run_sweep,
)
from repro.sweeps.spec import Axis, SweepSpec, Trial, load_payload

__all__ = [
    "Axis",
    "Experiment",
    "GroupStat",
    "MetricStat",
    "ResultStore",
    "SweepProgress",
    "SweepResult",
    "SweepRunner",
    "SweepSpec",
    "Trial",
    "TrialOutcome",
    "aggregate",
    "format_report",
    "get_experiment",
    "load_payload",
    "register",
    "registered_names",
    "report_json",
    "run_sweep",
    "trial_key",
]
