"""The experiment registry: names → pure per-trial functions.

Sweep workers never receive pickled callables; they receive an
experiment *name* and look the trial function up here.  That keeps every
trial spawn-safe (a fresh interpreter can resolve the name after
importing this module) and makes the registry the natural home for the
code-version tag that participates in content-addressed trial keys.

A trial function has the signature::

    trial(params: Mapping[str, object], seed: int) -> Mapping[str, float]

It must be a module-level function (picklable by reference), must not
mutate global state, must derive all randomness from ``seed`` via
:mod:`repro.rand`, and must return a flat mapping of metric name →
scalar — the record the aggregation layer consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.exceptions import SweepError

TrialFn = Callable[[Mapping[str, object], int], Mapping[str, object]]
PrewarmFn = Callable[[Mapping[str, object]], None]


@dataclass(frozen=True)
class Experiment:
    """One sweepable experiment."""

    name: str
    trial: TrialFn
    #: Bump whenever the trial function's observable behaviour changes;
    #: it participates in trial keys, so old cached results stop matching.
    version: str
    description: str = ""
    #: Parameters merged under every sweep point unless overridden.
    defaults: Mapping[str, object] = field(default_factory=dict)
    #: Optional cache warmer, called with resolved params before trials
    #: execute: once in the parent before dispatch (so fork-started
    #: workers inherit the warmed read-only state — e.g. the
    #: :mod:`repro.netflow.model` LP model for the sweep's shared
    #: topology) and once in every pool worker at startup.  Must be a pure
    #: cache population: results are required to be byte-identical with
    #: and without it, and any failure is swallowed (prewarming is an
    #: optimization, never a correctness dependency).
    prewarm: Optional[PrewarmFn] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SweepError("experiment name cannot be empty")
        if not callable(self.trial):
            raise SweepError(f"trial for {self.name!r} is not callable")
        if not self.version:
            raise SweepError(f"experiment {self.name!r} needs a version tag")
        object.__setattr__(self, "defaults", dict(self.defaults))

    def resolved_params(self, params: Mapping[str, object]) -> Dict[str, object]:
        merged = dict(self.defaults)
        merged.update(params)
        return merged


_REGISTRY: Dict[str, Experiment] = {}
_BUILTINS_LOADED = False


def register(experiment: Experiment, *, replace: bool = False) -> Experiment:
    """Add an experiment to the registry (``replace=True`` to redefine)."""
    if experiment.name in _REGISTRY and not replace:
        raise SweepError(f"experiment {experiment.name!r} is already registered")
    _REGISTRY[experiment.name] = experiment
    return experiment


def _load_builtins() -> None:
    # Imported lazily: trials.py imports heavyweight experiment modules,
    # and it registers itself through this module, so a top-level import
    # here would cycle.
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    import repro.experiments.trials  # noqa: F401  (registers on import)


def get_experiment(name: str) -> Experiment:
    """Look an experiment up by name, loading built-ins on first use."""
    _load_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SweepError(
            f"unknown experiment {name!r}; registered: {registered_names()}"
        ) from None


def registered_names() -> Tuple[str, ...]:
    _load_builtins()
    return tuple(sorted(_REGISTRY))


def describe_all() -> List[str]:
    """One line per registered experiment, for ``--help`` style listings."""
    _load_builtins()
    return [
        f"{exp.name:<12} v{exp.version:<4} {exp.description}"
        for exp in (_REGISTRY[name] for name in sorted(_REGISTRY))
    ]
