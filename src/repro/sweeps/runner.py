"""Sweep execution with content-addressed caching and resume.

The runner turns a :class:`~repro.sweeps.spec.SweepSpec` into trial
results through four steps:

1. resolve every trial's parameters (experiment defaults ∪ grid point)
   and its content-addressed key;
2. drop trials already quarantined or already in the result store;
3. hand the rest to :class:`~repro.resilience.supervisor.TrialSupervisor`,
   the one executor: in-process for ``workers <= 1``, otherwise on its
   worker pool, where each trial goes to whichever worker is free.
   Workers receive the experiment *name* and look the trial function
   up in the registry, so both fork and spawn start methods work; each
   trial is wrapped in the bounded-retry policy from
   :mod:`repro.resilience.policy`;
4. append each result to the store as it lands in the parent (single
   writer by construction, so an interrupted sweep keeps everything that
   finished) and reassemble all results in trial order, so aggregates
   are byte-identical however the work was spread.

Because every trial's seed is derived content-addressably (see
:meth:`SweepSpec.trials`) and results are keyed by content, a sweep
interrupted at any point re-executes only the missing trials on the
next run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro import obs
from repro.exceptions import InvariantViolation, ReproError, SweepError
from repro.experiments.pipeline import PipelineCheckpoint
from repro.rand import derive_seed
from repro.resilience.policy import RetryPolicy, call_with_retry
from repro.resilience.supervisor import (
    IncidentRecord,
    QuarantineLog,
    TrialSupervisor,
    _seed_worker_globals,
    format_incidents,
)
from repro.sweeps.aggregate import GroupStat, aggregate, format_report, report_json
from repro.sweeps.cache import ResultStore, trial_key
from repro.sweeps.registry import get_experiment
from repro.sweeps.spec import SweepSpec
from repro.validate.invariants import ValidationPolicy, check_record

#: (index, resolved params, seed, key) — everything a worker needs.
TrialTask = Tuple[int, Dict[str, object], int, str]


@dataclass(frozen=True)
class SweepProgress:
    """One progress beat: how far along the sweep is and the ETA."""

    done: int  # trials finished this run (executed, not cached)
    pending: int  # trials this run must execute in total
    cached: int  # trials served from the result store
    total: int  # trials in the spec
    elapsed_s: float

    @property
    def eta_s(self) -> Optional[float]:
        if self.done == 0 or self.pending == 0:
            return None
        remaining = self.pending - self.done
        return self.elapsed_s / self.done * remaining

    def formatted(self) -> str:
        eta = self.eta_s
        eta_text = f"eta {eta:5.1f}s" if eta is not None else "eta   —  "
        return (
            f"sweep: {self.done}/{self.pending} executed "
            f"(+{self.cached} cached of {self.total})  "
            f"{self.elapsed_s:6.1f}s elapsed  {eta_text}"
        )


@dataclass(frozen=True)
class TrialOutcome:
    """One trial's result and where it came from."""

    index: int
    params: Mapping[str, object]
    seed: int
    key: str
    record: Mapping[str, object]
    cached: bool


@dataclass
class SweepResult:
    """Everything a sweep produced, in trial order."""

    experiment: str
    spec: SweepSpec
    outcomes: List[TrialOutcome] = field(default_factory=list)
    elapsed_s: float = 0.0
    workers: int = 0
    #: Supervision journal: every timeout, crash, respawn, quarantine,
    #: validation failure, … this run endured (empty when nothing happened).
    incidents: List[IncidentRecord] = field(default_factory=list)
    #: Trials this run quarantined (poison or invariant-invalid); they are
    #: excluded from ``outcomes`` so aggregates match a sweep that never
    #: contained them.
    quarantined: List[Dict[str, object]] = field(default_factory=list)
    #: Workers replaced after crashes/hang-kills.
    respawns: int = 0

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def executed(self) -> int:
        return sum(1 for o in self.outcomes if not o.cached)

    @property
    def cache_hit_rate(self) -> float:
        if not self.outcomes:
            return 0.0
        return self.cache_hits / len(self.outcomes)

    def rows(self) -> List[Tuple[Mapping[str, object], Mapping[str, object]]]:
        return [(o.params, o.record) for o in self.outcomes]

    def aggregate(self, group_by: Sequence[str] = ()) -> List[GroupStat]:
        return aggregate(self.rows(), group_by=group_by)

    def format_report(
        self,
        group_by: Sequence[str] = (),
        metrics: Optional[Sequence[str]] = None,
    ) -> str:
        return format_report(
            self.experiment, self.aggregate(group_by), metrics=metrics
        )

    def report_json(self, group_by: Sequence[str] = ()) -> str:
        return report_json(self.experiment, self.aggregate(group_by))

    def stats_line(self) -> str:
        """Run accounting (kept out of the byte-stable report)."""
        line = (
            f"sweep {self.experiment}: trials={len(self.outcomes)} "
            f"executed={self.executed} cached={self.cache_hits} "
            f"workers={self.workers}"
        )
        if self.quarantined:
            line += f" quarantined={len(self.quarantined)}"
        if self.respawns:
            line += f" respawns={self.respawns}"
        return line

    def supervision_report(self) -> str:
        """The incident journal and quarantine ledger as text (``--report``)."""
        lines = [format_incidents(self.incidents)]
        if self.quarantined:
            lines.append(f"quarantined {len(self.quarantined)} trial(s):")
            for entry in self.quarantined:
                lines.append(
                    f"  {str(entry.get('key', ''))[:12]}… "
                    f"kind={entry.get('kind')} attempts={entry.get('attempts')} "
                    f"seed={entry.get('seed')} params={entry.get('params')}"
                )
        if self.respawns:
            lines.append(f"worker respawns: {self.respawns}")
        return "\n".join(lines)


def _run_trial_with_retry(
    experiment_name: str, task: TrialTask, retry: RetryPolicy
) -> Tuple[int, Dict[str, object]]:
    """Execute one trial under the bounded-retry policy.

    Runs in the worker process.  Failures that survive the retries are
    re-raised as :class:`SweepError` (always picklable) naming the trial,
    so the parent can report which grid point is broken.
    """
    index, params, seed, key = task
    exp = get_experiment(experiment_name)

    def attempt() -> Mapping[str, object]:
        # Pin the *global* RNG streams per attempt so a trial re-run on a
        # respawned worker (or retried in place) is byte-identical to its
        # first-worker execution even if experiment code leaks global
        # randomness.
        obs.metrics().inc("trial.attempts")
        _seed_worker_globals(seed)
        return exp.trial(params, seed)

    try:
        with obs.trial_scope(experiment_name, key=key, index=index, seed=seed):
            record = call_with_retry(
                attempt,
                policy=retry,
                retry_on=(ReproError,),
                # Jitter is seeded from the trial so backoff is reproducible.
                seed=derive_seed(seed, "retry-jitter"),
            )
    except Exception as exc:
        raise SweepError(
            f"trial {index} (params={params!r}, seed={seed}) failed after "
            f"{retry.max_attempts} attempt(s): {exc!r}"
        ) from None
    if not isinstance(record, Mapping):
        raise SweepError(
            f"trial {index} of experiment {experiment_name!r} returned "
            f"{type(record).__name__}, expected a mapping of metrics"
        )
    return index, dict(record)


class SweepRunner:
    """Executes sweeps for one registered experiment.

    Every sweep runs on :class:`TrialSupervisor`: ``workers <= 1``
    in-process (bit-for-bit the reference execution), ``workers > 1`` on
    its process pool with the given multiprocessing start method
    (``None`` = platform default), where a crashed worker is respawned
    and its trial retried.  A :class:`ResultStore` (or a path to one)
    enables content-addressed caching; a :class:`PipelineCheckpoint`
    pins the sweep's spec fingerprint so a resumed run cannot silently
    mix results from a different grid.

    ``supervised`` (implied by ``trial_timeout_s``) decides what a
    poison trial does — one that keeps failing, timing out or crashing
    its worker: supervised, it is quarantined and the sweep goes on;
    otherwise the sweep stops with a :class:`SweepError` naming it.
    ``trial_timeout_s`` sets a per-trial deadline — see
    :mod:`repro.resilience.supervisor`.  ``validation`` runs the
    invariant suite (:mod:`repro.validate.invariants`) over every fresh
    *and* cached record: ``warn`` journals violations, ``quarantine``
    additionally keeps invalid results out of the store and the
    outcomes, ``strict`` aborts the sweep with
    :class:`InvariantViolation`.
    """

    def __init__(
        self,
        experiment: str,
        *,
        workers: int = 0,
        start_method: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
        store: Union[ResultStore, str, None] = None,
        checkpoint: Optional[PipelineCheckpoint] = None,
        on_progress: Optional[Callable[[SweepProgress], None]] = None,
        trial_timeout_s: Optional[float] = None,
        supervised: Optional[bool] = None,
        validation: Union[str, ValidationPolicy] = "off",
        quarantine: Union[QuarantineLog, str, None] = None,
        max_trial_attempts: int = 2,
        respawn_budget: int = 8,
    ) -> None:
        if workers < 0:
            raise SweepError(f"workers must be >= 0, got {workers}")
        self.experiment = get_experiment(experiment)
        self.workers = workers
        self.start_method = start_method
        # Backoff delays default to zero: trial failures here are
        # deterministic bugs or solver hiccups, not remote throttling.
        self.retry = retry or RetryPolicy(
            max_attempts=2, base_delay_s=0.0, max_delay_s=0.0, jitter=0.0
        )
        self.store = ResultStore(store) if isinstance(store, str) else store
        self.checkpoint = checkpoint
        self.on_progress = on_progress
        self.trial_timeout_s = trial_timeout_s
        self.supervised = (
            supervised if supervised is not None else trial_timeout_s is not None
        )
        self.validation = (
            ValidationPolicy(validation) if isinstance(validation, str) else validation
        )
        self.max_trial_attempts = max_trial_attempts
        self.respawn_budget = respawn_budget
        if isinstance(quarantine, QuarantineLog):
            self.quarantine = quarantine
        elif quarantine is not None:
            self.quarantine = QuarantineLog(quarantine)
        elif (self.supervised or self.validation.blocks_cache) and self.store is not None:
            # Default the ledger next to the store so re-runs see it.
            self.quarantine = QuarantineLog(
                self.store.path.parent / "quarantine.jsonl"
            )
        else:
            self.quarantine = QuarantineLog(None)
        # Per-run supervision state, reset by run().
        self._incidents: List[IncidentRecord] = []
        self._quarantined: List[Dict[str, object]] = []
        self._respawns = 0

    # -- internals ------------------------------------------------------------

    def _tasks(self, spec: SweepSpec) -> List[TrialTask]:
        tasks: List[TrialTask] = []
        for trial in spec.trials():
            params = self.experiment.resolved_params(trial.params)
            key = trial_key(
                self.experiment.name, self.experiment.version, params, trial.seed
            )
            tasks.append((trial.index, params, trial.seed, key))
        return tasks

    def _check_checkpoint(self, spec: SweepSpec) -> None:
        if self.checkpoint is None:
            return
        fingerprint = spec.fingerprint()
        recorded = self.checkpoint.get("sweep-spec")
        if recorded is not None and recorded.get("fingerprint") != fingerprint:
            raise SweepError(
                "checkpoint belongs to a different sweep "
                f"(fingerprint {recorded.get('fingerprint', '?')[:12]}… != "
                f"{fingerprint[:12]}…); use a fresh checkpoint path"
            )
        if recorded is None:
            self.checkpoint.save(
                "sweep-spec",
                {
                    "experiment": self.experiment.name,
                    "version": self.experiment.version,
                    "fingerprint": fingerprint,
                },
            )

    def _progress(self, beat: SweepProgress) -> None:
        if self.on_progress is not None:
            self.on_progress(beat)

    def _persist(self, task: TrialTask, record: Dict[str, object]) -> None:
        """Append one finished trial to the store as soon as it lands.

        Persisting per-trial (not at sweep end) is what makes an
        interrupted sweep resumable: whatever completed before the crash
        is already on disk.
        """
        if self.store is None:
            return
        index, params, seed, key = task
        self.store.append(
            key,
            experiment=self.experiment.name,
            params=params,
            seed=seed,
            record=record,
        )

    def _admit(self, task: TrialTask, record: Mapping[str, object]) -> bool:
        """Gate one result through the invariant suite.

        Returns True when the record may be persisted and reported.
        Under ``warn`` a violating record is journaled but kept; under
        ``quarantine`` it is ledgered and dropped; ``strict`` raises.
        """
        if not self.validation.enabled:
            return True
        index, params, seed, key = task
        violations = check_record(self.experiment.name, record)
        if not violations:
            return True
        detail = "; ".join(str(v) for v in violations)
        if self.validation.mode == "strict":
            raise InvariantViolation(f"trial {index} ({key[:12]}…)", violations)
        if self.validation.mode == "warn":
            self._incidents.append(IncidentRecord(
                kind="invalid", index=index, key=key, attempt=0,
                wall_time_s=0.0, disposition="warned", detail=detail,
            ))
            return True
        self._incidents.append(IncidentRecord(
            kind="invalid", index=index, key=key, attempt=0,
            wall_time_s=0.0, disposition="quarantined", detail=detail,
        ))
        entry = {
            "key": key,
            "experiment": self.experiment.name,
            "index": index,
            "params": dict(params),
            "seed": seed,
            "kind": "invalid",
            "attempts": 1,
            "wall_time_s": 0.0,
            "traceback": detail,
        }
        self.quarantine.append(entry)
        self._quarantined.append(entry)
        return False

    def _admit_cached(self, task: TrialTask, record: Mapping[str, object]) -> bool:
        """Validate a record served from the store.

        The store is append-only, so an invalid cached record cannot be
        deleted here — under ``quarantine`` it is journaled and excluded
        from this run's outcomes (``poc-repro audit`` finds and reports
        it); ``strict`` refuses to build on a poisoned cache at all.
        """
        if not self.validation.enabled:
            return True
        index, _params, _seed, key = task
        violations = check_record(self.experiment.name, record)
        if not violations:
            return True
        detail = "; ".join(str(v) for v in violations)
        if self.validation.mode == "strict":
            raise InvariantViolation(
                f"cached trial {index} ({key[:12]}…)", violations
            )
        disposition = "warned" if self.validation.mode == "warn" else "quarantined"
        self._incidents.append(IncidentRecord(
            kind="invalid", index=index, key=key, attempt=0,
            wall_time_s=0.0, disposition=disposition,
            detail=f"cached record: {detail}",
        ))
        return self.validation.mode == "warn"

    def _execute(
        self, pending: List[TrialTask], cached: int, total: int, started: float
    ) -> Dict[int, Dict[str, object]]:
        """Run the pending trials on the :class:`TrialSupervisor`.

        The supervisor owns execution (prewarm, deadlines, respawn, poison
        trials); the runner keeps validation, persistence, progress, and
        the checkpoint via callbacks.  Even an interrupted run's incident
        journal is folded into the runner's state before the
        :class:`~repro.exceptions.SweepInterrupted` propagates.
        """
        progress = {"done": 0}

        def on_result(
            task: TrialTask, record: Dict[str, object], _elapsed: float
        ) -> bool:
            keep = self._admit(task, record)
            if keep:
                self._persist(task, record)
            progress["done"] += 1
            self._progress(SweepProgress(
                done=progress["done"], pending=len(pending), cached=cached,
                total=total, elapsed_s=time.monotonic() - started,
            ))
            return keep

        def on_interrupt(remaining: int) -> None:
            if self.checkpoint is not None:
                self.checkpoint.save(
                    "sweep-interrupted",
                    {
                        "remaining": remaining,
                        "executed": progress["done"],
                        "quarantined": len(self._quarantined),
                    },
                )

        supervisor = TrialSupervisor(
            self.experiment.name,
            workers=self.workers,
            start_method=self.start_method,
            retry=self.retry,
            trial_timeout_s=self.trial_timeout_s,
            max_trial_attempts=self.max_trial_attempts,
            respawn_budget=self.respawn_budget,
            # No ledger: a poison trial stops the sweep instead.
            quarantine=self.quarantine if self.supervised else None,
            on_result=on_result,
            on_interrupt=on_interrupt,
        )
        try:
            outcome = supervisor.run(pending)
        finally:
            last = supervisor.last_outcome
            if last is not None:
                self._incidents.extend(last.incidents)
                self._quarantined.extend(last.quarantined)
                self._respawns += last.respawns
        return outcome.records

    # -- the public entry point -----------------------------------------------

    def run(self, spec: SweepSpec) -> SweepResult:
        """Execute (or resume) a sweep and return results in trial order.

        Quarantined trials (from this run or a previous one) and
        validation-rejected records are *excluded* from the outcomes, so
        aggregates equal those of a sweep that never contained them.
        """
        started = time.monotonic()
        self._incidents = []
        self._quarantined = []
        self._respawns = 0
        if self.store is not None and self.store.corrupt_lines:
            self._incidents.append(IncidentRecord(
                kind="store-corruption", index=-1, key="", attempt=0,
                wall_time_s=0.0, disposition="recovered",
                detail=f"{self.store.corrupt_lines} corrupt line(s) skipped "
                       f"loading {self.store.path}; lost trials re-execute",
            ))
        if self.checkpoint is not None and self.checkpoint.recovered:
            self._incidents.append(IncidentRecord(
                kind="store-corruption", index=-1, key="", attempt=0,
                wall_time_s=0.0, disposition="recovered",
                detail=f"checkpoint {self.checkpoint.path} was unreadable; "
                       "started fresh",
            ))
        self._check_checkpoint(spec)
        tasks = self._tasks(spec)
        keys = [key for _, _, _, key in tasks]
        if len(set(keys)) != len(keys):
            raise SweepError(
                "spec produces duplicate trials (same params and seed); "
                "use repeats= or a seed axis to distinguish them"
            )

        cached_records: Dict[int, Mapping[str, object]] = {}
        pending: List[TrialTask] = []
        for task in tasks:
            index, _params, _seed, key = task
            if self.quarantine.has(key):
                self._incidents.append(IncidentRecord(
                    kind="quarantine-skip", index=index, key=key, attempt=0,
                    wall_time_s=0.0, disposition="skipped",
                    detail="already quarantined; clear the quarantine "
                           "ledger to retry",
                ))
                continue
            record = self.store.record(key) if self.store is not None else None
            if record is not None:
                if self._admit_cached(task, record):
                    cached_records[index] = record
            else:
                pending.append(task)

        self._progress(SweepProgress(
            done=0, pending=len(pending), cached=len(cached_records),
            total=len(tasks), elapsed_s=time.monotonic() - started,
        ))
        executed = self._execute(
            pending, len(cached_records), len(tasks), started
        )

        outcomes: List[TrialOutcome] = []
        for index, params, seed, key in tasks:
            if index in cached_records:
                outcomes.append(TrialOutcome(
                    index=index, params=params, seed=seed, key=key,
                    record=cached_records[index], cached=True,
                ))
                continue
            record = executed.get(index)
            if record is None:
                continue  # quarantined or validation-rejected this run
            outcomes.append(TrialOutcome(
                index=index, params=params, seed=seed, key=key,
                record=record, cached=False,
            ))

        result = SweepResult(
            experiment=self.experiment.name,
            spec=spec,
            outcomes=outcomes,
            elapsed_s=time.monotonic() - started,
            workers=self.workers,
            incidents=list(self._incidents),
            quarantined=list(self._quarantined),
            respawns=self._respawns,
        )
        if self.checkpoint is not None:
            self.checkpoint.save(
                "sweep-complete",
                {
                    "trials": len(outcomes),
                    "executed": result.executed,
                    "cache_hits": result.cache_hits,
                },
            )
        if obs.is_enabled():
            obs.write_sweep_summary(
                experiment=result.experiment,
                trials=len(outcomes),
                executed=result.executed,
                cache_hits=result.cache_hits,
                elapsed_s=result.elapsed_s,
                workers=result.workers,
                quarantined=len(result.quarantined),
                respawns=result.respawns,
            )
        return result


def run_sweep(experiment: str, spec: SweepSpec, **options) -> SweepResult:
    """One-call convenience wrapper: ``SweepRunner(experiment, **options).run(spec)``."""
    return SweepRunner(experiment, **options).run(spec)
