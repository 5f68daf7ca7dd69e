"""Trial execution for every sweep: deadlines, respawn, poison trials, shutdown.

:class:`TrialSupervisor` is the one executor behind
:class:`~repro.sweeps.runner.SweepRunner`.  ``workers <= 1`` runs the
trials in this process; ``workers > 1`` runs them on a pool of worker
processes, each handed the next trial as soon as it is free.  Either
way it layers four defenses around trial execution:

1. **per-trial deadlines** (only with ``trial_timeout_s``) — ``SIGALRM``
   interrupts Python-level overruns cleanly; in a pool, a parent-side
   watchdog thread reading per-worker *heartbeat files* catches hard
   hangs (C code that never returns to the interpreter) and kills the
   worker.  An in-process run that cannot arm the alarm (off the main
   thread, or no ``SIGALRM``) refuses to start rather than ignore its
   deadline;
2. **bounded respawn** — crashed or killed workers are replaced up to a
   respawn budget, and the trial they were running is retried;
3. **poison trials** — a trial that times out or crashes its worker
   ``max_trial_attempts`` times, or raises a deterministic error after
   its in-worker retries, is poison.  With a :class:`QuarantineLog` it
   is appended to the ledger (params, seed, traceback) and the run goes
   on; without one the run stops with a
   :class:`~repro.exceptions.SweepError` naming the trial;
4. **graceful SIGINT/SIGTERM shutdown** (when run on the main thread) —
   stop dispatching, drain in-flight results (each is persisted by the
   runner's callback as it lands), notify the checkpoint, then raise
   :class:`~repro.exceptions.SweepInterrupted` so the sweep is
   resumable.

Before dispatch the experiment's byte-neutral ``prewarm`` hook warms
the parent's caches, and every pool worker (forked, spawned or
respawned) warms its own at startup.

Every notable event becomes an :class:`IncidentRecord` in a structured
journal, surfaced through ``poc-repro sweep --report``.
"""

from __future__ import annotations

import json
import os
import pathlib
import queue as queue_mod
import shutil
import signal
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Deque, Dict, Iterator, List, Optional
from typing import Tuple, Union

from repro.exceptions import (
    SweepError,
    SweepInterrupted,
    TrialTimeoutError,
    WorkerCrashError,
)
from repro.resilience.policy import RetryPolicy

if TYPE_CHECKING:
    from repro.sweeps.runner import TrialTask

#: How often the watchdog reads heartbeats, and how long the pool loop
#: waits for a result before checking on its workers.
POLL_INTERVAL_S = 0.05
#: Floor of the watchdog's grace past a trial's deadline before it kills
#: the worker; the grace is ``max(WATCHDOG_GRACE_S, 0.5 * trial_timeout_s)``.
WATCHDOG_GRACE_S = 2.0
#: How long a signalled pool waits for in-flight trials before raising.
SHUTDOWN_GRACE_S = 5.0
#: Distinct resolved-param sets warmed before dispatch.  Grids typically
#: share one workload across many points, so a handful covers a sweep;
#: the bound keeps a pathological grid from making warming a second sweep.
PREWARM_LIMIT = 8

#: Incident kinds, in rough order of severity.
INCIDENT_KINDS = (
    "timeout",          # worker-side alarm fired
    "hang",             # watchdog killed a worker that ignored its alarm
    "crash",            # worker process died mid-trial
    "failure",          # trial raised after its in-worker retries
    "invalid",          # result failed the invariant suite
    "respawn",          # a replacement worker was started
    "quarantine",       # trial written to quarantine.jsonl
    "quarantine-skip",  # trial skipped because it was already quarantined
    "interrupt",        # SIGINT/SIGTERM graceful shutdown
    "store-corruption", # result store / checkpoint recovered from bad data
)


class _AlarmTimeout(BaseException):
    """Raised by the worker's SIGALRM handler.

    Deliberately *not* a :class:`ReproError` (nor even an ``Exception``)
    so it pierces both the in-worker retry policy and the generic
    trial-failure wrapping: a deadline overrun must surface as a timeout,
    never be retried in-place or misfiled as an ordinary trial error.
    """


@dataclass(frozen=True)
class IncidentRecord:
    """One supervision event: what happened, to which trial, and the outcome."""

    kind: str
    index: int  # trial index (-1 for sweep-level incidents)
    key: str  # content-addressed trial key ("" for sweep-level)
    attempt: int  # attempt number this incident belongs to (0 = n/a)
    wall_time_s: float  # elapsed wall time of the attempt (0 = n/a)
    disposition: str  # "retried" | "quarantined" | "warned" | "flushed" | ...
    detail: str = ""

    def __post_init__(self) -> None:
        if self.kind not in INCIDENT_KINDS:
            raise SweepError(
                f"unknown incident kind {self.kind!r}; expected {INCIDENT_KINDS}"
            )

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "index": self.index,
            "key": self.key,
            "attempt": self.attempt,
            "wall_time_s": self.wall_time_s,
            "disposition": self.disposition,
            "detail": self.detail,
        }

    def format_line(self) -> str:
        where = f"trial {self.index}" if self.index >= 0 else "sweep"
        key = f" [{self.key[:12]}…]" if self.key else ""
        attempt = f" attempt {self.attempt}" if self.attempt else ""
        detail = f" — {self.detail}" if self.detail else ""
        return (
            f"{self.kind:<16} {where}{key}{attempt} -> "
            f"{self.disposition}{detail}"
        )


class QuarantineLog:
    """Append-only JSONL ledger of poison trials.

    One line per quarantined trial: the content-addressed key, the
    resolved params and seed (enough to reproduce it in isolation), the
    failure kind, attempt count, and the traceback.  Loading tolerates
    torn or corrupt lines exactly like the result store — a crash while
    appending can never brick the ledger.  ``path=None`` keeps the log
    in memory only (tests, ad-hoc sweeps without a store).
    """

    def __init__(self, path: Union[str, pathlib.Path, None]) -> None:
        self.path = pathlib.Path(path) if path is not None else None
        self._entries: List[Dict[str, object]] = []
        self._keys: Dict[str, Dict[str, object]] = {}
        self.corrupt_lines = 0
        self._load()

    def _load(self) -> None:
        if self.path is None or not self.path.exists():
            return
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    self.corrupt_lines += 1
                    continue
                if isinstance(entry, dict) and isinstance(entry.get("key"), str):
                    self._record(entry)
                else:
                    self.corrupt_lines += 1

    def _record(self, entry: Dict[str, object]) -> None:
        self._entries.append(entry)
        self._keys[entry["key"]] = entry

    def __len__(self) -> int:
        return len(self._entries)

    def has(self, key: str) -> bool:
        return key in self._keys

    def get(self, key: str) -> Optional[Dict[str, object]]:
        return self._keys.get(key)

    def entries(self) -> Iterator[Dict[str, object]]:
        return iter(list(self._entries))

    def append(self, entry: Dict[str, object]) -> None:
        """Persist one quarantined trial (one fsynced line, like the store)."""
        if not isinstance(entry.get("key"), str):
            raise SweepError("quarantine entries need a string 'key'")
        if self.path is not None:
            line = json.dumps(entry, sort_keys=True, default=str)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write(line + "\n")
                handle.flush()
                os.fsync(handle.fileno())
        self._record(dict(entry))


# -- worker side --------------------------------------------------------------


def _seed_worker_globals(trial_seed: int) -> None:
    """Pin *global* RNG state to the trial's derived seed.

    Trial functions are contractually required to draw randomness only
    from their explicit seed, but a stray ``np.random.*`` call in deep
    experiment code would otherwise make results depend on which worker
    (original or respawned) ran the trial.  Seeding the global streams
    per-trial makes every execution — serial, pooled, or after a
    supervisor respawn — byte-identical.
    """
    import random

    import numpy as np

    random.seed(trial_seed)
    np.random.seed(trial_seed % 2**32)


def _prewarm_param_sets(
    experiment_name: str, tasks: List[TrialTask]
) -> List[Dict[str, object]]:
    """The first :data:`PREWARM_LIMIT` distinct param sets among ``tasks``
    (none when the experiment has no ``prewarm`` hook)."""
    from repro.sweeps.registry import get_experiment

    if get_experiment(experiment_name).prewarm is None:
        return []
    seen = set()
    out: List[Dict[str, object]] = []
    for _index, params, _seed, _key in tasks:
        marker = repr(sorted(params.items(), key=lambda kv: kv[0]))
        if marker in seen:
            continue
        seen.add(marker)
        out.append(params)
        if len(out) >= PREWARM_LIMIT:
            break
    return out


def _prewarm(experiment_name: str, param_sets: List[Dict[str, object]]) -> None:
    """Warm this process's caches for the given param sets.

    Prewarming is an optimization, never a correctness dependency (the
    :class:`~repro.sweeps.registry.Experiment` contract), so every
    failure is swallowed — the trial rebuilds whatever is missing.
    """
    from repro.sweeps.registry import get_experiment

    for params in param_sets:
        try:
            get_experiment(experiment_name).prewarm(params)
        except Exception:
            continue  # also a spawned worker that cannot resolve the name


def _format_wall(wall_s: float) -> str:
    """Render a wall-clock stamp for incident records (reporting only —
    elapsed/deadline math never touches wall time)."""
    from datetime import datetime, timezone

    try:
        stamp = datetime.fromtimestamp(wall_s, tz=timezone.utc)
    except (OverflowError, OSError, ValueError):
        return f"at unix {wall_s:.0f}"
    return stamp.strftime("%Y-%m-%dT%H:%M:%SZ")


def _write_heartbeat(path: str, payload: Dict[str, object]) -> None:
    """Atomically publish this worker's current state for the watchdog."""
    try:
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)
    except OSError:
        pass  # heartbeats are advisory; never kill a trial over one


def _read_heartbeat(path: str) -> Optional[Dict[str, object]]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


def _worker_main(
    worker_id: int,
    experiment_name: str,
    retry: RetryPolicy,
    trial_timeout_s: Optional[float],
    heartbeat_path: Optional[str],
    prewarm_params: List[Dict[str, object]],
    task_queue,
    result_queue,
) -> None:
    """Worker loop: warm caches, then pull a task, run it, report, repeat.

    Module-level (spawn-picklable).  The worker never dies of a trial
    failure — it reports and moves on; only a sentinel (or the parent's
    kill) ends it.  SIGINT is ignored here: shutdown is the parent's
    call, delivered as a sentinel or a kill.  Under a deadline the
    trial runs under ``SIGALRM`` and the worker publishes heartbeats
    for the parent's watchdog; without one it does neither.
    """
    import traceback as tb_mod

    from repro.sweeps.runner import _run_trial_with_retry

    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except ValueError:  # pragma: no cover - non-main-thread embedding
        pass

    use_alarm = trial_timeout_s is not None and hasattr(signal, "SIGALRM")
    if use_alarm:
        def _on_alarm(_signum, _frame):
            raise _AlarmTimeout()

        signal.signal(signal.SIGALRM, _on_alarm)

    _prewarm(experiment_name, prewarm_params)
    while True:
        task = task_queue.get()
        if task is None:
            break
        index, _params, _seed, key = task
        if heartbeat_path is not None:
            _write_heartbeat(heartbeat_path, {
                "pid": os.getpid(), "busy": True, "index": index, "key": key,
                # Elapsed-time math uses the monotonic stamp (CLOCK_MONOTONIC
                # is shared across processes on the same boot, so the
                # parent's monotonic clock is directly comparable); the wall
                # stamp is kept purely for human-readable incident records —
                # an NTP step or a manual clock change must never look like a
                # hung trial.
                "started_mono": time.monotonic(),
                "started_wall": time.time(),
            })
        started = time.monotonic()
        try:
            if use_alarm:
                signal.setitimer(signal.ITIMER_REAL, float(trial_timeout_s))
            try:
                # _run_trial_with_retry pins global RNG state per attempt,
                # so respawned workers reproduce results byte-identically.
                _index, record = _run_trial_with_retry(
                    experiment_name, task, retry
                )
            finally:
                if use_alarm:
                    signal.setitimer(signal.ITIMER_REAL, 0.0)
        except _AlarmTimeout:
            elapsed = time.monotonic() - started
            err = TrialTimeoutError(index, float(trial_timeout_s or 0.0),
                                    "worker-side alarm")
            result_queue.put(
                ("failure", worker_id, index, "timeout", str(err), repr(err),
                 elapsed)
            )
        except Exception as exc:
            elapsed = time.monotonic() - started
            result_queue.put(
                ("failure", worker_id, index, "failure", str(exc),
                 tb_mod.format_exc(), elapsed)
            )
        else:
            elapsed = time.monotonic() - started
            result_queue.put(("result", worker_id, index, record, elapsed))
        if heartbeat_path is not None:
            _write_heartbeat(heartbeat_path, {"pid": os.getpid(), "busy": False})


# -- parent side --------------------------------------------------------------


@dataclass
class _Worker:
    """Parent-side handle on one worker process."""

    process: object
    task_queue: object
    heartbeat_path: Optional[str]  # None unless trials have a deadline
    busy_index: Optional[int] = None
    busy_since: float = 0.0  # parent monotonic clock at dispatch


@dataclass
class SupervisionOutcome:
    """Everything a supervised execution produced and endured."""

    records: Dict[int, Dict[str, object]] = field(default_factory=dict)
    incidents: List[IncidentRecord] = field(default_factory=list)
    quarantined: List[Dict[str, object]] = field(default_factory=list)
    respawns: int = 0


class TrialSupervisor:
    """Executes trial tasks under deadlines, crash recovery, and quarantine.

    ``workers <= 1`` runs in-process; ``workers > 1`` runs a process
    pool.  ``quarantine`` decides what a poison trial does: a ledger
    records it and the run goes on, ``None`` stops the run with a
    :class:`SweepError` naming it.  The supervisor is execution-only:
    caching, validation and persistence belong to the caller, wired in
    through ``on_result`` — called in the parent as each result lands,
    returning ``True`` to keep the record or ``False`` if the caller
    disposed of it (e.g. validation quarantine).  ``on_result`` may
    raise to abort the run (strict validation); workers are then shut
    down cleanly.
    """

    def __init__(
        self,
        experiment_name: str,
        *,
        workers: int = 0,
        start_method: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
        trial_timeout_s: Optional[float] = None,
        max_trial_attempts: int = 2,
        respawn_budget: int = 8,
        quarantine: Optional[QuarantineLog] = None,
        on_result: Optional[Callable[[TrialTask, Dict[str, object], float], bool]] = None,
        on_interrupt: Optional[Callable[[int], None]] = None,
    ) -> None:
        if trial_timeout_s is not None and trial_timeout_s <= 0:
            raise SweepError(f"trial_timeout_s must be positive, got {trial_timeout_s}")
        if max_trial_attempts < 1:
            raise SweepError(f"max_trial_attempts must be >= 1, got {max_trial_attempts}")
        if respawn_budget < 0:
            raise SweepError(f"respawn_budget must be >= 0, got {respawn_budget}")
        self.experiment_name = experiment_name
        self.workers = workers
        self.start_method = start_method
        self.retry = retry or RetryPolicy(
            max_attempts=2, base_delay_s=0.0, max_delay_s=0.0, jitter=0.0
        )
        self.trial_timeout_s = trial_timeout_s
        self.max_trial_attempts = max_trial_attempts
        self.respawn_budget = respawn_budget
        self.quarantine = quarantine
        self.on_result = on_result
        self.on_interrupt = on_interrupt

        self._stop_signal: Optional[int] = None
        #: Outcome of the most recent :meth:`run`, also available when the
        #: run ended in SweepInterrupted (the runner still wants the
        #: incident journal of an interrupted sweep).
        self.last_outcome: Optional[SupervisionOutcome] = None
        self._lock = threading.Lock()
        self._workers: Dict[int, _Worker] = {}
        # worker_id -> (overrun seconds, wall-clock trial start or None).
        # The wall stamp feeds the human-readable incident detail only.
        self._hung: Dict[int, Tuple[float, Optional[float]]] = {}
        self._watchdog_stop = threading.Event()

    # -- shared bookkeeping ---------------------------------------------------

    def _incident(self, outcome: SupervisionOutcome, **kwargs) -> IncidentRecord:
        record = IncidentRecord(**kwargs)
        outcome.incidents.append(record)
        return record

    def _quarantine_trial(
        self,
        outcome: SupervisionOutcome,
        task: TrialTask,
        kind: str,
        traceback_text: str,
        attempts: int,
        elapsed: float,
    ) -> None:
        index, params, seed, key = task
        entry = {
            "key": key,
            "experiment": self.experiment_name,
            "index": index,
            "params": dict(params),
            "seed": seed,
            "kind": kind,
            "attempts": attempts,
            "wall_time_s": round(elapsed, 3),
            "traceback": traceback_text,
        }
        self.quarantine.append(entry)
        outcome.quarantined.append(entry)
        self._incident(
            outcome, kind="quarantine", index=index, key=key, attempt=attempts,
            wall_time_s=round(elapsed, 3), disposition="quarantined",
            detail=f"after {kind}",
        )

    def _deliver(
        self,
        outcome: SupervisionOutcome,
        task: TrialTask,
        record: Dict[str, object],
        elapsed: float,
    ) -> None:
        keep = True
        if self.on_result is not None:
            keep = self.on_result(task, record, elapsed)
        if keep:
            outcome.records[task[0]] = record

    # -- signal handling ------------------------------------------------------

    def _install_signal_handlers(self):
        """SIGINT/SIGTERM → graceful drain.  Main-thread only; no-op elsewhere."""
        if threading.current_thread() is not threading.main_thread():
            return None

        def _on_signal(signum, _frame):
            self._stop_signal = signum

        previous = {}
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[signum] = signal.signal(signum, _on_signal)
            except (ValueError, OSError):  # pragma: no cover
                pass
        return previous

    @staticmethod
    def _restore_signal_handlers(previous) -> None:
        if not previous:
            return
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass

    def _interrupt(self, outcome: SupervisionOutcome, remaining: int) -> None:
        signum = self._stop_signal or signal.SIGINT
        name = signal.Signals(signum).name if signum in iter(signal.Signals) else str(signum)
        self._incident(
            outcome, kind="interrupt", index=-1, key="", attempt=0,
            wall_time_s=0.0, disposition="flushed",
            detail=f"{name}: {remaining} trial(s) left unfinished",
        )
        if self.on_interrupt is not None:
            self.on_interrupt(remaining)
        raise SweepInterrupted(
            f"sweep stopped by {name} with {remaining} trial(s) unfinished; "
            "completed trials are in the result store — re-run to resume"
        )

    # -- public entry ---------------------------------------------------------

    def run(self, tasks: List[TrialTask]) -> SupervisionOutcome:
        """Execute every task; return records, incidents, and quarantines.

        Raises :class:`SweepInterrupted` on SIGINT/SIGTERM after
        draining, :class:`InvariantViolation` if ``on_result`` escalates,
        and :class:`SweepError` for a poison trial without a ledger, when
        the respawn budget is exhausted, or — before any trial runs —
        when an in-process run has a deadline it cannot arm.
        """
        outcome = SupervisionOutcome()
        self.last_outcome = outcome
        if not tasks:
            return outcome
        warm = _prewarm_param_sets(self.experiment_name, tasks)
        _prewarm(self.experiment_name, warm)

        self._stop_signal = None
        previous = self._install_signal_handlers()
        try:
            if self.workers <= 1:
                self._run_serial(tasks, outcome)
            else:
                self._run_pool(tasks, outcome, warm)
        finally:
            self._restore_signal_handlers(previous)
        return outcome

    # -- in-process execution -------------------------------------------------

    def _run_serial(self, tasks: List[TrialTask], outcome: SupervisionOutcome) -> None:
        import traceback as tb_mod

        from repro.sweeps.runner import _run_trial_with_retry

        use_alarm = self.trial_timeout_s is not None
        if use_alarm and not (
            hasattr(signal, "SIGALRM")
            and threading.current_thread() is threading.main_thread()
        ):
            raise SweepError(
                f"cannot enforce trial_timeout_s={self.trial_timeout_s:g} "
                "in-process: SIGALRM is only available on the main thread "
                "of a POSIX process; run from the main thread or use "
                "workers >= 2"
            )
        previous_alarm = None
        if use_alarm:
            def _on_alarm(_signum, _frame):
                raise _AlarmTimeout()

            previous_alarm = signal.signal(signal.SIGALRM, _on_alarm)

        try:
            pending: Deque[TrialTask] = deque(tasks)
            attempts: Dict[int, int] = {}
            while pending:
                if self._stop_signal is not None:
                    self._interrupt(outcome, remaining=len(pending))
                task = pending.popleft()
                index, _params, _seed, key = task
                attempts[index] = attempts.get(index, 0) + 1
                started = time.monotonic()
                try:
                    if use_alarm:
                        signal.setitimer(
                            signal.ITIMER_REAL, float(self.trial_timeout_s)
                        )
                    try:
                        _idx, record = _run_trial_with_retry(
                            self.experiment_name, task, self.retry
                        )
                    finally:
                        if use_alarm:
                            signal.setitimer(signal.ITIMER_REAL, 0.0)
                except _AlarmTimeout:
                    elapsed = time.monotonic() - started
                    err = TrialTimeoutError(
                        index, float(self.trial_timeout_s or 0.0), "in-process alarm"
                    )
                    self._after_failure(
                        outcome, task, "timeout", str(err), repr(err), elapsed,
                        attempts[index], pending,
                    )
                except Exception as exc:
                    elapsed = time.monotonic() - started
                    self._after_failure(
                        outcome, task, "failure", str(exc), tb_mod.format_exc(),
                        elapsed, attempts[index], pending,
                    )
                else:
                    elapsed = time.monotonic() - started
                    self._deliver(outcome, task, record, elapsed)
        finally:
            if use_alarm:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous_alarm)

    def _after_failure(
        self,
        outcome: SupervisionOutcome,
        task: TrialTask,
        kind: str,
        error: str,
        traceback_text: str,
        elapsed: float,
        attempt: int,
        requeue: Deque[TrialTask],
    ) -> None:
        """Common disposition logic: retry transient kinds, then poison.

        Deterministic trial errors (``failure``) already consumed their
        in-worker retries, so they are poison at once; timeouts, hangs,
        and crashes get ``max_trial_attempts`` tries first.  A poison
        trial is quarantined when there is a ledger; without one the run
        stops with ``error`` (the one-line message naming the trial).
        """
        index, _params, _seed, key = task
        detail = traceback_text.strip().splitlines()[-1] if traceback_text else ""
        transient = kind in ("timeout", "hang", "crash")
        if transient and attempt < self.max_trial_attempts:
            self._incident(
                outcome, kind=kind, index=index, key=key, attempt=attempt,
                wall_time_s=round(elapsed, 3), disposition="retried",
                detail=detail,
            )
            requeue.appendleft(task)
            return
        if self.quarantine is None:
            raise SweepError(error) from None
        self._incident(
            outcome, kind=kind, index=index, key=key, attempt=attempt,
            wall_time_s=round(elapsed, 3), disposition="quarantined",
            detail=detail,
        )
        self._quarantine_trial(outcome, task, kind, traceback_text, attempt, elapsed)

    # -- pooled execution -----------------------------------------------------

    def _spawn_worker(
        self,
        ctx,
        worker_id: int,
        result_queue,
        hb_dir: Optional[str],
        prewarm_params: List[Dict[str, object]],
    ) -> _Worker:
        task_queue = ctx.Queue()
        heartbeat_path = (
            os.path.join(hb_dir, f"worker-{worker_id}.hb") if hb_dir else None
        )
        process = ctx.Process(
            target=_worker_main,
            args=(
                worker_id, self.experiment_name, self.retry,
                self.trial_timeout_s, heartbeat_path, prewarm_params,
                task_queue, result_queue,
            ),
            daemon=True,
            name=f"sweep-worker-{worker_id}",
        )
        process.start()
        return _Worker(
            process=process, task_queue=task_queue, heartbeat_path=heartbeat_path
        )

    def _watchdog_loop(self) -> None:
        """Kill workers whose current trial has blown way past its deadline.

        The worker-side alarm is the first line of defense; the watchdog
        only fires when the worker cannot even service a signal (a hang
        inside native code), after ``trial_timeout_s`` plus a grace of
        ``max(WATCHDOG_GRACE_S, 0.5 * trial_timeout_s)``.  Heartbeat files
        are the primary evidence (worker-reported start time); the
        parent-side dispatch clock is the fallback.
        """
        assert self.trial_timeout_s is not None
        deadline = self.trial_timeout_s + max(
            WATCHDOG_GRACE_S, 0.5 * self.trial_timeout_s
        )
        while not self._watchdog_stop.wait(POLL_INTERVAL_S):
            # Deadline math runs entirely on the monotonic clock: worker
            # heartbeats stamp started_mono (comparable across processes on
            # the same boot), so a wall-clock step (NTP, manual change)
            # cannot fire a spurious kill or mask a real hang.
            now_mono = time.monotonic()
            with self._lock:
                workers = dict(self._workers)
            for worker_id, worker in workers.items():
                if worker.busy_index is None or not worker.process.is_alive():
                    continue
                overrun: Optional[float] = None
                started_wall: Optional[float] = None
                beat = _read_heartbeat(worker.heartbeat_path)
                if beat and beat.get("busy") and isinstance(
                    beat.get("started_mono"), (int, float)
                ):
                    hb_elapsed = now_mono - float(beat["started_mono"])
                    if hb_elapsed > deadline:
                        overrun = hb_elapsed - self.trial_timeout_s
                        # Wall stamp is reporting-only: it names *when* the
                        # trial started for the incident record, never how
                        # long it has been running.
                        if isinstance(beat.get("started_wall"), (int, float)):
                            started_wall = float(beat["started_wall"])
                if overrun is None and worker.busy_since:
                    dispatch_elapsed = now_mono - worker.busy_since
                    if dispatch_elapsed > deadline:
                        overrun = dispatch_elapsed - self.trial_timeout_s
                if overrun is not None:
                    with self._lock:
                        self._hung[worker_id] = (overrun, started_wall)
                    worker.process.kill()

    def _run_pool(
        self,
        tasks: List[TrialTask],
        outcome: SupervisionOutcome,
        prewarm_params: List[Dict[str, object]],
    ) -> None:
        import multiprocessing

        ctx = (
            multiprocessing.get_context(self.start_method)
            if self.start_method
            else multiprocessing.get_context()
        )
        n_workers = min(self.workers, len(tasks))
        result_queue = ctx.Queue()
        # Heartbeats feed only the watchdog, which only runs under a deadline.
        hb_dir = (
            tempfile.mkdtemp(prefix="poc-sweep-hb-")
            if self.trial_timeout_s is not None
            else None
        )
        undispatched: Deque[TrialTask] = deque(tasks)
        in_flight: Dict[int, TrialTask] = {}
        attempts: Dict[int, int] = {}
        self._hung = {}
        self._workers = {
            worker_id: self._spawn_worker(
                ctx, worker_id, result_queue, hb_dir, prewarm_params
            )
            for worker_id in range(n_workers)
        }

        watchdog: Optional[threading.Thread] = None
        self._watchdog_stop.clear()
        if self.trial_timeout_s is not None:
            watchdog = threading.Thread(
                target=self._watchdog_loop, name="sweep-watchdog", daemon=True
            )
            watchdog.start()

        def feed() -> None:
            with self._lock:
                for worker in self._workers.values():
                    if not undispatched:
                        break
                    if worker.busy_index is not None or not worker.process.is_alive():
                        continue
                    task = undispatched.popleft()
                    worker.busy_index = task[0]
                    worker.busy_since = time.monotonic()
                    in_flight[task[0]] = task
                    worker.task_queue.put(task)

        def settle(worker_id: int, index: int) -> Optional[TrialTask]:
            with self._lock:
                worker = self._workers.get(worker_id)
                if worker is not None and worker.busy_index == index:
                    worker.busy_index = None
                    worker.busy_since = 0.0
            return in_flight.pop(index, None)

        def drain_one(timeout: float) -> bool:
            try:
                message = result_queue.get(timeout=timeout)
            except queue_mod.Empty:
                return False
            kind = message[0]
            if kind == "result":
                _k, worker_id, index, record, elapsed = message
                task = settle(worker_id, index)
                if task is not None:
                    attempts[index] = attempts.get(index, 0) + 1
                    self._deliver(outcome, task, record, elapsed)
            elif kind == "failure":
                _k, worker_id, index, failure_kind, error, tb_text, elapsed = message
                task = settle(worker_id, index)
                if task is not None:
                    attempts[index] = attempts.get(index, 0) + 1
                    self._after_failure(
                        outcome, task, failure_kind, error, tb_text, elapsed,
                        attempts[index], undispatched,
                    )
            return True

        def reap_dead() -> None:
            with self._lock:
                dead = [
                    (worker_id, worker)
                    for worker_id, worker in self._workers.items()
                    if not worker.process.is_alive()
                ]
            for worker_id, worker in dead:
                exitcode = worker.process.exitcode
                with self._lock:
                    hung = self._hung.pop(worker_id, None)
                    busy_index = worker.busy_index
                    del self._workers[worker_id]
                overrun = hung[0] if hung is not None else None
                failure_kind = "hang" if overrun is not None else "crash"
                if busy_index is not None and busy_index in in_flight:
                    task = in_flight.pop(busy_index)
                    attempts[busy_index] = attempts.get(busy_index, 0) + 1
                    if overrun is not None:
                        started_wall = hung[1] if hung is not None else None
                        started_at = (
                            "" if started_wall is None else
                            "; trial started "
                            + _format_wall(started_wall)
                        )
                        err: SweepError = TrialTimeoutError(
                            busy_index, float(self.trial_timeout_s or 0.0),
                            f"watchdog killed worker {overrun:.1f}s past "
                            f"deadline{started_at}",
                        )
                    else:
                        err = WorkerCrashError(busy_index, exitcode)
                    self._after_failure(
                        outcome, task, failure_kind, str(err), repr(err), 0.0,
                        attempts[busy_index], undispatched,
                    )
                if not (undispatched or in_flight):
                    continue  # nothing left to run; no point respawning
                if outcome.respawns >= self.respawn_budget:
                    raise SweepError(
                        f"respawn budget exhausted ({self.respawn_budget}); "
                        f"last worker died with exitcode={exitcode}"
                    )
                outcome.respawns += 1
                replacement_id = max(self._workers, default=worker_id) + 1
                replacement = self._spawn_worker(
                    ctx, replacement_id, result_queue, hb_dir, prewarm_params
                )
                with self._lock:
                    self._workers[replacement_id] = replacement
                self._incident(
                    outcome, kind="respawn", index=busy_index if busy_index is not None else -1,
                    key="", attempt=0, wall_time_s=0.0, disposition="recovered",
                    detail=f"worker exitcode={exitcode} ({failure_kind}); "
                           f"respawn {outcome.respawns}/{self.respawn_budget}",
                )

        try:
            while undispatched or in_flight:
                if self._stop_signal is not None:
                    # Graceful drain: no new dispatch, flush what is in
                    # flight (bounded), then report and raise.
                    grace_until = time.monotonic() + SHUTDOWN_GRACE_S
                    while in_flight and time.monotonic() < grace_until:
                        drain_one(POLL_INTERVAL_S)
                    self._interrupt(
                        outcome, remaining=len(undispatched) + len(in_flight)
                    )
                feed()
                drain_one(POLL_INTERVAL_S)
                reap_dead()
        finally:
            self._watchdog_stop.set()
            if watchdog is not None:
                watchdog.join(timeout=2.0)
            with self._lock:
                workers = dict(self._workers)
                self._workers = {}
            for worker in workers.values():
                try:
                    worker.task_queue.put_nowait(None)
                except Exception:
                    pass
            for worker in workers.values():
                worker.process.join(timeout=1.0)
                if worker.process.is_alive():
                    worker.process.kill()
                    worker.process.join(timeout=1.0)
            result_queue.close()
            if hb_dir is not None:
                shutil.rmtree(hb_dir, ignore_errors=True)


def format_incidents(incidents: List[IncidentRecord]) -> str:
    """The incident journal as text, for ``sweep --report``."""
    if not incidents:
        return "supervision: no incidents"
    lines = [f"supervision: {len(incidents)} incident(s)"]
    lines.extend(f"  {incident.format_line()}" for incident in incidents)
    counts: Dict[str, int] = {}
    for incident in incidents:
        counts[incident.kind] = counts.get(incident.kind, 0) + 1
    summary = "  ".join(f"{kind}={count}" for kind, count in sorted(counts.items()))
    lines.append(f"by kind: {summary}")
    return "\n".join(lines)
