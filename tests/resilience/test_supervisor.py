"""Tests for supervised trial execution: deadlines, crash recovery, quarantine.

Fault-injecting test experiments are registered at import time and run
with fork workers (which inherit the registration) or in-process.  The
hard cases — a worker killed mid-trial, a hang that ignores its alarm,
SIGTERM mid-sweep — each get an end-to-end test.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.exceptions import SweepError
from repro.resilience import supervisor as supervisor_mod
from repro.resilience.supervisor import (
    IncidentRecord,
    QuarantineLog,
    TrialSupervisor,
    format_incidents,
)
from repro.sweeps.cache import ResultStore, trial_key
from repro.sweeps.registry import Experiment, register
from repro.sweeps.runner import run_sweep
from repro.sweeps.spec import Axis, SweepSpec

START_METHODS = multiprocessing.get_all_start_methods()
HAS_ALARM = hasattr(signal, "SIGALRM")
needs_fork = pytest.mark.skipif(
    "fork" not in START_METHODS, reason="fork start method unavailable"
)
needs_alarm = pytest.mark.skipif(not HAS_ALARM, reason="no SIGALRM on platform")


def _log_invocation(params):
    if params.get("log"):
        with open(params["log"], "a", encoding="utf-8") as handle:
            handle.write(f"{params['x']}\n")


def _crash_once_trial(params, seed):
    """Kills its own worker process the first time a given x runs."""
    _log_invocation(params)
    marker = f"{params['marker']}.{params['x']}"
    if params["x"] == params["crash_x"] and not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8"):
            pass
        os._exit(42)  # no exception, no cleanup: a genuine worker death
    return {"value": float(params["x"]) * 2.0, "seed_mod": float(seed % 1000)}


def _sleep_trial(params, seed):
    """Sleeps (interruptible by SIGALRM) then returns."""
    _log_invocation(params)
    if params["x"] == params.get("slow_x", -1):
        time.sleep(float(params.get("sleep_s", 30.0)))
    return {"value": float(params["x"])}


def _deaf_hang_trial(params, seed):
    """Hangs AND disables the worker's alarm — only the watchdog can help."""
    _log_invocation(params)
    if params["x"] == params["hang_x"]:
        if HAS_ALARM:
            signal.signal(signal.SIGALRM, signal.SIG_IGN)
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        time.sleep(60.0)
    return {"value": float(params["x"])}


def _boom_trial(params, seed):
    """Deterministic failure for one grid point."""
    _log_invocation(params)
    if params["x"] == params["boom_x"]:
        raise ValueError(f"injected deterministic failure at x={params['x']}")
    return {"value": float(params["x"])}


for _exp in (
    Experiment(name="_sup_crash_once", trial=_crash_once_trial, version="1"),
    Experiment(name="_sup_sleep", trial=_sleep_trial, version="1"),
    Experiment(name="_sup_deaf_hang", trial=_deaf_hang_trial, version="1"),
    Experiment(name="_sup_boom", trial=_boom_trial, version="1"),
):
    register(_exp, replace=True)


def _read_log(path):
    if not os.path.exists(path):
        return []
    with open(path, "r", encoding="utf-8") as handle:
        return [line.strip() for line in handle if line.strip()]


class TestIncidentRecord:
    def test_rejects_unknown_kind(self):
        with pytest.raises(SweepError, match="unknown incident kind"):
            IncidentRecord(kind="meteor", index=0, key="k", attempt=1,
                           wall_time_s=0.0, disposition="retried")

    def test_round_trip_and_format(self):
        rec = IncidentRecord(kind="timeout", index=3, key="abc123def456XYZ",
                             attempt=2, wall_time_s=1.5,
                             disposition="quarantined", detail="alarm")
        assert rec.to_dict()["kind"] == "timeout"
        line = rec.format_line()
        assert "trial 3" in line and "quarantined" in line and "attempt 2" in line

    def test_format_incidents_summarizes_by_kind(self):
        recs = [
            IncidentRecord(kind="timeout", index=i, key="", attempt=1,
                           wall_time_s=0.0, disposition="retried")
            for i in range(3)
        ]
        text = format_incidents(recs)
        assert "3 incident(s)" in text
        assert "timeout=3" in text
        assert format_incidents([]) == "supervision: no incidents"


class TestQuarantineLog:
    def test_append_and_reload(self, tmp_path):
        path = tmp_path / "q.jsonl"
        log = QuarantineLog(path)
        log.append({"key": "k1", "kind": "timeout", "params": {"x": 1}})
        log.append({"key": "k2", "kind": "invalid", "params": {"x": 2}})
        assert log.has("k1") and len(log) == 2

        reloaded = QuarantineLog(path)
        assert reloaded.has("k1") and reloaded.has("k2")
        assert reloaded.get("k2")["kind"] == "invalid"

    def test_tolerates_corrupt_lines(self, tmp_path):
        path = tmp_path / "q.jsonl"
        log = QuarantineLog(path)
        log.append({"key": "good", "kind": "timeout"})
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"key": "torn', )
        reloaded = QuarantineLog(path)
        assert reloaded.has("good")
        assert reloaded.corrupt_lines == 1

    def test_memory_only_log(self):
        log = QuarantineLog(None)
        log.append({"key": "k", "kind": "crash"})
        assert log.has("k") and len(log) == 1

    def test_rejects_keyless_entry(self, tmp_path):
        log = QuarantineLog(tmp_path / "q.jsonl")
        with pytest.raises(SweepError, match="string 'key'"):
            log.append({"kind": "timeout"})


def _spec(n=4, **base):
    return SweepSpec(
        axes=(Axis("x", tuple(float(i) for i in range(n))),),
        base=base,
        seed=5,
    )


@needs_alarm
class TestSerialSupervision:
    def test_timeout_quarantined_after_two_attempts(self, tmp_path):
        log = str(tmp_path / "log.txt")
        spec = _spec(n=3, slow_x=1.0, sleep_s=30.0, log=log)
        result = run_sweep(
            "_sup_sleep", spec, workers=0, trial_timeout_s=0.3,
            quarantine=str(tmp_path / "q.jsonl"),
        )
        # The two fast trials finish; the slow one is quarantined.
        assert [o.record["value"] for o in result.outcomes] == [0.0, 2.0]
        assert len(result.quarantined) == 1
        assert result.quarantined[0]["kind"] == "timeout"
        assert result.quarantined[0]["attempts"] == 2
        # 2 attempts at the slow trial + 2 clean trials = 4 invocations.
        assert len(_read_log(log)) == 4
        kinds = [i.kind for i in result.incidents]
        assert kinds.count("timeout") == 2
        assert "quarantine" in kinds

    def test_deterministic_failure_quarantines_immediately(self, tmp_path):
        log = str(tmp_path / "log.txt")
        spec = _spec(n=3, boom_x=1.0, log=log)
        result = run_sweep(
            "_sup_boom", spec, workers=0, supervised=True,
            quarantine=str(tmp_path / "q.jsonl"),
        )
        assert [o.record["value"] for o in result.outcomes] == [0.0, 2.0]
        assert len(result.quarantined) == 1
        entry = result.quarantined[0]
        assert entry["kind"] == "failure"
        assert "injected deterministic failure" in entry["traceback"]
        # A non-ReproError is not retried in-worker, and the supervisor
        # does not retry a deterministic failure either: one invocation
        # of the poison trial, one each for the clean ones.
        assert len(_read_log(log)) == 3

    def test_quarantined_trials_skipped_on_resume(self, tmp_path):
        log = str(tmp_path / "log.txt")
        qpath = str(tmp_path / "q.jsonl")
        spec = _spec(n=3, boom_x=1.0, log=log)
        store = str(tmp_path / "store.jsonl")
        first = run_sweep("_sup_boom", spec, workers=0, supervised=True,
                          quarantine=qpath, store=store)
        assert len(first.quarantined) == 1
        os.unlink(log)
        second = run_sweep("_sup_boom", spec, workers=0, supervised=True,
                           quarantine=qpath, store=store)
        # Nothing re-executes: good trials are cached, poison is skipped.
        assert _read_log(log) == []
        assert second.executed == 0 and second.cache_hits == 2
        assert [i.kind for i in second.incidents] == ["quarantine-skip"]
        assert not second.quarantined  # skip is not a fresh quarantine

    def test_unenforceable_deadline_refused_off_main_thread(self, tmp_path):
        """SIGALRM can only be armed on the main thread, so an in-process
        run with a deadline from any other thread must refuse to start
        rather than silently run without its deadline."""
        log = str(tmp_path / "log.txt")
        spec = _spec(n=2, slow_x=1.0, sleep_s=1.0, log=log)
        caught = []

        def body():
            try:
                run_sweep("_sup_sleep", spec, workers=0, trial_timeout_s=0.2)
            except Exception as exc:
                caught.append(exc)

        thread = threading.Thread(target=body)
        thread.start()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert len(caught) == 1 and isinstance(caught[0], SweepError)
        assert "trial_timeout_s" in str(caught[0])
        assert _read_log(log) == []  # refused before any trial ran


@needs_fork
class TestPoolSupervision:
    @pytest.mark.parametrize("supervised", [True, False])
    def test_worker_crash_respawn_and_byte_identical_aggregates(
        self, tmp_path, supervised
    ):
        """A killed worker is replaced and the retried trial's record is
        byte-identical to a serial run's, whether or not the sweep is
        supervised (supervision only decides what a poison trial does)."""
        log = str(tmp_path / "log.txt")
        marker = str(tmp_path / "crash")
        spec = _spec(n=4, crash_x=2.0, marker=marker, log=log)

        # Reference: serial, no crash (marker pre-created disarms it).
        with open(f"{marker}.2.0", "w", encoding="utf-8"):
            pass
        serial_store = str(tmp_path / "serial.jsonl")
        serial = run_sweep("_sup_crash_once", spec, workers=0,
                           store=serial_store)
        assert serial.executed == 4

        # Pool: the crash is armed; worker 2 dies mid-trial.
        os.unlink(f"{marker}.2.0")
        os.unlink(log)
        pool_store = str(tmp_path / "pool.jsonl")
        result = run_sweep(
            "_sup_crash_once", spec, workers=2, start_method="fork",
            supervised=supervised, store=pool_store,
            quarantine=str(tmp_path / "q.jsonl"),
        )
        assert result.respawns == 1
        assert not result.quarantined
        kinds = [i.kind for i in result.incidents]
        assert "crash" in kinds and "respawn" in kinds
        # The crashed trial ran twice (once to death, once to completion).
        assert len(_read_log(log)) == 5

        serial_entries = sorted(
            json.dumps(json.loads(line), sort_keys=True)
            for line in open(serial_store, encoding="utf-8")
        )
        pool_entries = sorted(
            json.dumps(json.loads(line), sort_keys=True)
            for line in open(pool_store, encoding="utf-8")
        )
        assert serial_entries == pool_entries

    @needs_alarm
    def test_pool_timeout_quarantine(self, tmp_path):
        spec = _spec(n=4, slow_x=1.0, sleep_s=30.0,
                     log=str(tmp_path / "log.txt"))
        result = run_sweep(
            "_sup_sleep", spec, workers=2, start_method="fork",
            trial_timeout_s=0.5, quarantine=str(tmp_path / "q.jsonl"),
        )
        assert len(result.quarantined) == 1
        assert result.quarantined[0]["kind"] == "timeout"
        assert sorted(o.record["value"] for o in result.outcomes) == [0.0, 2.0, 3.0]
        # No worker ever died: the alarm interrupts the sleep in-process.
        assert result.respawns == 0

    def test_watchdog_kills_deaf_worker(self, tmp_path, monkeypatch):
        """A trial that hangs with its alarm disabled is killed from the
        parent via the heartbeat watchdog and quarantined."""
        monkeypatch.setattr(supervisor_mod, "WATCHDOG_GRACE_S", 0.4)
        log = str(tmp_path / "log.txt")
        spec = _spec(n=3, hang_x=1.0, log=log)
        supervisor = TrialSupervisor(
            "_sup_deaf_hang", workers=2, start_method="fork",
            trial_timeout_s=0.4,
            max_trial_attempts=2,
            quarantine=QuarantineLog(tmp_path / "q.jsonl"),
        )
        from repro.sweeps.registry import get_experiment
        exp = get_experiment("_sup_deaf_hang")
        tasks = []
        for trial in spec.trials():
            params = exp.resolved_params(trial.params)
            key = trial_key(exp.name, exp.version, params, trial.seed)
            tasks.append((trial.index, params, trial.seed, key))
        outcome = supervisor.run(tasks)
        assert sorted(r["value"] for r in outcome.records.values()) == [0.0, 2.0]
        assert len(outcome.quarantined) == 1
        assert outcome.quarantined[0]["kind"] == "hang"
        assert outcome.respawns >= 1
        kinds = [i.kind for i in outcome.incidents]
        assert "hang" in kinds and "respawn" in kinds

    def test_respawn_budget_exhaustion_aborts(self, tmp_path):
        marker = str(tmp_path / "nope")  # never pre-created: crashes always
        spec = SweepSpec(
            axes=(Axis("x", (7.0,)),),
            base={"crash_x": 7.0, "marker": marker, "log": ""},
            seed=5,
        )
        with pytest.raises(SweepError, match="respawn budget"):
            run_sweep(
                "_sup_crash_once", spec, workers=2, start_method="fork",
                supervised=True, respawn_budget=0, max_trial_attempts=3,
                quarantine=str(tmp_path / "q.jsonl"),
            )


@needs_fork
class TestGracefulShutdown:
    def test_sigterm_leaves_resumable_checkpoint(self, tmp_path):
        """SIGTERM mid-sweep: completed trials persist; a second invocation
        executes only the missing ones (counted, not recomputed)."""
        script = tmp_path / "sweep_script.py"
        log = tmp_path / "log.txt"
        store = tmp_path / "store.jsonl"
        script.write_text(textwrap.dedent(f"""
            import sys, time
            from repro.experiments.pipeline import PipelineCheckpoint
            from repro.sweeps.registry import Experiment, register
            from repro.sweeps.runner import run_sweep
            from repro.sweeps.spec import Axis, SweepSpec

            def slow_trial(params, seed):
                with open({str(log)!r}, "a", encoding="utf-8") as h:
                    h.write(f"{{params['x']}}\\n")
                time.sleep(0.4)
                return {{"value": float(params["x"])}}

            register(Experiment(name="_sig_slow", trial=slow_trial,
                                version="1"), replace=True)
            spec = SweepSpec(axes=(Axis("x", tuple(float(i) for i in range(12))),),
                             seed=3)
            print("READY", flush=True)
            result = run_sweep("_sig_slow", spec, workers=2,
                               start_method="fork", supervised=True,
                               store={str(store)!r},
                               checkpoint=PipelineCheckpoint({str(tmp_path / "cp.json")!r}))
            print("DONE", result.executed, flush=True)
        """))
        env = dict(os.environ)
        repo_src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))), "src")
        env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")

        proc = subprocess.Popen(
            [sys.executable, str(script)], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            assert proc.stdout.readline().strip() == "READY"
            # Let a few trials land, then ask for a graceful stop.
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                if store.exists() and sum(1 for _ in open(store)) >= 2:
                    break
                time.sleep(0.05)
            proc.send_signal(signal.SIGTERM)
            _out, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

        assert proc.returncode != 0  # SweepInterrupted -> SystemExit path
        assert "stopped by SIGTERM" in err
        completed = sum(1 for _ in open(store))
        assert 1 <= completed < 12

        first_invocations = len(_read_log(log))
        log.unlink()

        # Resume in-process: only the missing trials execute.
        spec = SweepSpec(axes=(Axis("x", tuple(float(i) for i in range(12))),),
                         seed=3)

        def slow_trial(params, seed):
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{params['x']}\n")
            return {"value": float(params["x"])}

        register(Experiment(name="_sig_slow", trial=slow_trial, version="1"),
                 replace=True)
        from repro.experiments.pipeline import PipelineCheckpoint

        result = run_sweep("_sig_slow", spec, workers=0, supervised=True,
                           store=str(store),
                           checkpoint=PipelineCheckpoint(tmp_path / "cp2.json"))
        assert len(result.outcomes) == 12
        assert result.cache_hits == completed
        assert len(_read_log(log)) == 12 - completed
        assert first_invocations + len(_read_log(log)) >= 12


class _FakeProcess:
    """Stands in for a worker process: always alive, records kill()."""

    def __init__(self):
        self.kills = 0

    def is_alive(self):
        return True

    def kill(self):
        self.kills += 1


def _run_watchdog_briefly(supervisor, duration_s=0.35):
    """Run the watchdog loop in a thread for a bounded window."""
    thread = threading.Thread(target=supervisor._watchdog_loop, daemon=True)
    thread.start()
    time.sleep(duration_s)
    supervisor._watchdog_stop.set()
    thread.join(timeout=2.0)
    assert not thread.is_alive()


class TestMonotonicWatchdog:
    """The deadline clock must be immune to wall-clock steps (NTP, DST,
    manual changes): elapsed math runs on time.monotonic() only."""

    def _supervisor(self, **kwargs):
        kwargs.setdefault("trial_timeout_s", 5.0)
        return TrialSupervisor("_sup_sleep", workers=2, **kwargs)

    def _fake_worker(self, tmp_path, *, started_mono, started_wall):
        from repro.resilience.supervisor import _Worker, _write_heartbeat

        hb = str(tmp_path / "hb-0.json")
        _write_heartbeat(hb, {
            "pid": 12345, "busy": True, "index": 0, "key": "k" * 16,
            "started_mono": started_mono, "started_wall": started_wall,
        })
        return _Worker(
            process=_FakeProcess(), task_queue=None, heartbeat_path=hb,
            busy_index=0, busy_since=time.monotonic(),
        )

    def test_backwards_wall_jump_does_not_kill(self, tmp_path):
        """Regression: a heartbeat whose wall stamp is hours old (the wall
        clock stepped forward, or equivalently the comparison clock jumped)
        must NOT trip the deadline while the monotonic stamp is fresh."""
        supervisor = self._supervisor()
        worker = self._fake_worker(
            tmp_path,
            started_mono=time.monotonic(),       # trial actually just started
            started_wall=time.time() - 86400.0,  # wall clock says "yesterday"
        )
        supervisor._workers = {0: worker}
        supervisor._hung = {}
        _run_watchdog_briefly(supervisor)
        assert worker.process.kills == 0
        assert supervisor._hung == {}

    def test_monotonic_overrun_kills_despite_fresh_wall_stamp(self, tmp_path):
        """The converse: a genuinely hung trial is killed even if a wall
        step makes its wall stamp look recent."""
        supervisor = self._supervisor(trial_timeout_s=0.05)
        worker = self._fake_worker(
            tmp_path,
            started_mono=time.monotonic() - 120.0,  # hung for 2 minutes
            started_wall=time.time(),               # wall clock stepped back
        )
        # Parent-side dispatch stamp agrees the trial is old.
        worker.busy_since = time.monotonic() - 120.0
        supervisor._workers = {0: worker}
        supervisor._hung = {}
        _run_watchdog_briefly(supervisor)
        assert worker.process.kills >= 1
        overrun, started_wall = supervisor._hung[0]
        assert overrun > 100.0
        assert started_wall is not None  # kept for the incident record only

    def test_watchdog_elapsed_math_never_uses_wall_clock(self):
        """Source-level regression guard: no time.time() in deadline logic."""
        import inspect

        source = inspect.getsource(TrialSupervisor._watchdog_loop)
        assert "time.time()" not in source
