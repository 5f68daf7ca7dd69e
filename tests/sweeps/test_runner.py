"""Tests for the process-pool sweep runner.

The file-logging test experiments below are registered at import time in
this module; they are exercised serially or with fork workers (which
inherit the registration).  Spawn-pool tests use only built-in
experiments, since a spawned interpreter re-imports the registry fresh —
exactly the situation the name-based lookup exists for.
"""

import multiprocessing
import os

import pytest

from repro.exceptions import ReproError, SweepError
from repro.experiments.pipeline import PipelineCheckpoint
from repro.resilience.policy import RetryPolicy
from repro.sweeps.cache import ResultStore
from repro.sweeps.registry import Experiment, register
from repro.sweeps.runner import (
    SweepProgress,
    SweepRunner,
    run_sweep,
)
from repro.sweeps.spec import Axis, SweepSpec

START_METHODS = multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif("fork" not in START_METHODS, reason="no fork")
#: In-process, and a 2-worker fork pool: every failure-path contract
#: must hold on both.
SERIAL_AND_POOL = pytest.mark.parametrize(
    "workers", [0, pytest.param(2, marks=needs_fork)]
)


def _pool_options(workers):
    return {"workers": workers, "start_method": "fork"} if workers > 1 else {}


def _read_log(path):
    if not os.path.exists(path):
        return []
    with open(path, "r", encoding="utf-8") as handle:
        return [line.strip() for line in handle if line.strip()]


def _counting_trial(params, seed):
    """Logs every invocation, so tests can count real executions."""
    with open(params["log"], "a", encoding="utf-8") as handle:
        handle.write(f"{params['x']}\n")
    return {"square": float(params["x"]) ** 2, "seed_mod": float(seed % 1000)}


def _gated_trial(params, seed):
    """Fails for x >= gate until a marker file appears (an 'outage')."""
    with open(params["log"], "a", encoding="utf-8") as handle:
        handle.write(f"{params['x']}\n")
    if params["x"] >= params["gate"] and not os.path.exists(params["marker"]):
        raise ReproError(f"injected outage at x={params['x']}")
    return {"value": float(params["x"])}


def _flaky_trial(params, seed):
    """Fails exactly once per grid point, then succeeds (transient)."""
    marker = f"{params['marker']}.{params['x']}"
    with open(params["log"], "a", encoding="utf-8") as handle:
        handle.write(f"{params['x']}\n")
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8"):
            pass
        raise ReproError("transient failure, try again")
    return {"value": float(params["x"])}


def _non_mapping_trial(params, seed):
    return [1.0, 2.0]


for _exp in (
    Experiment(name="_test_counting", trial=_counting_trial, version="1"),
    Experiment(name="_test_gated", trial=_gated_trial, version="1"),
    Experiment(name="_test_flaky", trial=_flaky_trial, version="1"),
    Experiment(name="_test_non_mapping", trial=_non_mapping_trial, version="1"),
):
    register(_exp, replace=True)


def demo_spec(n=4, draws=8):
    return SweepSpec(
        axes=(Axis("loc", tuple(float(i) for i in range(n))),),
        base={"draws": draws},
        seed=11,
    )


class TestSerialExecution:
    def test_basic_run(self):
        result = run_sweep("demo", demo_spec())
        assert len(result.outcomes) == 4
        assert result.executed == 4
        assert result.cache_hits == 0
        assert [o.index for o in result.outcomes] == [0, 1, 2, 3]
        assert result.stats_line() == (
            "sweep demo: trials=4 executed=4 cached=0 workers=0"
        )

    def test_deterministic_across_runs(self):
        a = run_sweep("demo", demo_spec())
        b = run_sweep("demo", demo_spec())
        assert a.report_json(group_by=["loc"]) == b.report_json(group_by=["loc"])
        assert [o.record for o in a.outcomes] == [o.record for o in b.outcomes]

    def test_defaults_resolved_into_params(self):
        result = run_sweep("demo", demo_spec())
        # The experiment default scale=1.0 lands in every trial's params.
        assert all(o.params["scale"] == 1.0 for o in result.outcomes)

    def test_negative_workers_rejected(self):
        with pytest.raises(SweepError):
            SweepRunner("demo", workers=-1)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SweepError):
            SweepRunner("no-such-experiment")

    def test_duplicate_trials_rejected(self):
        spec = SweepSpec(axes=(Axis("seed", (5, 5)),))
        with pytest.raises(SweepError) as exc:
            run_sweep("demo", spec)
        assert "duplicate" in str(exc.value)

    def test_non_mapping_record_rejected(self):
        spec = SweepSpec(axes=(Axis("x", (1,)),))
        with pytest.raises(SweepError) as exc:
            run_sweep("_test_non_mapping", spec)
        assert "mapping" in str(exc.value)

    @SERIAL_AND_POOL
    def test_failure_names_the_trial(self, workers):
        spec = SweepSpec(axes=(Axis("scale", (-1.0,)),))
        with pytest.raises(SweepError) as exc:
            run_sweep("demo", spec, **_pool_options(workers))
        assert "scale" in str(exc.value)


class TestPoolExecution:
    """Byte-identity of parallel and serial execution."""

    @pytest.mark.skipif("fork" not in START_METHODS, reason="no fork")
    def test_fork_pool_matches_serial(self):
        serial = run_sweep("demo", demo_spec())
        forked = run_sweep(
            "demo", demo_spec(), workers=2, start_method="fork"
        )
        assert forked.workers == 2
        assert forked.report_json(group_by=["loc"]) == serial.report_json(
            group_by=["loc"]
        )
        assert [o.record for o in forked.outcomes] == [
            o.record for o in serial.outcomes
        ]

    @pytest.mark.skipif("spawn" not in START_METHODS, reason="no spawn")
    def test_spawn_pool_matches_serial(self):
        serial = run_sweep("demo", demo_spec(n=3))
        spawned = run_sweep(
            "demo", demo_spec(n=3), workers=2, start_method="spawn"
        )
        assert spawned.report_json(group_by=["loc"]) == serial.report_json(
            group_by=["loc"]
        )

    @pytest.mark.skipif("fork" not in START_METHODS, reason="no fork")
    def test_more_workers_than_trials(self):
        serial = run_sweep("demo", demo_spec(n=2))
        wide = run_sweep("demo", demo_spec(n=2), workers=8, start_method="fork")
        assert wide.report_json() == serial.report_json()


class TestCaching:
    def _spec(self, tmp_path, xs=(0, 1, 2, 3)):
        return SweepSpec(
            axes=(Axis("x", tuple(xs)),),
            base={"log": str(tmp_path / "invocations.log")},
            seed=5,
        )

    def test_rerun_is_all_cache_hits(self, tmp_path):
        store = str(tmp_path / "results.jsonl")
        first = run_sweep("_test_counting", self._spec(tmp_path), store=store)
        second = run_sweep("_test_counting", self._spec(tmp_path), store=store)
        assert first.executed == 4 and first.cache_hits == 0
        assert second.executed == 0 and second.cache_hits == 4
        assert second.cache_hit_rate == 1.0
        # The trial function really ran only during the first sweep.
        assert len(_read_log(tmp_path / "invocations.log")) == 4
        # And the cached report is byte-identical to the live one.
        assert second.report_json(group_by=["x"]) == first.report_json(
            group_by=["x"]
        )

    def test_resume_executes_only_missing_trials(self, tmp_path):
        """A grown grid re-executes only the new points.

        Seeds are derived from parameters, not grid positions, so the
        three original points keep their keys inside the larger grid.
        """
        store = str(tmp_path / "results.jsonl")
        run_sweep("_test_counting", self._spec(tmp_path, xs=(0, 1, 2)),
                  store=store)
        grown = run_sweep(
            "_test_counting", self._spec(tmp_path, xs=(0, 1, 2, 3, 4, 5)),
            store=store,
        )
        assert grown.cache_hits == 3
        assert grown.executed == 3
        log = _read_log(tmp_path / "invocations.log")
        assert len(log) == 6  # 3 + 3, never 3 + 6
        assert sorted(log) == ["0", "1", "2", "3", "4", "5"]

    def test_interrupted_sweep_resumes_only_missing(self, tmp_path):
        """Crash mid-sweep, fix the cause, re-run: completed trials are
        served from the store; only the missing ones execute."""
        store_path = tmp_path / "results.jsonl"
        log = tmp_path / "invocations.log"
        marker = tmp_path / "outage-over"
        spec = SweepSpec(
            axes=(Axis("x", (0, 1, 2, 3, 4, 5)),),
            base={"log": str(log), "gate": 3, "marker": str(marker)},
            seed=5,
        )
        no_retry = RetryPolicy(
            max_attempts=1, base_delay_s=0.0, max_delay_s=0.0, jitter=0.0
        )
        with pytest.raises(SweepError):
            run_sweep("_test_gated", spec, store=str(store_path),
                      retry=no_retry)
        # Trials 0..2 completed and were persisted before the crash.
        assert len(ResultStore(store_path)) == 3
        assert _read_log(log) == ["0", "1", "2", "3"]

        marker.touch()  # outage over
        resumed = run_sweep("_test_gated", spec, store=str(store_path),
                            retry=no_retry)
        assert resumed.cache_hits == 3
        assert resumed.executed == 3
        # Only 3, 4, 5 ran on resume — 0..2 were never re-invoked.
        assert _read_log(log) == ["0", "1", "2", "3", "3", "4", "5"]
        assert [o.record["value"] for o in resumed.outcomes] == [
            0.0, 1.0, 2.0, 3.0, 4.0, 5.0
        ]

    @pytest.mark.skipif("fork" not in START_METHODS, reason="no fork")
    def test_pool_run_populates_store(self, tmp_path):
        store = str(tmp_path / "results.jsonl")
        first = run_sweep("_test_counting", self._spec(tmp_path),
                          store=store, workers=2, start_method="fork")
        second = run_sweep("_test_counting", self._spec(tmp_path),
                           store=store)
        assert first.executed == 4
        assert second.cache_hits == 4
        assert second.report_json() == first.report_json()


class TestRetry:
    def test_transient_failure_retried(self, tmp_path):
        spec = SweepSpec(
            axes=(Axis("x", (0, 1, 2)),),
            base={"log": str(tmp_path / "log"),
                  "marker": str(tmp_path / "marker")},
            seed=1,
        )
        result = run_sweep("_test_flaky", spec)  # default: 2 attempts
        assert result.executed == 3
        # Every trial failed once and succeeded on the retry.
        assert len(_read_log(tmp_path / "log")) == 6

    @SERIAL_AND_POOL
    def test_retries_bounded(self, tmp_path, workers):
        spec = SweepSpec(
            axes=(Axis("x", (0,)),),
            base={"log": str(tmp_path / "log"),
                  "marker": str(tmp_path / "marker")},
            seed=1,
        )
        no_retry = RetryPolicy(
            max_attempts=1, base_delay_s=0.0, max_delay_s=0.0, jitter=0.0
        )
        with pytest.raises(SweepError) as exc:
            run_sweep("_test_flaky", spec, retry=no_retry,
                      **_pool_options(workers))
        assert "1 attempt" in str(exc.value)


class TestCheckpoint:
    def test_fingerprint_pinned(self, tmp_path):
        ckpt_path = tmp_path / "sweep.ckpt"
        run_sweep("demo", demo_spec(),
                  checkpoint=PipelineCheckpoint(ckpt_path))
        ckpt = PipelineCheckpoint(ckpt_path)
        assert ckpt.get("sweep-spec")["fingerprint"] == demo_spec().fingerprint()
        assert ckpt.get("sweep-complete")["trials"] == 4

    def test_different_spec_rejected(self, tmp_path):
        ckpt_path = tmp_path / "sweep.ckpt"
        run_sweep("demo", demo_spec(),
                  checkpoint=PipelineCheckpoint(ckpt_path))
        with pytest.raises(SweepError) as exc:
            run_sweep("demo", demo_spec(n=7),
                      checkpoint=PipelineCheckpoint(ckpt_path))
        assert "different sweep" in str(exc.value)

    def test_same_spec_resume_allowed(self, tmp_path):
        ckpt_path = tmp_path / "sweep.ckpt"
        store = str(tmp_path / "results.jsonl")
        run_sweep("demo", demo_spec(), store=store,
                  checkpoint=PipelineCheckpoint(ckpt_path))
        resumed = run_sweep("demo", demo_spec(), store=store,
                            checkpoint=PipelineCheckpoint(ckpt_path))
        assert resumed.cache_hits == 4


class TestProgress:
    def test_beats_reach_completion(self):
        beats = []
        run_sweep("demo", demo_spec(), on_progress=beats.append)
        assert beats[0].done == 0
        assert beats[-1].done == beats[-1].pending == 4
        assert all(b.total == 4 for b in beats)

    def test_cached_trials_counted(self, tmp_path):
        store = str(tmp_path / "results.jsonl")
        run_sweep("demo", demo_spec(), store=store)
        beats = []
        run_sweep("demo", demo_spec(), store=store, on_progress=beats.append)
        assert beats[-1].cached == 4
        assert beats[-1].pending == 0

    def test_eta_math(self):
        beat = SweepProgress(done=2, pending=4, cached=0, total=4,
                             elapsed_s=10.0)
        assert beat.eta_s == pytest.approx(10.0)
        assert "2/4 executed" in beat.formatted()
        first = SweepProgress(done=0, pending=4, cached=0, total=4,
                              elapsed_s=0.0)
        assert first.eta_s is None
        assert "eta" in first.formatted()


class TestStoreCorruptionIncidents:
    def test_corrupt_store_lines_surface_as_incidents(self, tmp_path):
        store_path = tmp_path / "results.jsonl"
        run_sweep("demo", demo_spec(), store=str(store_path))
        with store_path.open("a", encoding="utf-8") as handle:
            handle.write("{not json at all\n")

        result = run_sweep("demo", demo_spec(), store=str(store_path))
        assert result.cache_hits == 4  # the valid entries survived
        corruption = [i for i in result.incidents
                      if i.kind == "store-corruption"]
        assert len(corruption) == 1
        assert "1 corrupt line(s)" in corruption[0].detail

    def test_unreadable_checkpoint_surfaces_as_incident(self, tmp_path):
        ckpt_path = tmp_path / "sweep.ckpt"
        ckpt_path.write_text("garbage{{{")
        result = run_sweep("demo", demo_spec(),
                           checkpoint=PipelineCheckpoint(ckpt_path))
        assert result.executed == 4  # fresh start, nothing lost but time
        corruption = [i for i in result.incidents
                      if i.kind == "store-corruption"]
        assert len(corruption) == 1
        assert "unreadable" in corruption[0].detail

    def test_clean_run_has_no_incidents(self, tmp_path):
        result = run_sweep("demo", demo_spec(),
                           store=str(tmp_path / "results.jsonl"))
        assert result.incidents == []
        assert result.quarantined == []
        assert result.respawns == 0


def _logging_prewarm(params):
    """Prewarm hook that records (pid, x) so tests can see who warmed."""
    with open(params["plog"], "a", encoding="utf-8") as handle:
        handle.write(f"{os.getpid()}:{params['x']}\n")


def _broken_prewarm(params):
    raise RuntimeError("prewarm blew up; the sweep must not care")


for _exp in (
    Experiment(name="_test_prewarmed", trial=_counting_trial, version="1",
               prewarm=_logging_prewarm),
    Experiment(name="_test_prewarm_broken", trial=_counting_trial,
               version="1", prewarm=_broken_prewarm),
):
    register(_exp, replace=True)


class TestPrewarm:
    """The byte-neutral cache-warming hook around trial dispatch."""

    def _spec(self, tmp_path, xs=(0, 1, 2)):
        return SweepSpec(
            axes=(Axis("x", tuple(xs)),),
            base={"log": str(tmp_path / "trials.log"),
                  "plog": str(tmp_path / "prewarm.log")},
            seed=5,
        )

    def test_serial_run_prewarms_in_parent(self, tmp_path):
        result = run_sweep("_test_prewarmed", self._spec(tmp_path))
        assert result.executed == 3
        lines = _read_log(tmp_path / "prewarm.log")
        # One warm call per distinct param set, all in this process.
        assert sorted(line.split(":")[1] for line in lines) == ["0", "1", "2"]
        assert {line.split(":")[0] for line in lines} == {str(os.getpid())}

    def test_prewarm_bounded_to_eight_param_sets(self, tmp_path):
        run_sweep("_test_prewarmed", self._spec(tmp_path, xs=tuple(range(12))))
        assert len(_read_log(tmp_path / "prewarm.log")) == 8

    def test_prewarm_runs_before_any_trial(self, tmp_path):
        beats = []

        def watch(progress):
            if progress.done == 1 and len(beats) == 0:
                beats.append(_read_log(tmp_path / "prewarm.log"))

        run_sweep("_test_prewarmed", self._spec(tmp_path), on_progress=watch)
        # When the first trial finished, every warm call had already run.
        assert len(beats[0]) == 3

    def test_broken_prewarm_is_swallowed(self, tmp_path):
        result = run_sweep("_test_prewarm_broken", self._spec(tmp_path))
        assert result.executed == 3
        assert [o.record["square"] for o in result.outcomes] == [0.0, 1.0, 4.0]

    def test_prewarm_does_not_change_records(self, tmp_path):
        """Byte-neutrality: removing the hook leaves records untouched.

        Seeds derive from (experiment, params), so the comparison must
        rerun the *same* experiment name with prewarm stripped.
        """
        spec = self._spec(tmp_path)
        warmed = run_sweep("_test_prewarmed", spec)
        try:
            register(Experiment(name="_test_prewarmed",
                                trial=_counting_trial, version="1"),
                     replace=True)
            plain = run_sweep("_test_prewarmed", spec)
        finally:
            register(Experiment(name="_test_prewarmed",
                                trial=_counting_trial, version="1",
                                prewarm=_logging_prewarm),
                     replace=True)
        assert [o.record for o in warmed.outcomes] == [
            o.record for o in plain.outcomes
        ]
        assert warmed.report_json(group_by=["x"]) == plain.report_json(
            group_by=["x"]
        )

    @needs_fork
    @pytest.mark.parametrize("supervised", [False, True])
    def test_fork_pool_prewarms_and_matches_serial(self, tmp_path, supervised):
        spec = self._spec(tmp_path)  # same spec: seeds derive from params
        serial = run_sweep("_test_prewarmed", spec)
        pooled = run_sweep("_test_prewarmed", spec, workers=2,
                           start_method="fork", supervised=supervised)
        assert [o.record for o in pooled.outcomes] == [
            o.record for o in serial.outcomes
        ]
        lines = _read_log(tmp_path / "prewarm.log")
        # The parent warmed each param set in both runs (serial + pooled
        # pre-dispatch warm); every pool worker warms at startup too.
        parent = [l for l in lines if l.startswith(f"{os.getpid()}:")]
        assert sorted(l.split(":")[1] for l in parent) == [
            "0", "0", "1", "1", "2", "2"
        ]
        assert {l.split(":")[0] for l in lines} - {str(os.getpid())}

    @pytest.mark.skipif("fork" not in START_METHODS, reason="no fork")
    def test_builtin_experiments_still_poolable_without_prewarm(self):
        """No prewarm hook → nothing to warm: the pool path is unchanged."""
        serial = run_sweep("demo", demo_spec(n=2))
        pooled = run_sweep("demo", demo_spec(n=2), workers=2,
                           start_method="fork")
        assert pooled.report_json() == serial.report_json()
