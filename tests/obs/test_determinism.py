"""The observability layer must never perturb results.

Three guarantees from the design:

1. per-trial counter snapshots are identical whether a sweep ran
   serially or on a worker pool (fresh registry per trial scope) —
   except the cache-*locality* counters, which say where an answer
   came from (warm model memo vs LP solve vs cut short circuit) and so
   legitimately depend on what earlier trials warmed in the process;
   for those, the per-trial *total* of answers is what must match;
2. the sweep aggregate JSON is byte-identical with and without
   ``--metrics``/``--trace`` — telemetry is a sidecar, never part of
   the result records;
3. the ``perf`` report attributes (essentially all of) trial wall time
   to named phases.
"""

import multiprocessing
import os
import pathlib
import subprocess
import sys

import pytest

from repro import obs
from repro.obs.perf import load_jsonl, load_perf
from repro.sweeps.runner import run_sweep
from repro.sweeps.spec import Axis, SweepSpec

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def _micro_spec(repeats=2):
    return SweepSpec(axes=(Axis("preset", ("micro",)),), repeats=repeats)


def _trial_counters(path):
    """{(key, index): counters} from a metrics sidecar."""
    return {
        (line["key"], line["index"]): line["counters"]
        for line in load_jsonl(path)
        if line["kind"] == "trial"
    }


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    # A sidecar path leaking in from the host environment would
    # instrument the "uninstrumented" control run.
    env.pop(obs.METRICS_ENV, None)
    env.pop(obs.TRACE_ENV, None)
    return env


def _run_cli(args, cwd):
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        cwd=str(cwd), env=_cli_env(),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestWorkerIndependence:
    @pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
    def test_serial_and_pool_counters_identical(self, tmp_path):
        serial_m = tmp_path / "serial.jsonl"
        pool_m = tmp_path / "pool.jsonl"

        obs.configure(metrics_path=str(serial_m), propagate=False)
        serial = run_sweep("figure2", _micro_spec())
        obs.configure(metrics_path=str(pool_m), propagate=False)
        pooled = run_sweep("figure2", _micro_spec(), workers=2,
                           start_method="fork")

        assert serial.report_json() == pooled.report_json()
        a, b = _trial_counters(serial_m), _trial_counters(pool_m)
        assert set(a) == set(b) and len(a) == 2

        # Cache-locality counters record *where* an oracle answer came
        # from; the warm model caches are per process, so serial and
        # pool layouts may split the same queries differently.
        locality = {
            "mcf.solves", "mcf.memo_hits", "mcf.cut_shortcircuits",
            "mcf.model_cache_hits", "mcf.model_cache_misses",
        }

        def answers(counters):
            """Total oracle answers, however they were served."""
            return sum(counters.get(name, 0) for name in (
                "mcf.solves", "mcf.memo_hits", "mcf.cut_shortcircuits",
            ))

        for key in a:
            stable_a = {n: v for n, v in a[key].items() if n not in locality}
            stable_b = {n: v for n, v in b[key].items() if n not in locality}
            assert stable_a == stable_b  # exact match outside locality
            # The same trial asks the same questions in every layout.
            assert answers(a[key]) == answers(b[key])
            assert answers(a[key]) > 0
            assert a[key]["trial.attempts"] == 1


class TestCutShortCircuitCounter:
    def test_constraint3_trial_records_cut_shortcircuits(self, tmp_path):
        """Cut-test answers the MCF oracle gets are counted per trial."""
        path = tmp_path / "m.jsonl"
        obs.configure(metrics_path=str(path), propagate=False)
        spec = SweepSpec(
            axes=(Axis("seed", (0,)),),
            base={"preset": "micro", "constraints": "1,2,3", "engine": "mcf",
                  "method": "add-prune"},
        )
        run_sweep("figure2", spec)
        (counters,) = _trial_counters(path).values()
        assert counters.get("mcf.cut_shortcircuits", 0) > 0


class TestByteIdenticalAggregates:
    def test_sweep_json_unchanged_by_obs_flags(self, tmp_path):
        base = ["sweep", "--experiment", "figure2", "--preset", "micro",
                "--repeats", "2", "--json"]
        plain = _run_cli(base, tmp_path)
        instrumented = _run_cli(
            base + ["--metrics", str(tmp_path / "m.jsonl"),
                    "--trace", str(tmp_path / "t.jsonl")],
            tmp_path,
        )
        assert plain == instrumented
        # And the sidecars were actually written by the instrumented run.
        kinds = {line["kind"] for line in load_jsonl(tmp_path / "m.jsonl")}
        assert kinds == {"trial", "sweep"}

    def test_in_process_obs_does_not_change_records(self, tmp_path):
        plain = run_sweep("figure2", _micro_spec(repeats=1))
        obs.configure(metrics_path=str(tmp_path / "m.jsonl"), propagate=False)
        instrumented = run_sweep("figure2", _micro_spec(repeats=1))
        assert plain.rows() == instrumented.rows()
        assert plain.report_json() == instrumented.report_json()


class TestPerfAttribution:
    def test_attributes_at_least_90_percent_of_wall_time(self, tmp_path):
        # Start from a cold warm-model cache: a fully memo-served sweep
        # would legitimately never enter an mcf.solve span.
        from repro.netflow.model import model_cache

        model_cache().clear()
        metrics = tmp_path / "m.jsonl"
        obs.configure(metrics_path=str(metrics), propagate=False)
        run_sweep("figure2", _micro_spec())
        report = load_perf([metrics])
        assert len(report.trials) == 2
        assert report.attributed_fraction >= 0.90
        phase_names = {p.name for p in report.phases}
        assert "mcf.solve" in phase_names and "overhead" in phase_names

    def test_perf_cli_end_to_end(self, tmp_path):
        metrics = tmp_path / "m.jsonl"
        _run_cli(
            ["sweep", "--experiment", "figure2", "--preset", "micro",
             "--metrics", str(metrics)],
            tmp_path,
        )
        out = _run_cli(["perf", str(metrics)], tmp_path)
        header = out.splitlines()[0]
        assert header.startswith("perf —")
        attributed = float(header.rsplit("attributed", 1)[1].strip().rstrip("%"))
        assert attributed >= 90.0
