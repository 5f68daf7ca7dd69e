"""End-to-end test of ``run.py --smoke``: every workload runs and checks
its outputs, a corrupted pinned digest fails the run, and a tree without
the program fails without printing a result.

Run with ``pytest bench/`` (about a minute).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from spec import METRICS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_smoke_runs_every_workload_and_checks_outputs(tmp_path):
    out = tmp_path / "smoke.json"
    proc = bench("--smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    line = last_json(proc.stdout)
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] > 0
    gated = [name for name, m in METRICS.items() if m.gated]
    assert set(line["metrics"]) == {f"{w}.{m}" for w in WORKLOADS for m in gated}
    for name, metric in line["metrics"].items():
        assert metric["value"] > 0, name
        assert metric["unit"] == METRICS[name.split(".", 1)[1]].unit
    result = json.loads(out.read_text())
    assert result["env"]["mcf_fast_path"] is True
    checked = {c["name"] for r in result["runs"] for c in r["record"]["checks"]}
    assert {"digest report_sha256", "digest clears_sha256",
            "digest smoke_clears_sha256", "journal audit clean",
            "generator lateness p99 <= 5 ms"} <= checked


def test_corrupted_digest_fails_the_run(tmp_path):
    expected = json.loads((BENCH / "expected.json").read_text())
    expected["fig2-micro"]["report_sha256"] = "0" * 64
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(expected))
    proc = bench("--smoke", "--workload", "fig2-micro", "--expected", str(corrupted),
                 "--out", str(tmp_path / "out.json"))
    assert proc.returncode == 1
    line = last_json(proc.stdout)
    assert line["correct"] is False and line["failed"] >= 1
    assert "FAILED fig2-micro: digest report_sha256" in proc.stdout


def test_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "clear-tiny", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
