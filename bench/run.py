"""Wall-clock benchmark of market clearing, the continental build and the
journaled socket service.

    python3 bench/run.py [--workload W ...] [--seed S] [--seconds T]
                         [--runs N] [--trace [0|1]] [--smoke]
                         [--out FILE [--append]] [--pin]

Each run executes every selected workload in a fresh process, rotating
the workload order from run to run so machine drift hits all of them
alike.  ``setup_s`` is the median of several set-ups per run (one per
process).  The command prints every metric with its unit, median and
quartiles, checks every output, and writes one JSON result (environment
included) to ``--out``.  With ``--trace`` each workload also runs once
more with per-layer spans; the per-layer table comes from that run and
the gap between the two is printed as the tracing overhead.

The last stdout line is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``: end-to-end medians untraced, per-layer medians
with ``--trace``.  The exit status is 0 when every check passed, 1 when
one failed, and 2 when a workload process crashed (no result line).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

import stats
from spec import (
    DEFAULT_SEED, METRICS, PER_LAYER, RUN_SECONDS, SETUP_REPEATS, WORKLOADS,
    metrics_for,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: All processes of one run of one workload (set-ups, the measured run
#: and the traced run) must end within this many seconds, or the one
#: still running is killed as hung.
RUN_TIMEOUT_S = 170.0


class WorkloadCrashed(RuntimeError):
    """A workload process died or hung without reporting."""


# -- environment ----------------------------------------------------------------


def _git(*args: str) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True,
            timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def source_digest() -> str:
    """SHA-256 over the program and benchmark sources (works without git)."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH):
        for path in sorted(top.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _fs_type(path: Path) -> Optional[str]:
    """Filesystem type of the mount holding ``path`` (Linux /proc/mounts)."""
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return None
    best, fstype = "", None
    target = str(path.resolve())
    for line in mounts:
        fields = line.split()
        if len(fields) < 3:
            continue
        point = fields[1]
        if (target == point or target.startswith(point.rstrip("/") + "/")) and len(point) > len(best):
            best, fstype = point, fields[2]
    return fstype


def _cpu_model() -> Optional[str]:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _version(package: str) -> Optional[str]:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment(work_dir: Path) -> Dict[str, object]:
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "platform": platform.platform(),
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "source_sha256": source_digest(),
        "journal_fs": _fs_type(work_dir),
    }


# -- workload processes ---------------------------------------------------------


def spawn(workload: str, args, deadline: float, *, trace: bool = False,
          setup_only: bool = False) -> Dict[str, object]:
    """Run one workload process, ended by ``deadline`` (monotonic), and
    return its JSON record."""
    command = [
        sys.executable, str(BENCH / "workloads.py"), workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", "1" if trace else "0",
        "--expected", str(args.expected), "--work-dir", str(args.work_dir),
    ]
    if args.smoke:
        command.append("--smoke")
    if setup_only:
        command.append("--setup-only")
    if args.pin:
        command.append("--pin")
    if trace:
        command += ["--trace-file", str(args.trace_file)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    command += ["--t0", repr(time.time())]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkloadCrashed(f"{workload}: no result within {RUN_TIMEOUT_S:.0f} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise WorkloadCrashed(f"{workload}: process exited with status {proc.returncode}")
    lines = [line for line in out.splitlines() if line.startswith("{")]
    if not lines:
        raise WorkloadCrashed(f"{workload}: process printed no record")
    return json.loads(lines[-1])


def run_workload(workload: str, args) -> Dict[str, object]:
    """Set-up samples, the measured run and, with --trace, the traced run."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    started = time.time()
    repeats = 1 if args.smoke else SETUP_REPEATS
    setups = [spawn(workload, args, deadline, setup_only=True)["setup_s"]
              for _ in range(repeats - 1)]
    record = spawn(workload, args, deadline)
    setups.append(record["setup_s"])
    entry = {
        "workload": workload,
        "started": started,
        "setup_samples": setups,
        "record": record,
        "traced": spawn(workload, args, deadline, trace=True) if args.trace else None,
    }
    entry["record"]["metrics"]["setup_s"] = statistics.median(setups)
    return entry


# -- reporting ------------------------------------------------------------------


def summarize(runs: List[dict]) -> Dict[str, Dict[str, dict]]:
    """Per workload and metric: median, quartiles and spread over runs."""
    out: Dict[str, Dict[str, dict]] = {}
    for workload in WORKLOADS:
        mine = [r["record"] for r in runs if r["workload"] == workload]
        if not mine:
            continue
        out[workload] = {
            name: stats.summarize([rec["metrics"][name] for rec in mine])
            for name in metrics_for(workload)
            if all(name in rec["metrics"] for rec in mine)
        }
    return out


def layer_summary(runs: List[dict]) -> Dict[str, dict]:
    """Per workload: traced per-layer medians and the tracing overhead."""
    out: Dict[str, dict] = {}
    for workload in WORKLOADS:
        pairs = [(r["record"], r["traced"]) for r in runs
                 if r["workload"] == workload and r.get("traced")]
        if not pairs:
            continue
        traced = [t for _, t in pairs]
        named = sorted({k for t in traced for k in t["layers"]["metrics"]})
        out[workload] = {
            "metrics": {k: statistics.median(t["layers"]["metrics"].get(k, 0.0)
                                             for t in traced) for k in named},
            "contract": {k: statistics.median(t["layers"]["contract"][k]
                                              for t in traced) for k in PER_LAYER},
            "table": traced[-1]["layers"]["table"],
            "wall_s": traced[-1]["layers"]["wall_s"],
            # How much longer one op takes with spans on, at equal
            # machine speed.
            "overhead": statistics.median(
                u["metrics"]["norm_ops_per_s"] / t["metrics"]["norm_ops_per_s"] - 1.0
                for u, t in pairs
            ),
        }
    return out


def _fmt(value: float) -> str:
    if value == 0 or 0.01 <= abs(value) < 1e6:
        return f"{value:,.4g}" if abs(value) < 1000 else f"{value:,.0f}"
    return f"{value:.3e}"


def print_report(result: dict) -> None:
    per_workload = max(Counter(r["workload"] for r in result["runs"]).values())
    print(f"# bench  seed={result['config']['seed']}  seconds={result['config']['seconds']}"
          f"  runs per workload={per_workload}  smoke={result['config']['smoke']}")
    env = result["env"]
    print(f"# {env['cpu_model']}  nproc={env['nproc']}  python {env['python']}  "
          f"numpy {env['numpy']}  scipy {env['scipy']}  journal fs {env['journal_fs']}  "
          f"git {str(env['git_sha'])[:12]}{'+dirty' if env['git_dirty'] else ''}")
    for workload, metrics in result["summary"].items():
        print(f"\n## {workload}")
        print(f"{'metric':<24}{'unit':>7}{'better':>8}{'bound':>7}"
              f"{'median':>12}{'q1':>12}{'q3':>12}{'spread':>8}{'n':>4}")
        for name, s in metrics.items():
            m = METRICS[name]
            bound = "-" if m.bound is None else f"{m.bound:.0%}"
            print(f"{name:<24}{m.unit:>7}{m.better:>8}{bound:>7}{_fmt(s['median']):>12}"
                  f"{_fmt(s['q1']):>12}{_fmt(s['q3']):>12}{s['rel_iqr']:>8.1%}{s['n']:>4}")
    failed = [(r["workload"], c) for r in result["runs"]
              for rec in (r["record"], r.get("traced")) if rec
              for c in rec["checks"] if not c["ok"]]
    total = sum(len(rec["checks"]) for r in result["runs"]
                for rec in (r["record"], r.get("traced")) if rec)
    print(f"\nchecks: {total - len(failed)}/{total} passed")
    for workload, check in failed:
        print(f"  FAILED {workload}: {check['name']}: {check['detail']}")
    for workload, layers in result.get("layers", {}).items():
        wall = layers["wall_s"]
        print(f"\n## {workload} per layer (traced run, {wall:.1f} s wall; "
              f"tracing overhead {layers['overhead']:+.1%} per op)")
        print(f"{'span':<28}{'calls':>10}{'busy s':>10}{'self s':>10}{'share':>8}")
        for name, row in sorted(layers["table"].items(), key=lambda kv: -kv[1]["busy_s"]):
            print(f"{name:<28}{int(row['calls']):>10}{row['busy_s']:>10.3f}"
                  f"{row['self_s']:>10.3f}{row['busy_s'] / wall:>8.1%}")
        for name, value in layers["metrics"].items():
            print(f"  {name:<48}{_fmt(value):>14}")


def final_line(result: dict, trace: bool) -> Dict[str, object]:
    """The one-line summary: correctness, counts and the metric medians."""
    records = [rec for r in result["runs"]
               for rec in (r["record"], r.get("traced")) if rec]
    single = len(result["summary"]) == 1
    metrics: Dict[str, dict] = {}
    for workload, summary in result["summary"].items():
        prefix = "" if single else f"{workload}."
        if trace:
            for name, (unit, _better) in PER_LAYER.items():
                metrics[prefix + name] = {
                    "value": result["layers"][workload]["contract"][name], "unit": unit,
                }
        else:
            for name, metric in METRICS.items():
                if metric.gated:
                    metrics[prefix + name] = {
                        "value": summary[name]["median"], "unit": metric.unit,
                    }
    return {
        "correct": all(c["ok"] for rec in records for c in rec["checks"]),
        "attempted": sum(rec["attempted"] for rec in records),
        "failed": sum(rec["failed"] for rec in records),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="seconds each run measures")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="also run traced for per-layer numbers")
    parser.add_argument("--smoke", action="store_true",
                        help="a few operations per workload, for tests")
    parser.add_argument("--out", type=Path, default=BENCH / "results" / "latest.json")
    parser.add_argument("--append", action="store_true",
                        help="add these runs to the runs already in --out")
    parser.add_argument("--expected", type=Path, default=BENCH / "expected.json",
                        help="pinned output digests")
    parser.add_argument("--pin", action="store_true",
                        help="write the observed digests to --expected instead "
                             "of checking them")
    args = parser.parse_args(argv)
    if args.runs < 1 or args.seconds <= 0:
        parser.error("--runs and --seconds must be positive")
    workloads = args.workload or list(WORKLOADS)
    args.work_dir = BENCH / ".work"
    args.work_dir.mkdir(parents=True, exist_ok=True)

    env = environment(args.work_dir)
    args.trace_file = BENCH / "results" / (
        f"trace-{(env['git_sha'] or env['source_sha256'])[:12]}.jsonl")
    if args.trace:
        args.trace_file.parent.mkdir(parents=True, exist_ok=True)
        args.trace_file.write_text("")

    runs: List[dict] = []
    try:
        for index in range(args.runs):
            shift = index % len(workloads)
            for workload in workloads[shift:] + workloads[:shift]:
                entry = run_workload(workload, args)
                entry["run"] = index
                runs.append(entry)
    except WorkloadCrashed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    if args.append and args.out.exists():
        runs = json.loads(args.out.read_text())["runs"] + runs
    result = {
        "schema": "bench-result/1",
        "env": env,
        "config": {"seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
                   "trace": bool(args.trace), "workloads": workloads,
                   "order": [r["workload"] for r in runs]},
        "runs": runs,
        "summary": summarize(runs),
        "layers": layer_summary(runs),
    }
    result["env"]["mcf_fast_path"] = all(
        c["ok"] for r in runs for rec in (r["record"], r.get("traced")) if rec
        for c in rec["checks"] if c["name"] in ("mcf fast path", "no LP fallback solves")
    )
    if args.pin:
        pinned = json.loads(args.expected.read_text()) if args.expected.exists() else {}
        pinned["seed"] = args.seed
        for r in runs:
            pinned.setdefault(r["workload"], {}).update(r["record"]["digests"])
        args.expected.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print_report(result)
    line = final_line(result, bool(args.trace))
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
