"""One benchmark workload in one process: set up, measure, check, report.

``run.py`` starts this script once per workload and run::

    python3 bench/workloads.py WORKLOAD --seed S --seconds T --t0 WALL
        [--trace 0|1] [--smoke] [--setup-only] [--expected FILE] [--pin]
        [--trace-file FILE] [--work-dir DIR]

``--t0`` is the wall time at which the parent spawned this process, so
``setup_s`` includes interpreter start and imports.  The last line on
stdout is one JSON record: set-up time, end-to-end metrics, the outcome
of every correctness check and, when traced, per-layer numbers.

Inputs come from ``--seed``; what each workload holds fixed is its
stated input size (see ``README.md``):

- ``fig2-micro``: the micro topology and TM (seed-independent by
  design); trial seeds from ``--seed``;
- ``clear-tiny``: tiny zoo #131704 (99 logical links); each clear's
  load fraction is drawn from ``--seed``, so every clear is a new TM and
  no cached model or memo applies;
- ``continental``: the T2 preset at its own seed (2026: 110 BPs, 538
  sites, 208,184 links) and the smoke topology (same seed); the smoke
  clears draw their offer seeds from ``--seed``;
- ``svc-socket``: the daemon's micro clearing and the request stream.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import gc
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time
import zlib
from pathlib import Path
from typing import Dict, Iterator, List, Optional

import numpy as np

import stats
from spec import DEFAULT_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent
clock = time.monotonic

#: The calibration unit's time on the reference host (a 2-vCPU Xeon VM,
#: Python 3.11, at its fast speed): normalized metrics read as if
#: measured there.
CALIBRATION_REF_MS = 0.5
#: Figure-2 trials per SweepRunner call; the first call's report is pinned.
CHUNK = 5
MICRO_PARAMS = {
    "preset": "micro", "constraints": "1,2,3", "engine": "mcf",
    "method": "add-prune",
}
TINY_ZOO_SEED = 131704
TINY_LOAD = 0.02
LOAD_JITTER = 0.05
#: Topology seed of the T2 build and the smoke clears (the presets' own).
CONTINENTAL_SEED = 2026
#: Clears a --smoke run makes (and the digest-pinned prefix of a full run).
SMOKE_CLEARS = 2
#: Steady-phase arrival rate and closed-loop concurrencies.
STEADY_QPS = 1000.0
SATURATE_INFLIGHT = 32
OVERLOAD_INFLIGHT = 256
#: svc-socket phases and their shares of --seconds.
PHASES = (("warmup", 0.1), ("steady", 0.4), ("saturate", 0.25), ("overload", 0.25))
#: Interval between calibration units during an svc-socket phase.
CALIBRATION_EVERY_S = 0.1
SMOKE_PHASE_S = 2.0
#: Steady-phase measurements a run makes before it counts as invalid.
STEADY_ATTEMPTS = 3
#: Generator lateness p99 a valid steady phase stays within, at the
#: reference machine speed.
LATENESS_LIMIT_MS = 5.0
#: How long a request may stay unanswered before it counts as lost.
ANSWER_TIMEOUT_S = 10.0


def seed_stream(seed: int, tag: str) -> Iterator[int]:
    """Distinct non-negative ints, a pure function of (seed, tag)."""
    rng = np.random.default_rng([seed, zlib.crc32(tag.encode())])
    seen = set()
    while True:
        value = int(rng.integers(0, 2**31 - 1))
        if value not in seen:
            seen.add(value)
            yield value


#: Inputs of the calibration unit, built once so the unit allocates
#: (almost) nothing and its time cannot depend on the state of the heap.
_CALIBRATION_VALUES = list(range(8000))
_CALIBRATION_KEYS = [str(i * 7919 % 10007) for i in range(800)]
_CALIBRATION_TABLE = np.ones(1 << 21)
_CALIBRATION_INDEX = np.random.default_rng(0).integers(0, 1 << 21, 8000)
_CALIBRATION_OUT = np.empty(8000)
#: Resident size of the table, which every clearing process carries and
#: ``peak_rss_mb`` leaves out.
CALIBRATION_MB = _CALIBRATION_TABLE.nbytes / 2**20


def calibration_unit() -> float:
    """Seconds one fixed unit of work takes right now.

    The unit runs an interpreter loop and 8,000 random reads from a
    16 MiB array, so it slows both when the host takes the CPU and when
    it takes the memory system; with only the loop, clearing throughput
    normalized by it spread about twice as much.  It touches no code of
    the program under test, and the cyclic GC is paused so a collection
    of the caller's heap cannot land inside it.
    """
    paused = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        table: Dict[int, int] = {}
        for value in _CALIBRATION_VALUES:
            table[value % 211] = value
        sorted(_CALIBRATION_KEYS)
        np.take(_CALIBRATION_TABLE, _CALIBRATION_INDEX, out=_CALIBRATION_OUT)
        return time.perf_counter() - t
    finally:
        if paused:
            gc.enable()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def maxrss_mb() -> float:
    """Peak RSS of this process, less the calibration table."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 - CALIBRATION_MB


class Run:
    """State of this run: arguments, checks, digests, tracer."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.seconds = float(args.seconds)
        self.setup_s: Optional[float] = None
        self.checks: List[Dict[str, object]] = []
        self.digests: Dict[str, object] = {}
        self.calibration: List[float] = []
        self.tracer = None
        if args.trace:
            import tracing

            self.tracer = tracing.Tracer(f"{args.workload}-{os.getpid()}")
        expected = {}
        if args.expected and Path(args.expected).exists():
            expected = json.loads(Path(args.expected).read_text())
        self.expected = expected.get(args.workload, {})
        self.seed_pinned = expected.get("seed") == args.seed

    def calibrate(self) -> None:
        """Sample the machine's speed between two operations."""
        self.calibration += [calibration_unit() for _ in range(5)]

    def slowdown(self, samples: Optional[List[float]] = None) -> float:
        """How much slower than the reference host this run's machine ran.

        The mean, not the median: a shared host switches between a fast
        and a slow speed (samples cluster near 0.42 and 0.75 ms), and a
        run's wall time sums over both, as the mean does; the median
        jumps from one cluster to the other.
        """
        samples = self.calibration if samples is None else samples
        return statistics.mean(samples) * 1000.0 / CALIBRATION_REF_MS

    def ready(self) -> None:
        """Set-up is over: imports done, caches warm, inputs ready."""
        self.setup_s = time.time() - self.args.t0

    def check(self, name: str, ok: bool, detail: object = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": str(detail)[:300]})

    def pin(self, key: str, value: object, *, any_seed: bool = False) -> None:
        """Record a digest and compare it with the pinned one.

        Outputs that depend on ``--seed`` are pinned for one seed only;
        ``any_seed`` marks an output of seed-independent inputs.
        """
        self.digests[key] = value
        if self.args.pin or not (any_seed or self.seed_pinned):
            return
        if key not in self.expected:
            self.check(f"digest {key}", False, "no pinned value")
            return
        want = self.expected[key]
        if isinstance(value, list):
            # A run compares as much of a pinned prefix as it produced.
            n = min(len(value), len(want))
            self.check(f"digest {key}", value[:n] == want[:n] and n > 0,
                       f"first {n} of {len(want)} compared")
        else:
            self.check(f"digest {key}", value == want, value)

    @property
    def failed_checks(self) -> int:
        return sum(1 for c in self.checks if not c["ok"])

    def until(self, start: float, done: int) -> bool:
        """Keep measuring?  Smoke runs stop after their fixed count."""
        if self.args.smoke:
            return done < SMOKE_CLEARS
        return clock() - start < self.seconds


def _clearing_layers(run: Run, wall_s: float) -> Dict[str, object]:
    import tracing

    tracer = run.tracer
    table = tracing.span_table(tracer.spans)
    get = lambda name, col: table.get(name, {}).get(col, 0.0)  # noqa: E731
    layer = {
        "sweeps.run_self_s": get("sweeps.run", "self_s"),
        "experiments.workload_s": get("experiments.workload", "busy_s"),
        "auction.clear_calls": int(get("auction.clear", "calls")),
        "auction.select_calls": int(get("auction.select", "calls")),
        "auction.select_self_s": get("auction.select", "self_s"),
        "auction.sharded_split_s": get("auction.sharded_split", "busy_s"),
        "netflow.lp_solve_s": get("netflow.lp_solve", "busy_s"),
        "netflow.model_build_s": get("netflow.model_build", "busy_s"),
        "topology.waxman_s": get("topology.waxman", "busy_s"),
        "topology.logical_links_s": get("topology.logical_links", "busy_s"),
        "topology.offered_network_s": get("topology.offered_network", "busy_s"),
        "topology.links": int(tracer.counts.get("topology.links", 0)),
        "topology.rss_mb": tracer.counts.get("topology.rss_mb", 0.0),
        "traffic.matrix_s": get("traffic.matrix", "busy_s"),
        "traffic.pairs": int(tracer.counts.get("traffic.pairs", 0)),
    }
    layer.update(tracing.netflow_counts(tracer))
    return {"wall_s": wall_s, "table": table, "metrics": layer}


def _contract_layers(layer: Dict[str, float], ops: int, wall_s: float,
                     service_wall_s: float = 0.0) -> Dict[str, float]:
    """The BENCHMARK.json per-layer metrics from the named layer numbers."""

    def share(key: str, wall: float = wall_s) -> float:
        return layer.get(key, 0.0) / wall if wall else 0.0

    def per_op(key: str) -> float:
        return layer.get(key, 0) / ops if ops else 0.0

    return {
        "sweeps.run_self_share": share("sweeps.run_self_s"),
        "experiments.workload_share": share("experiments.workload_s"),
        "auction.select_self_share": share("auction.select_self_s"),
        "auction.sharded_split_share": share("auction.sharded_split_s"),
        "netflow.lp_solve_share": share("netflow.lp_solve_s"),
        "netflow.model_build_share": share("netflow.model_build_s"),
        "topology.build_share": sum(share(k) for k in (
            "topology.waxman_s", "topology.logical_links_s",
            "topology.offered_network_s")),
        "traffic.matrix_share": share("traffic.matrix_s"),
        "service.decode_share": share("service.decode_s", service_wall_s),
        "service.encode_share": share("service.encode_s", service_wall_s),
        "service.answer_share": share("service.answer_s", service_wall_s),
        "service.journal_share": share("service.journal_s", service_wall_s),
        "service.fsync_share": share("service.fsync_s", service_wall_s),
        "dataplane.freeze_share": share("dataplane.freeze_s"),
        "auction.select_calls_per_op": per_op("auction.select_calls"),
        "netflow.oracle_calls_per_op": per_op("netflow.oracle_calls"),
        "netflow.oracle_hit_ratio": layer.get("netflow.oracle_hit_ratio", 0.0),
        "netflow.lp_solves_per_op": per_op("netflow.lp_solves"),
        "netflow.memo_hit_ratio": layer.get("netflow.memo_hit_ratio", 0.0),
        "netflow.cut_shortcircuits_per_op": per_op("netflow.cut_shortcircuits"),
        "netflow.model_builds_per_op": per_op("netflow.model_builds"),
        "netflow.fallback_solves": layer.get("netflow.fallback_solves", 0),
        "service.journal_appends_per_request": layer.get(
            "service.journal_appends_per_request", 0.0),
        "service.cpu_util": layer.get("service.cpu_util", 0.0),
    }


def _fast_path_probe(run: Run) -> None:
    """Solve one LP through McfModel and require the direct-HiGHS path.

    ``McfModel`` silently falls back to scipy's ``linprog`` when its
    private HiGHS import fails or ``REPRO_MCF_WARM=off`` is set; a
    benchmark on the fallback would measure a different program.
    """
    from repro.netflow.model import McfModel
    from repro.resilience.chaos import micro_scenario

    network, _offers, tm = micro_scenario(0)
    model = McfModel(network, tm)
    model.solve()
    run.check("mcf fast path", model.fallback_solves == 0,
              f"fallback_solves={model.fallback_solves}")


# -- fig2-micro -----------------------------------------------------------------


def fig2_micro(run: Run) -> Dict[str, object]:
    from repro.experiments import trials
    from repro.sweeps import Axis, SweepRunner, SweepSpec
    from repro.validate.invariants import check_record

    import tracing

    def grid(seeds: List[int]) -> SweepSpec:
        return SweepSpec(axes=(Axis("seed", tuple(seeds)),), base=MICRO_PARAMS)

    if run.tracer is not None:
        tracing.install_clearing(run.tracer)
        tracing.trace_trials(run.tracer, "figure2")
    seeds = seed_stream(run.args.seed, "fig2-micro")
    trials.micro_prewarm(MICRO_PARAMS)
    SweepRunner("figure2").run(grid([next(seeds)]))
    run.ready()
    if run.args.setup_only:
        return {}

    # Throughput counts each SweepRunner.run call whole, so the runner's
    # own work shows; the per-trial times come from its progress beats
    # (one at the start, one per finished trial).
    results, trial_s, wall_s = [], [], 0.0
    start = clock()
    while True:
        marks: List[float] = []
        runner = SweepRunner("figure2", on_progress=lambda _beat: marks.append(clock()))
        chunk = grid([next(seeds) for _ in range(CHUNK)])
        t = clock()
        results.append(runner.run(chunk))
        wall_s += clock() - t
        trial_s += stats.diffs(marks)
        run.calibrate()
        if run.args.smoke or clock() - start >= run.seconds:
            break

    run.pin("report_sha256", sha256(results[0].report_json(group_by=[])))
    records = [o.record for r in results for o in r.outcomes]
    bad = [v for rec in records for v in check_record("figure2", rec)]
    run.check("trial invariants", not bad, bad[:3])
    run.check("trials complete", len(records) == CHUNK * len(results),
              f"{len(records)} records")
    incidents = [i for r in results for i in r.incidents]
    run.check("no sweep incidents", not incidents, incidents[:3])
    clears = 3 * len(records)
    return {
        "ops": clears,
        "wall_s": wall_s,
        "metrics": {
            "clears_per_s": clears / wall_s,
            "clear_p50_ms": statistics.median(trial_s) / 3 * 1000.0,
        },
    }


# -- clear-tiny -----------------------------------------------------------------


def _auction_json(result) -> str:
    """Canonical JSON of one clear's selection and payments."""
    return json.dumps({
        "selected": sorted(result.selected),
        "payments": {p: result.providers[p].payment for p in sorted(result.providers)},
        "external_cost": result.external_cost,
    }, sort_keys=True)


def clear_tiny(run: Run) -> Dict[str, object]:
    from repro.experiments.figure2 import Figure2Config, run_figure2

    import tracing

    if run.tracer is not None:
        tracing.install_clearing(run.tracer)
    loads = np.random.default_rng([run.args.seed, zlib.crc32(b"clear-tiny")])
    run.ready()
    if run.args.setup_only:
        return {}

    results, clear_s = [], []
    start = clock()
    while run.until(start, len(results)):
        load = TINY_LOAD * float(loads.uniform(1 - LOAD_JITTER, 1 + LOAD_JITTER))
        t = clock()
        figure = run_figure2(Figure2Config(
            preset="tiny", seed=TINY_ZOO_SEED, constraints=(1,),
            engines={1: "mcf"}, method="add-prune", load_fraction=load,
        ))
        clear_s.append(clock() - t)
        (result,) = figure.results.values()
        results.append(result)
        run.calibrate()
    wall_s = sum(clear_s)

    for i, result in enumerate(results):
        violations = result.audit()
        run.check(f"audit clear {i}", not violations, violations[:3])
    run.pin("clears_sha256", [sha256(_auction_json(r)) for r in results])
    return {
        "ops": len(results),
        "wall_s": wall_s,
        "metrics": {
            "clears_per_s": len(results) / wall_s,
            "clear_p50_ms": statistics.median(clear_s) * 1000.0,
        },
    }


# -- continental ----------------------------------------------------------------


def continental(run: Run) -> Dict[str, object]:
    from repro.auction import sharded

    import tracing

    if run.tracer is not None:
        tracing.install_clearing(run.tracer)
    offer_seeds = seed_stream(run.args.seed, "continental")
    run.ready()
    if run.args.setup_only:
        return {}

    metrics: Dict[str, float] = {}
    info: Dict[str, object] = {}
    if not run.args.smoke:
        t = clock()
        zoo, _offers, _tm, _partition = sharded.continental_workload(
            "t2", CONTINENTAL_SEED)
        metrics["build_s"] = clock() - t
        info["t2"] = {"bps": len(zoo.bps), "sites": len(zoo.sites),
                      "links": zoo.num_logical_links}
        info["rss_after_build_mb"] = maxrss_mb()
        if run.tracer is not None:
            run.tracer.counts["topology.rss_mb"] = info["rss_after_build_mb"]
        run.pin("t2_counts", info["t2"], any_seed=True)

    clears, clear_s = [], []
    start = clock()
    while run.until(start, len(clears)):
        t = clock()
        clears.append(sharded.clear_sharded_spec(
            "smoke", CONTINENTAL_SEED, engine="mcf", method="greedy-drop",
            offer_seed=next(offer_seeds),
        ))
        clear_s.append(clock() - t)
        run.calibrate()
    wall_s = sum(clear_s)

    for i, clear in enumerate(clears):
        run.check(f"smoke clear {i} selects", bool(clear.selected) and clear.total_cost > 0,
                  f"{len(clear.selected)} links, cost {clear.total_cost}")
    run.pin("smoke_clears_sha256", [sha256(c.canonical_json()) for c in clears])
    metrics["clears_per_s"] = len(clears) / wall_s
    metrics["clear_p50_ms"] = statistics.median(clear_s) * 1000.0
    return {"ops": len(clears), "wall_s": wall_s, "metrics": metrics, "info": info}


# -- svc-socket -----------------------------------------------------------------


def _cpu_s(pid: int) -> Optional[float]:
    """utime + stime of a process, from /proc (None where unavailable)."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


async def _json_line(stream, key: str, timeout: float) -> Dict[str, object]:
    """The next stdout line of the daemon that is a JSON object with ``key``."""
    deadline = clock() + timeout
    while True:
        line = await asyncio.wait_for(stream.readline(), max(0.1, deadline - clock()))
        if not line:
            raise RuntimeError(f"daemon exited before reporting {key!r}")
        try:
            message = json.loads(line)
        except ValueError:
            continue
        if isinstance(message, dict) and key in message:
            return message


class _Client:
    """One pipelined connection: frames out with ids, replies by id."""

    def __init__(self, reader, writer) -> None:
        from repro.service.transport import read_frame, write_frame

        self._read_frame, self._write_frame = read_frame, write_frame
        self.reader, self.writer = reader, writer
        self.lock = asyncio.Lock()
        self.pending: Dict[int, asyncio.Future] = {}
        self.next_id = 1
        self.task = asyncio.ensure_future(self._dispatch())

    async def _dispatch(self) -> None:
        from repro.exceptions import TransportError

        try:
            while True:
                message = await self._read_frame(self.reader)
                future = self.pending.pop(message.get("id"), None)
                if future is not None and not future.done():
                    future.set_result((clock(), message))
        except TransportError:
            pass

    async def send(self, kind: str, params: Dict[str, object]) -> asyncio.Future:
        corr = self.next_id
        self.next_id += 1
        future = asyncio.get_running_loop().create_future()
        self.pending[corr] = future
        await self._write_frame(
            self.writer, {"id": corr, "kind": kind, "params": params}, lock=self.lock
        )
        return future

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self.task.cancel()
        await asyncio.gather(self.task, return_exceptions=True)


class _Phase:
    """Every request one phase sent: due, sent and answer times, status."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.start = clock()
        self.end = self.start
        self.rows: List[list] = []  # [due, sent, recv or None, status, version, server_s]
        self.cpu = (None, None)
        self.calibration: List[float] = []

    async def collect(self, due: float, sent: float, future) -> None:
        try:
            recv, message = await asyncio.wait_for(future, ANSWER_TIMEOUT_S)
        except asyncio.TimeoutError:
            self.rows.append([due, sent, None, "unanswered", 0, 0.0])
            return
        response = message.get("response") or {}
        self.rows.append([
            due, sent, recv, str(response.get("status", "error-frame")),
            int(response.get("version", 0)), float(response.get("latency_s", 0.0)),
        ])

    def count(self, *statuses: str) -> int:
        return sum(1 for row in self.rows if row[3] in statuses)

    def answered_qps(self, status: str = "ok") -> float:
        last = max((row[2] for row in self.rows if row[2] is not None), default=self.start)
        return self.count(status) / (last - self.start) if last > self.start else 0.0


async def _open_loop(client: _Client, phase: _Phase, plan) -> None:
    """Send on the plan's schedule; time each request from its due time."""
    collectors = []
    for offset, kind, params in plan:
        due = phase.start + offset
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        sent = clock()
        future = await client.send(kind, params)
        collectors.append(asyncio.ensure_future(phase.collect(due, sent, future)))
    await asyncio.gather(*collectors)


async def _closed_loop(client: _Client, phase: _Phase, plan, inflight: int,
                       seconds: float) -> None:
    """``inflight`` callers, each sending its next request on an answer."""
    stop = phase.start + seconds
    requests = [(kind, params) for _t, kind, params in plan]

    async def caller(k: int) -> None:
        i = k
        while clock() < stop:
            kind, params = requests[i % len(requests)]
            i += inflight
            sent = clock()
            await phase.collect(sent, sent, await client.send(kind, params))

    await asyncio.gather(*(caller(k) for k in range(inflight)))


async def _run_phase(name: str, pid: int, runner) -> _Phase:
    """Run one phase while sampling the calibration unit every 100 ms.

    The samples see the machine state the phase saw.  Each blocks the
    generator for 0.5–1 ms, delaying about 1% of requests by under 1 ms.
    """
    phase = _Phase(name)
    cpu0 = _cpu_s(pid)
    done = asyncio.Event()

    async def sample() -> None:
        while not done.is_set():
            await asyncio.sleep(CALIBRATION_EVERY_S)
            phase.calibration.append(calibration_unit())

    sampler = asyncio.ensure_future(sample())
    await runner(phase)
    done.set()
    await sampler
    phase.end = clock()
    phase.cpu = (cpu0, _cpu_s(pid))
    return phase


@contextlib.contextmanager
def _one_cpu(daemon_pid: int, active: bool):
    """Run the generator and the daemon on one CPU while active.

    Saturation throughput is then the pair's combined per-request CPU
    cost on one core, whatever the host does with the VM's other vCPUs;
    with each on its own vCPU it swung by a third from run to run.
    """
    if not active or not hasattr(os, "sched_setaffinity"):
        yield
        return
    mine = os.sched_getaffinity(0)
    theirs = os.sched_getaffinity(daemon_pid)
    one = {min(mine & theirs or mine)}
    os.sched_setaffinity(0, one)
    os.sched_setaffinity(daemon_pid, one)
    try:
        yield
    finally:
        os.sched_setaffinity(daemon_pid, theirs)
        os.sched_setaffinity(0, mine)


def _cpu_util(phase: _Phase) -> float:
    cpu0, cpu1 = phase.cpu
    if cpu0 is None or cpu1 is None or phase.end <= phase.start:
        return 0.0
    return (cpu1 - cpu0) / (phase.end - phase.start)


async def _svc(run: Run) -> Dict[str, object]:
    work = Path(run.args.work_dir)
    work.mkdir(parents=True, exist_ok=True)
    journal = work / f"journal-{os.getpid()}.jsonl"
    trace_out = work / f"daemon-trace-{os.getpid()}.json"
    journal.unlink(missing_ok=True)
    command = [sys.executable, str(BENCH / "server.py"),
               "--seed", str(run.args.seed), "--journal", str(journal)]
    if run.tracer is not None:
        command += ["--trace-out", str(trace_out)]
    spawned = clock()
    daemon = await asyncio.create_subprocess_exec(*command, stdout=asyncio.subprocess.PIPE)
    phases: Dict[str, _Phase] = {}
    discarded: List[_Phase] = []
    try:
        ready = await _json_line(daemon.stdout, "ready", 120.0)
        run.setup_s = clock() - spawned
        run.check("daemon serves snapshot v1", ready["version"] == 1, ready["version"])
        if run.args.setup_only:
            return {}
        from repro.service.loadgen import LoadgenConfig, build_request_plan

        reader, writer = await asyncio.open_connection(ready["host"], ready["port"])
        client = _Client(reader, writer)
        sites, links = ready["sites"], ready["links"]
        plan_seeds = seed_stream(run.args.seed, "svc-socket")
        # A cyclic-GC pass over the generator's growing request log would
        # stall the schedule for tens of milliseconds; the log is freed
        # when the run ends, so collection waits until then.
        gc.collect()
        gc.disable()
        for name, share in PHASES:
            seconds = SMOKE_PHASE_S if run.args.smoke else share * run.seconds
            if run.args.smoke and name == "warmup":
                seconds = SMOKE_PHASE_S / 4
            open_loop = name in ("warmup", "steady")
            plan = build_request_plan(
                LoadgenConfig(duration_s=seconds if open_loop else 5.0,
                              base_rate_qps=STEADY_QPS),
                sites, links, next(plan_seeds),
            )
            if open_loop:
                runner = lambda p, plan=plan: _open_loop(client, p, plan)  # noqa: E731
            else:
                inflight = SATURATE_INFLIGHT if name == "saturate" else OVERLOAD_INFLIGHT
                runner = (lambda p, plan=plan, n=inflight, s=seconds:  # noqa: E731
                          _closed_loop(client, p, plan, n, s))
            for attempt in range(STEADY_ATTEMPTS if name == "steady" else 1):
                if attempt:
                    discarded.append(phases[name])
                with _one_cpu(ready["pid"], name == "saturate"):
                    phases[name] = await _run_phase(name, ready["pid"], runner)
                if name != "steady" or _steady_valid(run, phases[name]):
                    break
            run.calibration += phases[name].calibration
        await client.close()
    finally:
        gc.enable()
        if daemon.returncode is None:
            daemon.send_signal(signal.SIGTERM)
        try:
            done = await _json_line(daemon.stdout, "done", 120.0)
        except (RuntimeError, asyncio.TimeoutError) as exc:
            done = {}
            run.check("daemon drains", False, exc)
        await daemon.wait()
        if run.args.setup_only:
            journal.unlink(missing_ok=True)
    run.check("daemon exit status", daemon.returncode == 0, daemon.returncode)
    return _svc_report(run, phases, discarded, done, journal, trace_out)


def _lateness(phase: _Phase) -> List[float]:
    """How long after its due time each request left the generator."""
    return [row[1] - row[0] for row in phase.rows]


def _not_ok_at_v1(phase: _Phase) -> int:
    return sum(1 for row in phase.rows if row[3] != "ok" or row[4] != 1)


def _lateness_limit_ms(run: Run, phase: _Phase) -> float:
    """The 5 ms lateness limit, read at the reference machine speed.

    On a host running three times slower than the reference, every
    step of the generator takes three times as long, so a limit fixed
    in wall time would invalidate every run there.
    """
    return LATENESS_LIMIT_MS * max(1.0, run.slowdown(phase.calibration))


def _steady_valid(run: Run, phase: _Phase) -> bool:
    """Did the steady phase measure the daemon below its knee?

    A host stall of either process makes the attempt invalid: a late
    generator measures its own delay, and a daemon held still for more
    than the 64-slot queue's worth of arrivals (64 ms at 1000 qps, e.g.
    one slow fsync) sheds.  Such an attempt is measured again.
    """
    return (stats.lateness_valid(_lateness(phase), _lateness_limit_ms(run, phase))
            and _not_ok_at_v1(phase) == 0)


def _svc_report(run: Run, phases, discarded, done, journal: Path, trace_out: Path):
    from repro.validate.invariants import check_journal

    steady, saturate, overload = phases["steady"], phases["saturate"], phases["overload"]
    measured = (steady, saturate, overload)
    # Invalid steady attempts are checked for lost requests only; their
    # sheds are recorded in ``info``.
    unanswered = sum(p.count("unanswered") for p in measured + tuple(discarded))
    run.check("every request answered", unanswered == 0, f"{unanswered} unanswered")
    steady_bad = _not_ok_at_v1(steady)
    run.check("steady answers ok at v1", steady_bad == 0, f"{steady_bad} not ok@v1")
    saturate_bad = len(saturate.rows) - saturate.count("ok")
    run.check("saturate answers ok", saturate_bad == 0, f"{saturate_bad} not ok")
    lateness = _lateness(steady)
    limit_ms = _lateness_limit_ms(run, steady)
    run.check("generator lateness p99 <= 5 ms", stats.lateness_valid(lateness, limit_ms),
              f"p99 {stats.percentile(lateness, 99) * 1000:.3f} ms, limit "
              f"{limit_ms:.2f} ms, after {len(discarded) + 1} attempt(s)")
    violations = check_journal(journal)
    run.check("journal audit clean", not violations, violations[:3])
    journal_records = sum(1 for _ in journal.open("rb"))
    journal.unlink(missing_ok=True)

    latency = [row[2] - row[0] for row in steady.rows if row[2] is not None]
    attempted = sum(len(p.rows) for p in measured + tuple(discarded))
    shed = overload.count("overloaded", "deadline-exceeded", "draining")
    max_qps = saturate.answered_qps()
    p50_ms = stats.percentile(latency, 50) * 1000.0
    metrics = {
        "svc_max_qps": max_qps,
        "svc_p50_ms": p50_ms,
        "norm_ops_per_s": max_qps * run.slowdown(saturate.calibration),
        "norm_op_p50_ms": p50_ms / run.slowdown(steady.calibration),
        "svc_p99_ms": stats.percentile(latency, 99) * 1000.0,
        "svc_p999_ms": stats.percentile(latency, 99.9) * 1000.0,
        "svc_overload_qps": overload.answered_qps(),
        "svc_overload_shed_frac": shed / len(overload.rows),
        "gen_lateness_p99_ms": stats.percentile(lateness, 99) * 1000.0,
        "peak_rss_mb": float(done.get("maxrss_mb", 0.0)),
    }
    info = {
        "phases": {
            p.name: {
                "seconds": p.end - p.start, "requests": len(p.rows),
                "ok": p.count("ok"), "shed": p.count(
                    "overloaded", "deadline-exceeded", "draining"),
                "cpu_util": _cpu_util(p),
                "calibration_ms": (statistics.mean(p.calibration) * 1000.0
                                   if p.calibration else None),
                "server_p50_ms": _server_ms(p, 50), "server_p99_ms": _server_ms(p, 99),
            }
            for p in phases.values()
        },
        "steady_discarded": [
            {"lateness_p99_ms": stats.percentile(_lateness(p), 99) * 1000.0,
             "not_ok_at_v1": _not_ok_at_v1(p)}
            for p in discarded
        ],
        "journal_records": journal_records,
        "daemon_stats": done.get("stats", {}),
    }
    result = {
        "ops": attempted,
        "failures": unanswered + steady_bad + saturate_bad,
        "wall_s": sum(p.end - p.start for p in measured),
        "metrics": metrics,
        "info": info,
    }
    if run.tracer is not None:
        result["layers"] = _svc_layers(trace_out, phases)
        trace_out.unlink(missing_ok=True)
    return result


def _server_ms(phase: _Phase, q: float) -> float:
    served = [row[5] for row in phase.rows if row[3] == "ok"]
    return stats.percentile(served, q) * 1000.0 if served else 0.0


def _svc_layers(trace_out: Path, phases: Dict[str, _Phase]) -> Dict[str, object]:
    """Daemon spans, split by the generator's phase windows."""
    import tracing

    dump = json.loads(trace_out.read_text())
    spans = dump["spans"]
    measured = [phases[n] for n in ("steady", "saturate", "overload")]
    first, last = measured[0].start, measured[-1].end
    table = tracing.span_table(spans)
    window = tracing.span_table(spans, first, last)
    get = lambda t, name, col: t.get(name, {}).get(col, 0.0)  # noqa: E731
    layer = {
        "experiments.workload_s": get(table, "experiments.workload", "busy_s"),
        "auction.clear_calls": int(get(table, "auction.clear", "calls")),
        "auction.select_calls": int(get(table, "auction.select", "calls")),
        "auction.select_self_s": get(table, "auction.select", "self_s"),
        "netflow.lp_solve_s": get(table, "netflow.lp_solve", "busy_s"),
        "netflow.model_build_s": get(table, "netflow.model_build", "busy_s"),
        "dataplane.freeze_s": get(table, "dataplane.freeze", "busy_s"),
        "service.frames_in": int(get(window, "service.decode", "calls")),
        "service.decode_s": get(window, "service.decode", "busy_s"),
        "service.encode_s": get(window, "service.encode", "busy_s"),
        "service.answer_s": get(window, "service.answer", "busy_s"),
        "service.journal_appends": int(get(window, "service.journal", "calls")),
        "service.journal_s": get(window, "service.journal", "busy_s"),
        "service.fsync_s": get(window, "service.fsync", "busy_s"),
    }
    layer.update(dump["netflow"])
    requests = sum(len(p.rows) for p in measured)
    layer["service.journal_appends_per_request"] = (
        layer["service.journal_appends"] / requests if requests else 0.0
    )
    busy = sum(p.end - p.start for p in measured)
    cpu = [p.cpu for p in measured]
    if all(c[0] is not None and c[1] is not None for c in cpu):
        layer["service.cpu_util"] = sum(c[1] - c[0] for c in cpu) / busy
    for phase in measured:
        part = tracing.span_table(spans, phase.start, phase.end)
        waits = [w for t, w, s in dump["requests"]
                 if phase.start <= t < phase.end and s == "ok"]
        appends = int(get(part, "service.journal", "calls"))
        for span in ("decode", "answer", "journal", "fsync", "encode"):
            layer[f"service.{phase.name}.{span}_us_per_request"] = (
                get(part, f"service.{span}", "busy_s") * 1e6 / len(phase.rows)
                if phase.rows else 0.0)
        layer[f"service.{phase.name}.queue_wait_p50_ms"] = (
            stats.percentile(waits, 50) * 1000.0 if waits else 0.0)
        layer[f"service.{phase.name}.queue_wait_p99_ms"] = (
            stats.percentile(waits, 99) * 1000.0 if waits else 0.0)
        layer[f"service.{phase.name}.server_latency_p50_ms"] = _server_ms(phase, 50)
        layer[f"service.{phase.name}.server_latency_p99_ms"] = _server_ms(phase, 99)
        layer[f"service.{phase.name}.journal_appends_per_request"] = (
            appends / len(phase.rows) if phase.rows else 0.0)
        layer[f"service.{phase.name}.cpu_util"] = _cpu_util(phase)
    daemon_wall = dump["ended"] - dump["started"]
    return {"wall_s": daemon_wall, "service_wall_s": busy, "table": table,
            "metrics": layer, "dump": dump}


def svc_socket(run: Run) -> Dict[str, object]:
    return asyncio.run(_svc(run))


RUNNERS = {
    "fig2-micro": fig2_micro,
    "clear-tiny": clear_tiny,
    "continental": continental,
    "svc-socket": svc_socket,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="wall time at which the parent spawned this process")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--expected", default=None)
    parser.add_argument("--pin", action="store_true",
                        help="report digests without comparing them")
    parser.add_argument("--work-dir", default=str(BENCH / ".work"))
    parser.add_argument("--trace-file", default=None,
                        help="append the traced run's spans to this JSONL file")
    args = parser.parse_args(argv)

    run = Run(args)
    result = RUNNERS[args.workload](run)
    record: Dict[str, object] = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": run.setup_s,
    }
    if not args.setup_only:
        if run.tracer is not None:
            layers = result.get("layers") or _clearing_layers(
                run, clock() - run.tracer.started)
            run.tracer.restore()
            fallbacks = layers["metrics"]["netflow.fallback_solves"]
            run.check("no LP fallback solves", fallbacks == 0, fallbacks)
            record["layers"] = {
                "table": layers["table"],
                "metrics": layers["metrics"],
                "contract": _contract_layers(
                    layers["metrics"], int(result["ops"]), layers["wall_s"],
                    layers.get("service_wall_s", 0.0),
                ),
                "wall_s": layers["wall_s"],
            }
            if args.trace_file:
                import tracing

                tracing.write_jsonl(args.trace_file, [run.tracer.dump()]
                                    + ([layers["dump"]] if "dump" in layers else []))
        metrics = result["metrics"]
        if args.workload != "svc-socket":
            metrics["peak_rss_mb"] = maxrss_mb()
            slowdown = run.slowdown()
            metrics["norm_ops_per_s"] = metrics["clears_per_s"] * slowdown
            metrics["norm_op_p50_ms"] = metrics["clear_p50_ms"] / slowdown
            _fast_path_probe(run)
        ops = int(result["ops"])
        failed = int(result.get("failures", 0)) + run.failed_checks
        metrics["fail_frac"] = failed / max(ops, 1)
        record.update({
            "attempted": ops,
            "failed": failed,
            "metrics": metrics,
            "checks": run.checks,
            "digests": run.digests,
            "info": result.get("info", {}),
            "calibration_ms": [c * 1000.0 for c in run.calibration],
        })
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
