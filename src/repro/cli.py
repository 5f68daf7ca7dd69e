"""Command-line experiment runner.

Installed as ``poc-repro``.  Subcommands mirror the experiment index in
DESIGN.md:

    poc-repro zoo        --preset small            # build & describe a zoo
    poc-repro figure2    --preset tiny             # reproduce Figure 2
    poc-repro neutrality                           # §4 regime comparison
    poc-repro market     --regime ur --epochs 24   # run the market sim
    poc-repro baseline                             # BGP-world comparison
"""

from __future__ import annotations

import argparse
import contextlib as _contextlib
import math
import sys
from typing import List, Optional

from repro import __version__


def _build_zoo(preset: str, seed: int):
    from repro.topology.zoo import ZooConfig, build_zoo

    presets = {
        "tiny": ZooConfig.tiny,
        "small": ZooConfig.small,
        "paper": ZooConfig.paper,
    }
    if preset not in presets:
        raise SystemExit(f"unknown preset {preset!r}; choose from {sorted(presets)}")
    return build_zoo(presets[preset](seed=seed))


def cmd_zoo(args: argparse.Namespace) -> int:
    zoo = _build_zoo(args.preset, args.seed)
    shares = zoo.link_shares
    print(f"preset={args.preset} seed={args.seed}")
    print(f"BPs: {len(zoo.bps)}   POC sites: {len(zoo.sites)}   "
          f"logical links: {zoo.num_logical_links}")
    print(f"link-share range: {min(shares.values()):.1%} .. {max(shares.values()):.1%}")
    print("largest BPs:", ", ".join(zoo.largest_bps(5)))
    return 0


def cmd_continental(args: argparse.Namespace) -> int:
    """Build a continental preset; optionally clear it region-sharded."""
    from repro.auction.sharded import clear_sharded_spec, continental_workload

    zoo, offers, tm, partition = continental_workload(
        args.preset, args.seed, load_fraction=args.load_fraction
    )
    print(f"preset={args.preset} seed={args.seed}")
    print(f"BPs: {len(zoo.bps)}   POC sites: {len(zoo.sites)}   "
          f"logical links: {zoo.num_logical_links}")
    print(f"regions: {', '.join(partition.regions)}   "
          f"demand: {tm.total_gbps():,.0f} Gbps over "
          f"{sum(1 for _ in tm.pairs())} pairs")

    if args.graphml:
        from repro.topology.io import roundtrip_check

        copy = roundtrip_check(zoo.offered, args.graphml)
        print(f"graphml roundtrip {args.graphml}: "
              f"{len(copy)} nodes / {copy.num_links} links ok")

    if args.clear or args.verify_identity:
        with _silence_native_stdout():
            result = clear_sharded_spec(
                args.preset, args.seed,
                engine=args.engine, method=args.method, pricing=args.pricing,
                load_fraction=args.load_fraction, workers=args.workers,
            )
        for sub in result.submarkets:
            print(f"  {sub.label:>8}: {len(sub.selected):>6} links  "
                  f"cost {sub.total_cost:>14,.2f}  "
                  f"({sub.oracle_evaluations} oracle calls)")
        print(f"total: {len(result.selected)} links, "
              f"cost {result.total_cost:,.2f} "
              f"({result.pricing} pricing, {result.method}/{result.engine})")
        if args.verify_identity:
            with _silence_native_stdout():
                serial = clear_sharded_spec(
                    args.preset, args.seed,
                    engine=args.engine, method=args.method,
                    pricing=args.pricing,
                    load_fraction=args.load_fraction, workers=0,
                )
            if serial.canonical_json() != result.canonical_json():
                print("serial/parallel byte-identity: MISMATCH")
                return 1
            print("serial/parallel byte-identity: ok")
    return 0


def cmd_figure2(args: argparse.Namespace) -> int:
    from repro.experiments.figure2 import Figure2Config, run_figure2

    cfg = Figure2Config(
        preset=args.preset,
        seed=args.seed,
        constraints=tuple(args.constraints),
    )
    result = run_figure2(cfg)
    print(result.formatted())
    return 0


def cmd_neutrality(args: argparse.Namespace) -> int:
    # The §4 regime table is a one-axis sweep over demand families; run
    # it through the sweep engine so the table and any `sweep
    # --experiment neutrality` grid execute identical per-trial code.
    from repro.econ.demand import STANDARD_FAMILIES
    from repro.sweeps import Axis, SweepSpec, run_sweep

    spec = SweepSpec(axes=(Axis("family", tuple(STANDARD_FAMILIES)),))
    result = run_sweep("neutrality", spec)
    header = (f"{'family':<14}{'W_nn':>10}{'W_barg':>10}{'W_uni':>10}"
              f"{'t_barg':>9}{'t_uni':>9}{'p_nn':>8}{'p_uni':>8}")
    print(header)
    print("-" * len(header))
    for outcome in result.outcomes:
        rec = outcome.record
        print(
            f"{outcome.params['family']:<14}{rec['nn_welfare']:>10.3f}"
            f"{rec['bargaining_welfare']:>10.3f}{rec['unilateral_welfare']:>10.3f}"
            f"{rec['bargaining_fee']:>9.3f}{rec['unilateral_fee']:>9.3f}"
            f"{rec['nn_price']:>8.2f}{rec['unilateral_price']:>8.2f}"
        )
    return 0


def cmd_market(args: argparse.Namespace) -> int:
    from repro.experiments.trials import market_trial

    record = market_trial(
        {
            "regime": args.regime,
            "epochs": args.epochs,
            "entry_epoch": args.entry_epoch,
            "poc_cost": args.poc_cost,
        },
        seed=0,
    )
    print(f"regime={args.regime} epochs={args.epochs}")
    print(f"final social welfare: {record['final_welfare']:.2f}")
    print(f"POC surplus (nonprofit invariant): {record['poc_surplus']:.2e}")
    csps = sorted(
        key[len("csp_"):-len("_profit")]
        for key in record if key.startswith("csp_") and key.endswith("_profit")
    )
    lmps = sorted(
        key[len("lmp_"):-len("_profit")]
        for key in record if key.startswith("lmp_") and key.endswith("_profit")
    )
    for name in csps:
        print(f"  CSP {name:<14} cum profit {record[f'csp_{name}_profit']:>10.2f} "
              f"incumbency {record[f'csp_{name}_incumbency']:.2f}")
    for name in lmps:
        print(f"  LMP {name:<14} cum profit {record[f'lmp_{name}_profit']:>10.2f} "
              f"customers {record[f'lmp_{name}_customers']:.3f}")
    return 0


def cmd_baseline(args: argparse.Namespace) -> int:
    from repro.interdomain.relationships import small_internet
    from repro.interdomain.transit import TransitMarket, poc_vs_transit

    graph = small_internet()
    market = TransitMarket(graph, eyeball_transits={"trA", "trB"})
    positions = poc_vs_transit(market, "eyeball1", usage_gbps=args.usage,
                               poc_rate_per_gbps=args.poc_rate)
    for world, pos in positions.items():
        print(f"{world:<11} transit=${pos.monthly_transit_cost:,.0f}/mo  "
              f"full-reach={pos.reaches_all_destinations}  "
              f"pays-competitor={pos.pays_competitor}  "
              f"fee-exposure={pos.termination_fee_exposure}")
    return 0


def cmd_adoption(args: argparse.Namespace) -> int:
    from repro.market.adoption import AdoptionConfig, expected_trajectory

    cfg = AdoptionConfig(
        num_lmps=args.lmps, epochs=args.epochs, poc_price=args.poc_price
    )
    history = expected_trajectory(cfg)
    print(f"{'epoch':>6}{'share':>8}{'incumbent $/Gbps':>18}")
    step = max(1, args.epochs // 10)
    for record in history.records[::step]:
        print(f"{record.epoch:>6}{record.share:>8.0%}{record.incumbent_price:>18,.0f}")
    t50 = history.epochs_to_share(0.5)
    print(f"\nfinal share {history.final_share:.0%}; "
          f"50% reached at epoch {t50 if t50 is not None else '—'}")
    return 0


def cmd_probe(args: argparse.Namespace) -> int:
    from repro.dataplane.detection import probe_differential_treatment
    from repro.dataplane.shaping import DiscriminatoryEdge, NeutralEdge
    from repro.dataplane.sim import DataplaneSim

    zoo = _build_zoo(args.preset, args.seed)
    sites = [s.router_id for s in zoo.sites]
    behavior = NeutralEdge()
    if args.throttle:
        behavior = DiscriminatoryEdge(
            throttle_sources=frozenset(args.throttle), factor=args.factor
        )
    sim = DataplaneSim(zoo.offered)
    sim.attach("csp-a", sites[0], access_gbps=80.0)
    sim.attach("csp-b", sites[1], access_gbps=80.0)
    sim.attach("eyeballs", sites[-1], access_gbps=40.0, behavior=behavior)
    report = probe_differential_treatment(sim, "eyeballs", ["csp-a", "csp-b"])
    for finding in report.findings:
        flag = " <-- VIOLATION" if finding.suspicious(report.threshold) else ""
        print(f"{finding.attribute}={finding.tested_value}: "
              f"{finding.tested_rate:.1f} vs {finding.control_value}: "
              f"{finding.control_rate:.1f} Gbps (ratio {finding.ratio:.2f}){flag}")
    print(report.summary())
    return 0 if report.clean else 1


@_contextlib.contextmanager
def _silence_native_stdout():
    """Mute C-level stdout chatter (HiGHS) without touching Python prints.

    The MILP backend prints advisory lines straight from C++, bypassing
    ``sys.stdout``; duplicating fd 1 to /dev/null for the duration keeps
    campaign reports clean and byte-stable.  No-ops when stdout has no
    real file descriptor (e.g. under test capture).
    """
    import io
    import os

    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError, io.UnsupportedOperation):
        yield
        return
    sys.stdout.flush()
    saved = os.dup(fd)
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    try:
        yield
    finally:
        sys.stdout.flush()
        os.dup2(saved, fd)
        os.close(saved)
        os.close(devnull)


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.experiments.pipeline import (
        PipelineCheckpoint,
        offers_for_zoo,
        traffic_for_zoo,
    )
    from repro.resilience.chaos import ChaosConfig, micro_scenario, run_campaign

    if args.preset == "micro":
        network, offers, tm = micro_scenario(args.seed)
    else:
        zoo = _build_zoo(args.preset, args.seed)
        network = zoo.offered
        offers = offers_for_zoo(zoo, seed=args.seed)
        tm = traffic_for_zoo(zoo)

    fallback = args.fallback
    if fallback == args.method:
        # A heuristic primary still needs a *different* engine behind it.
        fallback = "add-prune" if args.method != "add-prune" else "greedy-drop"
    checkpoint = PipelineCheckpoint(args.checkpoint) if args.checkpoint else None
    config = ChaosConfig(seed=args.seed, scenarios=args.scenarios)
    with _silence_native_stdout():
        report = run_campaign(
            network, offers, tm, config,
            primary_method=args.method,
            fallback_method=fallback,
            constraint=args.constraint,
            engine=args.engine,
            milp_time_limit_s=args.time_limit,
            checkpoint=checkpoint,
        )
    if args.json:
        print(report.to_json())
    else:
        print(report.formatted())
    # A campaign where the POC served nothing anywhere signals a broken
    # workload, not a survivable system.
    return 0 if report.mean_served_fraction > 0 else 1


def _coerce_scalar(text: str):
    """CLI axis/constant values: int, then float, then bool/None, then str.

    ``nan``/``inf`` stay strings: trial params must be canonically
    JSON-encodable (finite), so coercing them to floats would only
    manufacture a spec error — and the demo experiment's ``emit=nan``
    fault knob needs the literal string to reach the trial.
    """
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    return {"true": True, "false": False, "none": None}.get(text.lower(), text)


def _parse_axis_arg(text: str):
    """``name=v1,v2,...`` or ``name=lo:hi`` (integer range, hi exclusive)."""
    from repro.sweeps import Axis

    if "=" not in text:
        raise SystemExit(f"--axis needs name=values, got {text!r}")
    name, _, raw = text.partition("=")
    if ":" in raw and "," not in raw:
        lo_text, _, hi_text = raw.partition(":")
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise SystemExit(f"--axis range bounds must be ints: {text!r}")
        if hi <= lo:
            raise SystemExit(f"--axis range is empty: {text!r}")
        return Axis(name.strip(), tuple(range(lo, hi)))
    values = tuple(_coerce_scalar(v.strip()) for v in raw.split(",") if v.strip())
    if not values:
        raise SystemExit(f"--axis {name!r} has no values")
    return Axis(name.strip(), values)


def _parse_set_arg(text: str):
    if "=" not in text:
        raise SystemExit(f"--set needs key=value, got {text!r}")
    key, _, raw = text.partition("=")
    return key.strip(), _coerce_scalar(raw.strip())


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.exceptions import InvariantViolation, SweepError
    from repro.experiments.pipeline import PipelineCheckpoint
    from repro.sweeps import Axis, SweepRunner, SweepSpec, registered_names
    from repro.sweeps.registry import describe_all

    if args.list:
        for line in describe_all():
            print(line)
        return 0

    experiment = args.experiment
    if args.spec:
        from repro.sweeps import load_payload

        # Inline JSON or a file path — the same loader `repro run` uses.
        try:
            payload = load_payload(args.spec)
        except SweepError as exc:
            raise SystemExit(f"cannot load sweep spec: {exc}")
        # A spec may pin its experiment; the flag still overrides.
        experiment = args.experiment or payload.pop("experiment", None)
        try:
            spec = SweepSpec.from_dict(payload)
        except SweepError as exc:
            raise SystemExit(f"bad sweep spec {args.spec!r}: {exc}")
    else:
        axes = tuple(_parse_axis_arg(a) for a in args.axis)
        if args.preset is not None:
            # Sugar for a one-point grid: --preset micro means a
            # single-value "preset" axis, so `sweep --experiment figure2
            # --preset micro` works without spelling out --axis.
            if any(axis.name == "preset" for axis in axes):
                raise SystemExit("--preset conflicts with an --axis named preset")
            axes += (Axis("preset", (args.preset,)),)
        if not axes:
            raise SystemExit(
                "a sweep needs --axis name=v1,v2, --preset NAME, or --spec FILE"
            )
        try:
            spec = SweepSpec(
                axes=axes,
                mode="zip" if args.zip else "cartesian",
                base=dict(_parse_set_arg(s) for s in args.set),
                seed=args.root_seed,
                repeats=args.repeats,
            )
        except SweepError as exc:
            raise SystemExit(f"bad sweep grid: {exc}")
    if not experiment:
        raise SystemExit(
            f"--experiment is required; registered: {registered_names()}"
        )

    def on_progress(beat) -> None:
        if args.progress:
            print(beat.formatted(), file=sys.stderr, flush=True)

    try:
        runner = SweepRunner(
            experiment,
            workers=args.workers,
            start_method=args.start_method,
            store=args.store,
            checkpoint=PipelineCheckpoint(args.checkpoint) if args.checkpoint else None,
            on_progress=on_progress,
            trial_timeout_s=args.trial_timeout,
            supervised=True if args.supervised else None,
            validation=args.validate,
            quarantine=args.quarantine,
            max_trial_attempts=args.max_trial_attempts,
        )
        with _silence_native_stdout():
            result = runner.run(spec)
        group_by = tuple(args.group_by) if args.group_by else ()
        # The report is byte-stable for a given spec (worker count and
        # cache state never leak into it); run accounting goes to stderr.
        if args.json:
            print(result.report_json(group_by))
        else:
            print(result.format_report(group_by))
        if args.report:
            print(result.supervision_report())
            _print_sweep_timing()
    except (SweepError, InvariantViolation) as exc:
        raise SystemExit(f"sweep failed: {exc}")
    print(result.stats_line(), file=sys.stderr)
    return 0


def _print_sweep_timing() -> None:
    """The --report timing table, fed by the --metrics sidecar (if any)."""
    from repro import obs

    path = obs.metrics_path()
    if path is None:
        return
    from repro.exceptions import ObservabilityError
    from repro.obs.perf import format_perf, load_perf

    try:
        print(format_perf(load_perf([path])))
    except ObservabilityError as exc:
        # A fully-cached sweep writes no trial telemetry; say so rather
        # than fail the report.
        print(f"(no timing data: {exc})", file=sys.stderr)


def cmd_perf(args: argparse.Namespace) -> int:
    """Aggregate metrics/trace JSONL sidecars into a phase breakdown."""
    from repro.exceptions import ObservabilityError
    from repro.obs.perf import (
        compare_json,
        compare_perf,
        expand_sidecar_set,
        format_compare,
        format_perf,
        load_perf,
        perf_json,
    )

    try:
        if args.compare:
            if args.paths:
                raise SystemExit(
                    "perf failed: give either PATH arguments or --compare A B, "
                    "not both"
                )
            spec_a, spec_b = args.compare
            comparison = compare_perf(
                load_perf(expand_sidecar_set(spec_a)),
                load_perf(expand_sidecar_set(spec_b)),
            )
            if args.json:
                print(compare_json(comparison))
            else:
                print(format_compare(comparison, label_a=spec_a, label_b=spec_b))
            return 0
        if not args.paths:
            raise SystemExit("perf failed: need PATH arguments (or --compare A B)")
        report = load_perf(args.paths)
        if args.json:
            print(perf_json(report))
        else:
            print(format_perf(report, top=args.top))
    except ObservabilityError as exc:
        raise SystemExit(f"perf failed: {exc}")
    return 0


def _service_workload(preset: str, seed: int):
    if preset == "micro":
        from repro.resilience.chaos import micro_scenario

        return micro_scenario(seed)
    from repro.experiments.pipeline import offers_for_zoo, traffic_for_zoo

    zoo = _build_zoo(preset, seed)
    return zoo.offered, offers_for_zoo(zoo, seed=seed), traffic_for_zoo(zoo)


def _service_config(args):
    from repro.service import ServiceConfig

    # A heuristic primary still needs a *different* engine behind it.
    fallback = "greedy-drop" if args.method != "greedy-drop" else "add-prune"
    return ServiceConfig(
        queue_limit=args.queue_limit,
        batch_max=args.batch_max,
        default_deadline_s=args.deadline,
        reclear_delay_s=args.reclear_delay,
        primary_method=args.method,
        fallback_method=fallback,
        milp_time_limit_s=args.time_limit,
    )


def _parse_endpoint(text: str, flag: str):
    host, sep, port = str(text).rpartition(":")
    if not sep or not host:
        raise SystemExit(f"{flag} wants HOST:PORT, got {text!r}")
    try:
        return host, int(port)
    except ValueError:
        raise SystemExit(f"{flag} wants a numeric port, got {text!r}")


async def _serve_until_drained(service, args) -> None:
    """The shared wall-clock serve loop: heartbeats, --duration, drain."""
    import asyncio

    deadline = (service.clock.now() + args.duration
                if args.duration is not None else None)
    while not service.drained.is_set():
        timeout = args.heartbeat
        if deadline is not None:
            timeout = min(timeout, max(0.0, deadline - service.clock.now()))
        try:
            await asyncio.wait_for(service.drained.wait(), timeout=timeout)
            break
        except asyncio.TimeoutError:
            pass
        if deadline is not None and service.clock.now() >= deadline:
            await service.drain()
            break
        if service.running and not service.draining:
            health = await service.submit("health")
            h = health.payload
            print(f"  v{h['version']} {h['health']}  served={service.served_total} "
                  f"shed={service.shed_total} breaker={h['breaker_state']}",
                  flush=True)
    snap = service.snapshot
    print(f"drained at snapshot v{snap.version} ({snap.health}); "
          f"served {service.served_total}, shed {service.shed_total}"
          + (f"; snapshot persisted to {args.checkpoint}"
             if args.checkpoint else ""))


def _cmd_serve_standby(args) -> int:
    """Hot standby: tail the primary's journal, probe it, take over."""
    import asyncio

    from repro.experiments.pipeline import PipelineCheckpoint
    from repro.service import (
        Journal, ServiceClient, ServiceServer, StandbyReplica, standby_handler,
    )

    if args.primary is None:
        raise SystemExit("--standby-of needs --primary HOST:PORT to probe")
    primary = _parse_endpoint(args.primary, "--primary")
    network, offers, tm = _service_workload(args.preset, args.seed)
    config = _service_config(args)
    replica = StandbyReplica(
        args.standby_of, network, offers, tm,
        config=config, seed=args.seed,
        journal=Journal(args.journal) if args.journal else None,
        checkpoint=(PipelineCheckpoint(args.checkpoint)
                    if args.checkpoint else None),
        poll_interval_s=args.poll_interval,
        probe_failures=args.probe_failures,
    )

    async def _standby() -> None:
        probe_client = ServiceClient([primary], seed=args.seed)

        async def probe() -> bool:
            resp = await probe_client.health(deadline_s=0.5)
            return resp.status in ("ok", "degraded")

        replica._probe = probe
        server = None
        if args.listen is not None:
            host, port = _parse_endpoint(args.listen, "--listen")
            server = ServiceServer(standby_handler(replica), host=host, port=port)
            addr = await server.start()
            print(f"standby listening on {addr[0]}:{addr[1]}, tailing "
                  f"{args.standby_of} (probing {primary[0]}:{primary[1]})",
                  flush=True)
        try:
            with _silence_native_stdout():
                service = await replica.run()
            if service is None:
                print(f"primary drained cleanly at v{replica.state.version}; "
                      f"standby exiting without promotion")
                return
            await probe_client.close()
            snap = service.snapshot
            print(f"promoted to primary at snapshot v{snap.version} "
                  f"({snap.health}), recovered seq={replica.state.seq}",
                  flush=True)
            service.install_signal_handlers()
            await _serve_until_drained(service, args)
        finally:
            await probe_client.close()
            if server is not None:
                await server.stop()

    asyncio.run(_standby())
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the online POC daemon on the wall clock until drained."""
    import asyncio

    from repro.experiments.pipeline import PipelineCheckpoint
    from repro.service import Journal, PocService, ServiceServer, service_handler

    if args.standby_of is not None:
        return _cmd_serve_standby(args)

    network, offers, tm = _service_workload(args.preset, args.seed)
    config = _service_config(args)
    checkpoint = PipelineCheckpoint(args.checkpoint) if args.checkpoint else None
    journal = Journal(args.journal) if args.journal else None
    service = PocService(
        network, offers, tm, config=config, seed=args.seed,
        checkpoint=checkpoint, journal=journal,
    )

    async def _serve() -> None:
        with _silence_native_stdout():
            snap = await service.start()
        service.install_signal_handlers()
        server = None
        if args.listen is not None:
            host, port = _parse_endpoint(args.listen, "--listen")
            server = ServiceServer(service_handler(service), host=host, port=port)
            addr = await server.start()
            print(f"listening on {addr[0]}:{addr[1]}", flush=True)
        print(f"serving snapshot v{snap.version} ({snap.health}): "
              f"{len(snap.selected)} links, {len(snap.sites)} sites, "
              f"${snap.total_payments:,.0f}/mo"
              + (f"; journaling to {args.journal}" if args.journal else ""),
              flush=True)
        try:
            await _serve_until_drained(service, args)
        finally:
            if server is not None:
                await server.stop()

    asyncio.run(_serve())
    return 0


def _cmd_loadgen_socket(args, load) -> int:
    """Play the seeded plan over real sockets against remote daemon(s)."""
    import asyncio
    import json as _json

    from repro.service import run_socket_campaign

    endpoints = [_parse_endpoint(e.strip(), "--connect")
                 for e in args.connect.split(",") if e.strip()]
    if not endpoints:
        raise SystemExit("--connect wants HOST:PORT[,HOST:PORT...]")
    # The plan's sites/links pool comes from the locally-built workload
    # (same preset + seed the daemon was started with); unknown links
    # still get well-formed "known: false" pricing answers.
    network, _offers, _tm = _service_workload(args.preset, args.seed)

    async def _campaign():
        return await run_socket_campaign(
            endpoints, load, seed=args.seed,
            sites=network.node_ids, links=network.link_ids,
        )

    responses, client = asyncio.run(_campaign())
    counts: dict = {}
    for resp in responses:
        counts[resp.status] = counts.get(resp.status, 0) + 1
    latencies = sorted(r.latency_s for r in responses)

    def pct(p: float) -> float:
        if not latencies:
            return 0.0
        return latencies[min(len(latencies) - 1, int(p * len(latencies)))]

    served = sum(counts.get(s, 0) for s in ("ok", "degraded"))
    if args.json:
        print(_json.dumps({
            "seed": args.seed,
            "endpoints": [f"{h}:{p}" for h, p in endpoints],
            "submitted": len(responses),
            "counts": dict(sorted(counts.items())),
            "latency_p50_ms": round(pct(0.50) * 1e3, 6),
            "latency_p99_ms": round(pct(0.99) * 1e3, 6),
            "retries": dict(sorted(client.retry_counts.items())),
            "failovers": list(client.failovers),
        }, sort_keys=True, indent=2))
    else:
        print(f"socket loadgen seed={args.seed} -> "
              + ",".join(f"{h}:{p}" for h, p in endpoints))
        print(f"  {len(responses)} requests: {served} served, "
              + ", ".join(f"{v} {k}" for k, v in sorted(counts.items())
                          if k not in ("ok", "degraded")))
        print(f"  latency p50={pct(0.50)*1e3:g}ms p99={pct(0.99)*1e3:g}ms")
        print(f"  retries: "
              + (", ".join(f"{k}={v}" for k, v in
                           sorted(client.retry_counts.items())) or "none"))
        for failover in client.failovers:
            print(f"  failover at t={failover['t']:g}s: "
                  f"{failover['from']} -> {failover['to']} "
                  f"({failover['reason']})")
    # Zero-unanswered holds over sockets by construction (transport
    # failures fold into deadline-exceeded); an empty campaign is a bug.
    return 0 if responses else 1


def cmd_loadgen(args: argparse.Namespace) -> int:
    """Seeded load + chaos campaign against an in-process daemon."""
    from repro.experiments.pipeline import PipelineCheckpoint
    from repro.resilience.policy import CircuitBreaker
    from repro.service import ChaosPlan, LoadgenConfig, run_service_benchmark

    stall = None
    if args.stall_window:
        try:
            lo, hi = (float(x) for x in args.stall_window.split(":"))
        except ValueError:
            raise SystemExit("--stall-window wants START:STOP seconds")
        stall = (lo, hi)
    load = LoadgenConfig(
        duration_s=args.duration,
        base_rate_qps=args.rate,
        flash_start_s=args.flash_at,
        flash_duration_s=args.flash_duration,
        flash_multiplier=args.flash_mult,
    )
    if args.connect:
        return _cmd_loadgen_socket(args, load)
    chaos = None
    if args.fault_at or stall:
        chaos = ChaosPlan(
            fault_times=tuple(args.fault_at or ()),
            links_per_fault=args.links_per_fault,
            stall_window=stall,
        )
    config = _service_config(args)
    with _silence_native_stdout():
        report = run_service_benchmark(
            args.seed,
            load=load,
            chaos=chaos,
            config=config,
            breaker=CircuitBreaker(failure_threshold=args.breaker_threshold),
            checkpoint=(PipelineCheckpoint(args.checkpoint)
                        if args.checkpoint else None),
            journal_path=args.journal,
        )
    if args.json:
        print(report.to_json())
    else:
        c = report.counts
        print(f"loadgen seed={report.seed}: {report.submitted} requests over "
              f"{report.duration_s:g}s ({report.qps_offered:g} qps offered)")
        print(f"  served {c.get('ok', 0)} ok + {c.get('degraded', 0)} degraded "
              f"({report.qps_served:g} qps); shed "
              f"{c.get('overloaded', 0)} overloaded / "
              f"{c.get('deadline-exceeded', 0)} deadline / "
              f"{c.get('draining', 0)} draining "
              f"(rate {report.shed_rate:.1%}); {report.unanswered} unanswered")
        print(f"  latency p50={report.latency_p50_ms:g}ms "
              f"p99={report.latency_p99_ms:g}ms max={report.latency_max_ms:g}ms")
        print(f"  faults={report.faults_injected} reclears={report.reclears} "
              f"(failed {report.reclear_failures}); recovery "
              + (f"{report.recovery_s:g}s" if report.recovery_s is not None else "n/a"))
        print(f"  final: v{report.final_version} {report.final_health}, "
              f"breaker {report.final_breaker_state}")
    # A campaign that lost requests outright (no response at all) is a
    # daemon bug, not an overload story.
    return 1 if report.unanswered else 0


def cmd_audit(args: argparse.Namespace) -> int:
    """Replay a result store, service snapshot, and/or write-ahead
    journal through the invariant suite (exit 1 on dirt)."""
    import json as _json
    import pathlib as _pathlib

    from repro.resilience.supervisor import QuarantineLog
    from repro.sweeps.cache import ResultStore
    from repro.validate.invariants import (
        check_journal, check_record, check_snapshot,
    )

    if args.store is None and args.snapshot is None and args.journal is None:
        raise SystemExit("audit needs --store, --snapshot, and/or --journal")

    journal_dirty = False
    if args.journal is not None:
        from repro.exceptions import JournalError
        from repro.service.journal import read_records, replay

        with _silence_native_stdout():
            violations = check_journal(args.journal)
        journal_dirty = bool(violations)
        records, torn, state = [], None, None
        try:
            records, torn = read_records(args.journal)
            state = replay(records)
        except JournalError:
            pass  # already reported as a journal-parse violation
        if args.json:
            print(_json.dumps({
                "journal": args.journal,
                "records": len(records),
                "torn_tail": torn is not None,
                "seq": state.seq if state else None,
                "version": state.version if state else None,
                "drained": state.drained if state else None,
                "violations": [v.to_dict() for v in violations],
            }, sort_keys=True, indent=2))
        else:
            closing = ("drained" if state and state.drained else "open")
            print(f"audit journal {args.journal}: {len(records)} record(s), "
                  f"{closing} at seq={state.seq if state else '?'} "
                  f"v{state.version if state else '?'}, "
                  f"{len(violations)} violation(s)"
                  + ("; torn tail (crash signature) dropped" if torn else ""))
            for violation in violations:
                print(f"  {violation}")
        if args.store is None and args.snapshot is None:
            return 1 if journal_dirty else 0

    snapshot_dirty = False
    if args.snapshot is not None:
        from repro.exceptions import ReproError
        from repro.service.snapshot import load_snapshot_payload

        try:
            payload = load_snapshot_payload(args.snapshot)
        except ReproError as exc:
            raise SystemExit(f"cannot audit snapshot {args.snapshot!r}: {exc}")
        with _silence_native_stdout():
            violations = check_snapshot(payload)
        snapshot_dirty = bool(violations)
        if args.json:
            print(_json.dumps({
                "snapshot": args.snapshot,
                "version": payload.get("version"),
                "health": payload.get("health"),
                "violations": [v.to_dict() for v in violations],
            }, sort_keys=True, indent=2))
        else:
            print(f"audit snapshot {args.snapshot}: "
                  f"v{payload.get('version')} {payload.get('health')}, "
                  f"{len(violations)} violation(s)")
            for violation in violations:
                print(f"  {violation}")
        if args.store is None:
            return 1 if (snapshot_dirty or journal_dirty) else 0

    if not _pathlib.Path(args.store).exists():
        raise SystemExit(f"no result store at {args.store!r}")
    store = ResultStore(args.store)
    audited = 0
    dirty = []
    for entry in store.entries():
        audited += 1
        experiment = str(entry.get("experiment", ""))
        record = entry.get("record")
        if not isinstance(record, dict):
            dirty.append((entry.get("key", "?"), experiment,
                          ["entry has no record mapping"]))
            continue
        violations = check_record(experiment, record)
        if violations:
            dirty.append((entry.get("key", "?"), experiment,
                          [str(v) for v in violations]))

    quarantine_path = args.quarantine
    if quarantine_path is None:
        default = _pathlib.Path(args.store).parent / "quarantine.jsonl"
        quarantine_path = str(default) if default.exists() else None
    quarantine = QuarantineLog(quarantine_path) if quarantine_path else None

    if args.json:
        payload = {
            "store": args.store,
            "entries": audited,
            "corrupt_lines": store.corrupt_lines,
            "invalid": [
                {"key": key, "experiment": experiment, "violations": violations}
                for key, experiment, violations in dirty
            ],
            "quarantined": len(quarantine) if quarantine else 0,
        }
        print(_json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(f"audit {args.store}: {audited} entr{'y' if audited == 1 else 'ies'}, "
              f"{store.corrupt_lines} corrupt line(s), "
              f"{len(dirty)} invalid record(s)")
        if store.corrupt_lines:
            print(f"  WARNING: {store.corrupt_lines} unparseable line(s) "
                  f"skipped — their trials will silently re-execute; "
                  f"treat the store as damaged")
        for key, experiment, violations in dirty:
            print(f"  {str(key)[:12]}… [{experiment}]")
            for violation in violations:
                print(f"    {violation}")
        if quarantine is not None:
            kinds: dict = {}
            for entry in quarantine.entries():
                kind = str(entry.get("kind", "?"))
                kinds[kind] = kinds.get(kind, 0) + 1
            summary = "  ".join(
                f"{kind}={count}" for kind, count in sorted(kinds.items())
            )
            print(f"quarantine {quarantine.path}: {len(quarantine)} trial(s)"
                  + (f"  ({summary})" if summary else ""))
    # Corrupt lines are dirt too: the cache silently re-executes their
    # trials, but an *audit* must refuse to call a damaged store clean.
    return 1 if (dirty or snapshot_dirty or journal_dirty
                 or store.corrupt_lines) else 0


def _parse_overrides(extras: List[str]):
    """``repro run`` pass-through overrides: every extra must be
    ``--NAME=VALUE`` (collapses a matching axis or lands in base)."""
    sets = {}
    for extra in extras:
        if not extra.startswith("--") or "=" not in extra:
            raise SystemExit(
                f"unrecognized argument {extra!r}; pack parameter overrides "
                f"are written --NAME=VALUE"
            )
        key, _, raw = extra[2:].partition("=")
        if not key:
            raise SystemExit(f"override {extra!r} has an empty name")
        sets[key] = _coerce_scalar(raw)
    return sets


def cmd_run(args: argparse.Namespace) -> int:
    """Run a scenario pack (by name, path, or inline JSON) into an archive."""
    import pathlib as _pathlib

    from repro.exceptions import (
        InvariantViolation,
        ScenarioError,
        SweepError,
        SweepInterrupted,
    )
    from repro.scenarios import PackRegistry, default_archive_dir, run_pack

    registry = PackRegistry(args.packs_dir or ())
    try:
        pack = registry.resolve(args.pack)
        sets = _parse_overrides(getattr(args, "extras", []))
        axes = tuple(_parse_axis_arg(a) for a in args.axis)
        if sets or axes or args.root_seed is not None or args.repeats is not None:
            pack = pack.with_overrides(
                sets, axes, root_seed=args.root_seed, repeats=args.repeats,
            )
        if args.validate is not None:
            import dataclasses as _dataclasses

            pack = _dataclasses.replace(pack, validation=args.validate)
        trials = pack.resolve()
    except ScenarioError as exc:
        raise SystemExit(f"run failed: {exc}")

    archive_dir = (
        _pathlib.Path(args.archive)
        if args.archive
        else default_archive_dir(pack)
    )
    print(f"pack {pack.name} ({pack.fingerprint()[:12]}…): {trials} trial(s) "
          f"-> {archive_dir}", file=sys.stderr)

    def on_progress(beat) -> None:
        if args.progress:
            print(beat.formatted(), file=sys.stderr, flush=True)

    try:
        with _silence_native_stdout():
            result = run_pack(
                pack, archive_dir,
                workers=args.workers,
                on_progress=on_progress,
            )
    except SweepInterrupted as exc:
        print(f"run interrupted: {exc}", file=sys.stderr)
        print(f"archive {archive_dir} holds every finished trial; "
              f"re-run the same command to resume", file=sys.stderr)
        return 1
    except (ScenarioError, SweepError, InvariantViolation) as exc:
        raise SystemExit(f"run failed: {exc}")
    if args.json:
        print(result.report_json(pack.group_by))
    else:
        print(result.format_report(pack.group_by))
    if args.report:
        print(result.supervision_report())
    print(result.stats_line(), file=sys.stderr)
    print(f"archived -> {archive_dir}", file=sys.stderr)
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    """Verify (and by default re-execute) a run archive."""
    from repro.exceptions import ReproduceMismatch, ScenarioError, SweepError
    from repro.scenarios import reproduce_archive, verify_archive

    if args.check_only:
        report = verify_archive(args.archive)
        print(report.formatted())
        return 1 if report.problems else 0
    try:
        with _silence_native_stdout():
            report = reproduce_archive(
                args.archive,
                workers=args.workers,
                scratch_dir=args.scratch,
                keep_scratch=args.keep_scratch,
            )
    except ReproduceMismatch as exc:
        print(f"REPRODUCE FAILED: {exc}", file=sys.stderr)
        if args.diff:
            print(f"--- archived\n{exc.expected}", file=sys.stderr)
            print(f"+++ re-executed\n{exc.actual}", file=sys.stderr)
        return 1
    except (ScenarioError, SweepError) as exc:
        raise SystemExit(f"reproduce failed: {exc}")
    print(report.formatted())
    return 0


def cmd_packs(args: argparse.Namespace) -> int:
    """List / show / validate the scenario-pack library."""
    import json as _json

    from repro.exceptions import ScenarioError
    from repro.scenarios import PackRegistry

    registry = PackRegistry(args.packs_dir or ())
    if args.show:
        try:
            pack = registry.get(args.show)
        except ScenarioError as exc:
            raise SystemExit(f"packs failed: {exc}")
        if args.json:
            print(_json.dumps(pack.to_dict(), indent=2, sort_keys=True))
        else:
            print(pack.summary())
            if pack.description:
                print(f"  {pack.description}")
            print(f"  fingerprint: {pack.fingerprint()}")
            print(f"  file:        {registry.find(args.show)}")
            for axis in pack.spec.axes:
                print(f"  axis {axis.name} = {list(axis.values)}")
            if pack.spec.base:
                print(f"  base {dict(pack.spec.base)}")
        return 0
    if args.validate:
        rows = registry.validate_all()
        bad = [(name, path, err) for name, path, err in rows if err]
        if args.json:
            print(_json.dumps({
                "packs": [
                    {"name": name, "path": str(path), "error": err}
                    for name, path, err in rows
                ],
                "valid": len(rows) - len(bad),
                "invalid": len(bad),
            }, indent=2, sort_keys=True))
        else:
            for name, path, err in rows:
                status = "ok  " if err is None else "FAIL"
                print(f"  {status} {name:<28} {path}")
                if err:
                    print(f"       {err}")
            print(f"{len(rows) - len(bad)}/{len(rows)} pack(s) valid")
        return 1 if bad else 0
    # Default: list.
    files = registry.pack_files()
    if args.json:
        print(_json.dumps(
            {name: str(path) for name, path in sorted(files.items())},
            indent=2, sort_keys=True,
        ))
        return 0
    if not files:
        print("no packs found; search path:")
        for directory in registry.dirs:
            print(f"  {directory}")
        return 0
    for name in sorted(files):
        try:
            print(registry.get(name).summary())
        except ScenarioError as exc:
            print(f"{name:<28} INVALID: {exc}")
    return 0


def cmd_planning(args: argparse.Namespace) -> int:
    from repro.core.planning import plan_reprovisioning
    from repro.experiments.pipeline import offers_for_zoo, traffic_for_zoo

    zoo = _build_zoo(args.preset, args.seed)
    tm = traffic_for_zoo(zoo)
    offers = offers_for_zoo(zoo)
    plan = plan_reprovisioning(
        zoo.offered, offers, tm,
        monthly_growth=args.growth, horizon_months=args.months,
    )
    for epoch in plan.epochs:
        action = "RE-AUCTION" if epoch.reprovisioned else ""
        print(f"month {epoch.month:>3}: headroom {epoch.headroom:5.2f}  "
              f"cost ${epoch.monthly_cost:>12,.0f}  {action}")
    print(f"\n{plan.num_reprovisions} auctions; total ${plan.total_cost():,.0f}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poc-repro",
        description="Reproduction experiments for 'A Public Option for the Core'",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")

    # Observability flags shared by every subcommand.  Defined on a parent
    # parser (not the main one) so `poc-repro sweep --metrics m.jsonl`
    # parses without argparse's main-vs-sub default clobbering; main()
    # configures repro.obs lazily only when a flag is actually given, so
    # an uninstrumented invocation never even imports the obs package.
    obs_parent = argparse.ArgumentParser(add_help=False)
    obs_parent.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="append per-trial metrics (counters, phases, wall/CPU/RSS) "
             "to this JSONL sidecar",
    )
    obs_parent.add_argument(
        "--trace", default=None, metavar="PATH",
        help="append per-span trace records to this JSONL sidecar",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, **kwargs):
        return sub.add_parser(name, parents=[obs_parent], **kwargs)

    p_zoo = add_parser("zoo", help="build and describe a synthetic zoo")
    p_zoo.add_argument("--preset", default="small", choices=("tiny", "small", "paper"))
    p_zoo.add_argument("--seed", type=int, default=2020)
    p_zoo.set_defaults(fn=cmd_zoo)

    p_ct = add_parser(
        "continental",
        help="build a continental-scale topology; region-sharded clearing",
        description="Builds the T2 continental substrate (or its 2-region "
                    "smoke preset), prints its scale, and optionally clears "
                    "the market region-sharded — serially or on a worker "
                    "pool.  --verify-identity re-clears serially and exits 1 "
                    "unless both paths produce byte-identical results.",
    )
    p_ct.add_argument("--preset", default="smoke", choices=("smoke", "t2"))
    p_ct.add_argument("--seed", type=int, default=2026)
    p_ct.add_argument("--load-fraction", type=float, default=0.02,
                      help="total demand as a fraction of offered capacity")
    p_ct.add_argument("--clear", action="store_true",
                      help="clear the market region-sharded and print the "
                           "per-region breakdown")
    p_ct.add_argument("--workers", type=int, default=0,
                      help="worker-pool size for the region sub-markets; "
                           "0 or 1 clears serially")
    p_ct.add_argument("--method", default="greedy-drop",
                      choices=("greedy-drop", "add-prune", "prefix",
                               "local-search"),
                      help="selection engine per sub-market")
    p_ct.add_argument("--engine", default="mcf",
                      choices=("mcf", "path", "greedy", "sp"),
                      help="feasibility oracle per sub-market")
    p_ct.add_argument("--pricing", default="bid", choices=("bid", "vcg"),
                      help="pay-as-bid (scales) or per-region VCG pivots")
    p_ct.add_argument("--verify-identity", action="store_true",
                      help="also clear serially and require byte-identical "
                           "canonical JSON (implies --clear)")
    p_ct.add_argument("--graphml", default=None, metavar="PATH",
                      help="export the offered network as GraphML and "
                           "verify the file round-trips")
    p_ct.set_defaults(fn=cmd_continental)

    p_f2 = add_parser("figure2", help="reproduce Figure 2 (PoB margins)")
    p_f2.add_argument("--preset", default="tiny", choices=("tiny", "small", "paper"))
    p_f2.add_argument("--seed", type=int, default=2020)
    p_f2.add_argument("--constraints", type=int, nargs="+", default=[1, 2, 3],
                      choices=(1, 2, 3))
    p_f2.set_defaults(fn=cmd_figure2)

    p_nn = add_parser("neutrality", help="§4 regime comparison table")
    p_nn.set_defaults(fn=cmd_neutrality)

    p_mkt = add_parser("market", help="run the agent-based market simulator")
    p_mkt.add_argument("--regime", default="nn", choices=("nn", "ur"))
    p_mkt.add_argument("--epochs", type=int, default=24)
    p_mkt.add_argument("--entry-epoch", type=int, default=4)
    p_mkt.add_argument("--poc-cost", type=float, default=5.0)
    p_mkt.set_defaults(fn=cmd_market)

    p_bl = add_parser("baseline", help="status-quo BGP world vs the POC")
    p_bl.add_argument("--usage", type=float, default=10.0)
    p_bl.add_argument("--poc-rate", type=float, default=600.0)
    p_bl.set_defaults(fn=cmd_baseline)

    p_ad = add_parser("adoption", help="POC adoption trajectory (§5)")
    p_ad.add_argument("--lmps", type=int, default=50)
    p_ad.add_argument("--epochs", type=int, default=60)
    p_ad.add_argument("--poc-price", type=float, default=600.0)
    p_ad.set_defaults(fn=cmd_adoption)

    p_pr = add_parser("probe", help="dataplane neutrality probes (§3.4)")
    p_pr.add_argument("--preset", default="tiny", choices=("tiny", "small", "paper"))
    p_pr.add_argument("--seed", type=int, default=2020)
    p_pr.add_argument("--throttle", nargs="*", default=[],
                      help="source parties the eyeball edge throttles")
    p_pr.add_argument("--factor", type=float, default=0.25)
    p_pr.set_defaults(fn=cmd_probe)

    p_ch = add_parser(
        "chaos",
        help="fault-injection campaign: inject failures, report survivability",
    )
    p_ch.add_argument("--preset", default="micro",
                      choices=("micro", "tiny", "small"),
                      help="workload: 'micro' (deterministic 8-site net, MILP-fast) "
                           "or a synthetic zoo preset")
    p_ch.add_argument("--seed", type=int, default=7)
    p_ch.add_argument("--scenarios", type=int, default=6,
                      help="number of fault scenarios (kinds cycle deterministically)")
    p_ch.add_argument("--constraint", type=int, default=1, choices=(1, 2, 3))
    p_ch.add_argument("--method", default="milp",
                      choices=("milp", "greedy-drop", "add-prune", "local-search"),
                      help="primary clearing engine (wrapped in retry + fallback)")
    p_ch.add_argument("--fallback", default="greedy-drop",
                      choices=("greedy-drop", "add-prune", "local-search"))
    p_ch.add_argument("--engine", default="mcf", choices=("mcf", "greedy", "sp"),
                      help="feasibility oracle")
    p_ch.add_argument("--time-limit", type=float, default=None,
                      help="MILP time budget in seconds (timeout => heuristic fallback)")
    p_ch.add_argument("--checkpoint", default=None, metavar="PATH",
                      help="JSON checkpoint file; re-running resumes completed scenarios")
    p_ch.add_argument("--json", action="store_true",
                      help="emit the canonical JSON report instead of the table")
    p_ch.set_defaults(fn=cmd_chaos)

    p_sw = add_parser(
        "sweep",
        help="run a parameter sweep over any registered experiment",
        description="Declarative scenario sweeps: a grid of named axes is "
                    "expanded into seeded trials, executed on a process "
                    "pool, cached content-addressably, and aggregated.",
    )
    p_sw.add_argument("--experiment", default=None,
                      help="registered experiment name (see --list)")
    p_sw.add_argument("--axis", action="append", default=[], metavar="NAME=VALUES",
                      help="sweep axis: name=v1,v2,... or name=lo:hi "
                           "(integer range, hi exclusive); repeatable")
    p_sw.add_argument("--preset", default=None, metavar="NAME",
                      help="sugar for a one-point grid: adds a single-value "
                           "'preset' axis (e.g. --preset micro)")
    p_sw.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                      help="constant parameter applied to every trial; repeatable")
    p_sw.add_argument("--spec", default=None, metavar="PATH",
                      help="JSON sweep spec (axes/mode/base/seed/repeats, "
                           "optionally 'experiment') instead of --axis/--set")
    p_sw.add_argument("--zip", action="store_true",
                      help="pair axis values positionally instead of the "
                           "cartesian product")
    p_sw.add_argument("--repeats", type=int, default=1,
                      help="seeded repeats per grid point")
    p_sw.add_argument("--root-seed", type=int, default=0,
                      help="root seed that per-trial seeds derive from")
    p_sw.add_argument("--workers", type=int, default=0,
                      help="process-pool size; 0 or 1 runs serially")
    p_sw.add_argument("--start-method", default=None,
                      choices=("fork", "spawn", "forkserver"),
                      help="multiprocessing start method (default: platform)")
    p_sw.add_argument("--store", default=None, metavar="PATH",
                      help="JSONL result store; re-runs skip trials already "
                           "stored (content-addressed by params+seed+code "
                           "version)")
    p_sw.add_argument("--checkpoint", default=None, metavar="PATH",
                      help="pipeline checkpoint pinning this sweep's spec "
                           "fingerprint across resumes")
    p_sw.add_argument("--group-by", nargs="*", default=None, metavar="AXIS",
                      help="axes to group the aggregate report by")
    p_sw.add_argument("--json", action="store_true",
                      help="emit the canonical JSON aggregate instead of the table")
    p_sw.add_argument("--progress", action="store_true",
                      help="print progress/ETA beats to stderr")
    p_sw.add_argument("--list", action="store_true",
                      help="list registered experiments and exit")
    p_sw.add_argument("--trial-timeout", type=float, default=None, metavar="S",
                      help="per-trial wall-clock deadline in seconds; a trial "
                           "that keeps overrunning it is quarantined "
                           "(implies --supervised)")
    p_sw.add_argument("--supervised", action="store_true",
                      help="quarantine a failing trial (one that still "
                           "raises after its retries, or times out or "
                           "crashes its worker --max-trial-attempts times) "
                           "and finish the sweep; without it the sweep "
                           "stops with an error naming the trial")
    p_sw.add_argument("--validate", default="off",
                      choices=("off", "warn", "quarantine", "strict"),
                      help="invariant suite over every result: warn journals "
                           "violations, quarantine keeps them out of the "
                           "store, strict aborts the sweep")
    p_sw.add_argument("--quarantine", default=None, metavar="PATH",
                      help="poison-trial ledger (default: quarantine.jsonl "
                           "next to --store)")
    p_sw.add_argument("--max-trial-attempts", type=int, default=2,
                      help="timeouts/crashes a trial may cause before it is "
                           "quarantined")
    p_sw.add_argument("--report", action="store_true",
                      help="print the supervision incident journal after the "
                           "aggregate")
    p_sw.set_defaults(fn=cmd_sweep)

    p_au = add_parser(
        "audit",
        help="replay a sweep result store through the invariant suite",
        description="Checks every stored record against the paper's "
                    "machine-checkable invariants (budget balance, IR, "
                    "welfare ordering, nonprofit surplus, finiteness) and "
                    "summarizes the quarantine ledger.  Exits 1 if any "
                    "stored record is invalid.",
    )
    p_au.add_argument("--store", default=None, metavar="PATH",
                      help="JSONL result store to audit")
    p_au.add_argument("--snapshot", default=None, metavar="PATH",
                      help="persisted service snapshot to audit (flow "
                           "conservation, VCG budget identity, price "
                           "decomposition, rate determinism)")
    p_au.add_argument("--journal", default=None, metavar="PATH",
                      help="write-ahead service journal to audit (CRC + "
                           "sequence integrity, monotone time/versions, "
                           "drain accounting, last published snapshot)")
    p_au.add_argument("--quarantine", default=None, metavar="PATH",
                      help="quarantine ledger to summarize (default: "
                           "quarantine.jsonl next to --store, if present)")
    p_au.add_argument("--json", action="store_true",
                      help="emit a JSON audit report")
    p_au.set_defaults(fn=cmd_audit)

    service_parent = argparse.ArgumentParser(add_help=False)
    service_parent.add_argument("--preset", default="micro",
                                choices=("micro", "tiny", "small", "paper"),
                                help="workload: the chaos micro-scenario or a zoo")
    service_parent.add_argument("--seed", type=int, default=2020)
    service_parent.add_argument("--queue-limit", type=int, default=64,
                                help="bounded request queue (full = shed)")
    service_parent.add_argument("--batch-max", type=int, default=8,
                                help="requests served per batch/snapshot read")
    service_parent.add_argument("--deadline", type=float, default=0.25,
                                help="per-request deadline budget (s)")
    service_parent.add_argument("--reclear-delay", type=float, default=0.8,
                                help="modeled background re-clear latency (s)")
    service_parent.add_argument("--method", default="milp",
                                help="primary clearing engine")
    service_parent.add_argument("--time-limit", type=float, default=30.0,
                                help="MILP time limit (s)")
    service_parent.add_argument("--checkpoint", default=None, metavar="PATH",
                                help="persist the drained snapshot here "
                                     "(auditable via `audit --snapshot`)")

    p_srv = sub.add_parser(
        "serve",
        parents=[obs_parent, service_parent],
        help="run the online POC daemon (wall clock, SIGINT/SIGTERM drains)",
        description="Clears the auction, then serves admission/allocation/"
                    "pricing/health queries from an immutable snapshot until "
                    "--duration elapses or SIGINT/SIGTERM arrives; a graceful "
                    "drain finishes in-flight requests and persists a "
                    "resumable snapshot to --checkpoint.",
    )
    p_srv.add_argument("--duration", type=float, default=None,
                       help="seconds to serve (default: until signal)")
    p_srv.add_argument("--heartbeat", type=float, default=5.0,
                       help="seconds between health heartbeats")
    p_srv.add_argument("--listen", default=None, metavar="HOST:PORT",
                       help="serve queries over a length-prefixed JSON "
                            "socket at this address")
    p_srv.add_argument("--journal", default=None, metavar="PATH",
                       help="write-ahead intent journal (fsynced; replayable "
                            "after kill -9, auditable via `audit --journal`)")
    p_srv.add_argument("--standby-of", default=None, metavar="JOURNAL",
                       help="run as a hot standby tailing this journal; "
                            "promotes to primary when --primary stops "
                            "answering health probes")
    p_srv.add_argument("--primary", default=None, metavar="HOST:PORT",
                       help="primary address a standby probes for liveness")
    p_srv.add_argument("--poll-interval", type=float, default=0.05,
                       help="standby journal-tail / probe interval (s)")
    p_srv.add_argument("--probe-failures", type=int, default=3,
                       help="consecutive failed probes before promotion")
    p_srv.set_defaults(fn=cmd_serve)

    p_lg = sub.add_parser(
        "loadgen",
        parents=[obs_parent, service_parent],
        help="deterministic load + chaos campaign against the daemon",
        description="Plays a seeded Poisson request stream (with optional "
                    "flash crowd) into an in-process daemon on the virtual "
                    "clock while injecting link faults and solver stalls, "
                    "then reports latency percentiles, shed accounting, and "
                    "recovery times.  Byte-identical per seed.  Exits 1 if "
                    "any request went unanswered.",
    )
    p_lg.add_argument("--duration", type=float, default=20.0,
                      help="campaign length (virtual s)")
    p_lg.add_argument("--rate", type=float, default=120.0,
                      help="base arrival rate (qps)")
    p_lg.add_argument("--flash-at", type=float, default=None,
                      help="flash-crowd start (s)")
    p_lg.add_argument("--flash-duration", type=float, default=2.0)
    p_lg.add_argument("--flash-mult", type=float, default=8.0,
                      help="flash-crowd rate multiplier")
    p_lg.add_argument("--fault-at", type=float, action="append", default=None,
                      metavar="T", help="inject link faults at T seconds "
                                        "(repeatable)")
    p_lg.add_argument("--links-per-fault", type=int, default=2)
    p_lg.add_argument("--stall-window", default=None, metavar="START:STOP",
                      help="solver-stall window (every primary solve times out)")
    p_lg.add_argument("--breaker-threshold", type=int, default=3,
                      help="consecutive failures that open the breaker")
    p_lg.add_argument("--journal", default=None, metavar="PATH",
                      help="journal the in-process daemon's intents here "
                           "(auditable via `audit --journal`)")
    p_lg.add_argument("--connect", default=None, metavar="HOST:PORT[,HOST:PORT]",
                      help="play the seeded plan over real sockets against "
                           "running daemon(s) instead of in-process; extra "
                           "endpoints are failover targets (wall clock — "
                           "chaos flags are ignored)")
    p_lg.add_argument("--json", action="store_true",
                      help="emit the LoadReport as canonical JSON")
    p_lg.set_defaults(fn=cmd_loadgen)

    p_pl = add_parser("planning", help="capacity planning / re-auctions")
    p_pl.add_argument("--preset", default="tiny", choices=("tiny", "small", "paper"))
    p_pl.add_argument("--seed", type=int, default=2020)
    p_pl.add_argument("--growth", type=float, default=0.05)
    p_pl.add_argument("--months", type=int, default=12)
    p_pl.set_defaults(fn=cmd_planning)

    p_perf = add_parser(
        "perf",
        help="aggregate --metrics/--trace JSONL into a phase breakdown",
        description="Reads telemetry sidecar files produced by --metrics / "
                    "--trace and prints where trial wall time went: per-phase "
                    "totals, shares, percentiles, and the slowest trials.",
    )
    p_perf.add_argument("paths", nargs="*", metavar="PATH",
                        help="one or more telemetry JSONL files")
    p_perf.add_argument("--compare", nargs=2, metavar=("A", "B"), default=None,
                        help="diff two sidecar sets (file, dir, or "
                             "comma-joined paths each) and print per-phase "
                             "speedup of B over A")
    p_perf.add_argument("--json", action="store_true",
                        help="emit the report as canonical JSON")
    p_perf.add_argument("--top", type=int, default=5,
                        help="how many slowest trials to list")
    p_perf.set_defaults(fn=cmd_perf)

    p_run = add_parser(
        "run",
        help="run a scenario pack into a self-contained archive",
        description="Resolves PACK (a registered name, a pack file, or "
                    "inline JSON), applies --PARAM=VALUE overrides, and "
                    "executes the sweep into an archive directory holding "
                    "the resolved spec, seeds, results, aggregates, and "
                    "supervision report — everything `reproduce` needs to "
                    "re-earn the numbers byte-identically.",
    )
    p_run.add_argument("pack", metavar="PACK",
                       help="pack name, pack file path, or inline JSON")
    p_run.add_argument("--archive", default=None, metavar="DIR",
                       help="archive directory (default: "
                            "archives/<name>-<fingerprint12>; re-running "
                            "resumes an interrupted run)")
    p_run.add_argument("--packs-dir", action="append", default=None,
                       metavar="DIR", help="extra pack search directory "
                                           "(repeatable, highest priority)")
    p_run.add_argument("--axis", action="append", default=[],
                       metavar="NAME=VALUES",
                       help="replace (or add) a sweep axis; repeatable")
    p_run.add_argument("--workers", type=int, default=None,
                       help="override the pack's worker count for this run "
                            "(not part of the fingerprint: results are "
                            "scheduling-independent)")
    p_run.add_argument("--root-seed", type=int, default=None,
                       help="override the pack's root seed (new fingerprint)")
    p_run.add_argument("--repeats", type=int, default=None,
                       help="override seeded repeats per grid point")
    p_run.add_argument("--validate", default=None,
                       choices=("off", "warn", "quarantine", "strict"),
                       help="override the pack's validation policy")
    p_run.add_argument("--json", action="store_true",
                       help="emit the canonical JSON aggregate")
    p_run.add_argument("--progress", action="store_true",
                       help="print progress/ETA beats to stderr")
    p_run.add_argument("--report", action="store_true",
                       help="print the supervision incident journal")
    p_run.set_defaults(fn=cmd_run, accepts_overrides=True)

    p_rep = add_parser(
        "reproduce",
        help="re-execute a run archive and assert byte-identical aggregates",
        description="First audits the archive's internal consistency (every "
                    "stored trial re-hashes to its content address, the "
                    "aggregates recompute from the store), then re-executes "
                    "the pack with a fresh result store and compares the new "
                    "aggregates byte-for-byte against the archived ones.  "
                    "--check-only stops after the audit — it catches edited "
                    "params or result lines without re-running anything.",
    )
    p_rep.add_argument("archive", metavar="ARCHIVE",
                       help="archive directory produced by `run`")
    p_rep.add_argument("--check-only", action="store_true",
                       help="integrity audit only; no re-execution")
    p_rep.add_argument("--workers", type=int, default=None,
                       help="worker count for the re-run (any value must "
                            "reproduce the same bytes)")
    p_rep.add_argument("--scratch", default=None, metavar="DIR",
                       help="where the re-run executes (default: a temp dir)")
    p_rep.add_argument("--keep-scratch", action="store_true",
                       help="keep the re-run's scratch archive for inspection")
    p_rep.add_argument("--diff", action="store_true",
                       help="on mismatch, print both aggregate payloads")
    p_rep.set_defaults(fn=cmd_reproduce)

    p_pk = add_parser(
        "packs",
        help="list / show / validate the scenario-pack library",
        description="Packs resolve from --packs-dir, $REPRO_PACKS, ./packs, "
                    "and the repository's committed packs/ library, in that "
                    "order (first hit wins).",
    )
    p_pk.add_argument("--list", action="store_true",
                      help="list resolvable packs (the default)")
    p_pk.add_argument("--show", default=None, metavar="NAME",
                      help="print one pack's resolved spec")
    p_pk.add_argument("--validate", action="store_true",
                      help="deep-validate every pack (schema + experiment "
                           "resolution); exit 1 if any fail")
    p_pk.add_argument("--packs-dir", action="append", default=None,
                      metavar="DIR", help="extra pack search directory")
    p_pk.add_argument("--json", action="store_true",
                      help="emit machine-readable output")
    p_pk.set_defaults(fn=cmd_packs)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = make_parser()
    # `run` takes open-ended --PARAM=VALUE pack overrides; every other
    # subcommand still rejects unknown arguments exactly as before.
    args, extras = parser.parse_known_args(argv)
    if getattr(args, "accepts_overrides", False):
        args.extras = extras
    elif extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    metrics_path = getattr(args, "metrics", None)
    trace_path = getattr(args, "trace", None)
    if metrics_path or trace_path:
        # Imported lazily so uninstrumented invocations never pay for (or
        # depend on) the obs package at all.
        from repro import obs

        obs.configure(metrics_path=metrics_path, trace_path=trace_path)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
