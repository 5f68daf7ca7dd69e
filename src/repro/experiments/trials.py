"""Pure, picklable per-trial functions for every sweepable experiment.

Each function here has the sweep-trial signature ``trial(params, seed)
-> record``: module-level (importable by name from any worker process),
free of global state, all randomness derived from the explicit ``seed``
through :mod:`repro.rand`, returning a flat mapping of metric name →
scalar.  The CLI entry points (`figure2`, `neutrality`, `market`,
`chaos`) are thin wrappers over these same functions, so a serial run
and a 32-worker sweep execute identical code per point.

Registration at the bottom of this module populates
:mod:`repro.sweeps.registry`; bump an experiment's ``version`` whenever
its trial's observable behaviour changes, so content-addressed cache
entries from older code stop matching.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.exceptions import SweepError
from repro.rand import make_rng

# -- parameter plumbing -------------------------------------------------------


def parse_constraints(value: object) -> Tuple[int, ...]:
    """Accept ``1``, ``"1,2,3"``, or a sequence of ints.

    Sweep axis values must be JSON scalars, so grids encode constraint
    sets as comma-joined strings; programmatic callers may pass tuples.
    """
    if isinstance(value, bool):
        raise SweepError(f"constraints cannot be a bool: {value!r}")
    if isinstance(value, int):
        numbers: Sequence[object] = (value,)
    elif isinstance(value, str):
        numbers = [part.strip() for part in value.split(",") if part.strip()]
    elif isinstance(value, Sequence):
        numbers = value
    else:
        raise SweepError(f"cannot parse constraints from {value!r}")
    try:
        parsed = tuple(int(n) for n in numbers)
    except (TypeError, ValueError) as exc:
        raise SweepError(f"bad constraint list {value!r}: {exc}") from exc
    if not parsed or any(n not in (1, 2, 3) for n in parsed):
        raise SweepError(f"constraints must be drawn from 1/2/3, got {value!r}")
    return parsed


def _flatten_auction_point(
    results: Mapping[str, object],
    summaries,
    rows,
    constraints: Sequence[int],
) -> Dict[str, float]:
    """Figure-2 record: PoB spread plus per-constraint auction totals."""
    from repro.auction.metrics import pob_variation

    var = pob_variation(rows)
    record: Dict[str, float] = {
        "pob_min": var["min"],
        "pob_max": var["max"],
        "pob_spread": var["spread"],
    }
    for number, summary in zip(constraints, summaries):
        prefix = f"c{number}"
        record[f"{prefix}_cost"] = summary.total_declared_cost
        record[f"{prefix}_payments"] = summary.total_payments
        record[f"{prefix}_selected"] = float(summary.links_selected)
        record[f"{prefix}_winners"] = float(summary.winners)
        record[f"{prefix}_overpayment"] = summary.overpayment_ratio
    return record


# -- figure 2 -----------------------------------------------------------------


def figure2_trial(params: Mapping[str, object], seed: int) -> Dict[str, float]:
    """One Figure-2 point: clear the auction per constraint, report PoB.

    ``preset`` selects the workload: ``micro`` (the deterministic
    8-site network from :func:`repro.resilience.chaos.micro_scenario`,
    milliseconds per trial — the sweep-scale default) or a synthetic zoo
    preset (``tiny``/``small``/``paper``, minutes per trial).
    """
    from repro.auction.metrics import pob_rows
    from repro.experiments.figure2 import (
        Figure2Config,
        run_constraint_auctions,
        run_figure2,
    )

    preset = str(params.get("preset", "micro"))
    constraints = parse_constraints(params.get("constraints", 1))
    method = str(params.get("method", "add-prune"))
    engine = params.get("engine")
    engines = (
        {number: str(engine) for number in constraints}
        if engine is not None
        else None
    )
    top_bps = params.get("top_bps")
    load_fraction = params.get("load_fraction")

    if preset == "micro":
        from repro.obs import span
        from repro.resilience.chaos import micro_scenario

        with span("workload.build", preset=preset):
            network, offers, tm = micro_scenario(
                int(seed),
                load_fraction=(
                    float(load_fraction) if load_fraction is not None else 0.05
                ),
            )
        results, summaries = run_constraint_auctions(
            network, tm, offers,
            constraints=constraints,
            engines=engines or {n: "mcf" for n in constraints},
            method=method,
        )
        in_auction = [o for o in offers if o.in_auction]
        ranked = sorted(in_auction, key=lambda o: (-len(o.links), o.provider))
        count = int(top_bps) if top_bps is not None else 3
        rows = pob_rows(results, [o.provider for o in ranked[:count]])
        return _flatten_auction_point(results, summaries, rows, constraints)

    config = Figure2Config(
        preset=preset,
        seed=int(seed),
        constraints=constraints,
        tm_model=str(params.get("tm_model", "gravity")),
        load_fraction=(
            float(load_fraction) if load_fraction is not None else 0.02
        ),
        method=method,
        top_bps=int(top_bps) if top_bps is not None else 5,
        engines={int(k): v for k, v in engines.items()} if engines else None,
    )
    result = run_figure2(config)
    return _flatten_auction_point(
        result.results, result.summaries, result.rows, constraints
    )


# -- §4 neutrality regime comparison ------------------------------------------


def neutrality_trial(params: Mapping[str, object], seed: int) -> Dict[str, float]:
    """Welfare under NN vs UR-bargaining vs UR-unilateral for one family.

    Deterministic (closed-form economics) — ``seed`` is accepted for the
    uniform trial signature and ignored.
    """
    from repro.econ.csp import CSP
    from repro.econ.demand import STANDARD_FAMILIES
    from repro.econ.equilibrium import compare_regimes
    from repro.econ.lmp import entrant, incumbent

    family = str(params.get("family", "linear"))
    if family not in STANDARD_FAMILIES:
        raise SweepError(
            f"unknown demand family {family!r}; "
            f"expected one of {sorted(STANDARD_FAMILIES)}"
        )
    rc = compare_regimes(
        CSP(name=family, demand=STANDARD_FAMILIES[family]),
        [incumbent(), entrant()],
    )
    return {
        "nn_welfare": rc.nn_welfare,
        "bargaining_welfare": rc.bargaining_welfare,
        "unilateral_welfare": rc.unilateral_welfare,
        "bargaining_fee": rc.bargaining_fee,
        "unilateral_fee": rc.unilateral_fee,
        "nn_price": rc.nn_price,
        "bargaining_price": rc.bargaining_price,
        "unilateral_price": rc.unilateral_price,
        "bargaining_loss": rc.bargaining_loss,
        "unilateral_loss": rc.unilateral_loss,
    }


# -- §5 market simulation -----------------------------------------------------


def market_trial(params: Mapping[str, object], seed: int) -> Dict[str, float]:
    """One market-simulator run: founding catalogue plus a late entrant.

    The simulator itself is deterministic given its config; ``seed`` is
    accepted for signature uniformity.  Per-agent metrics are keyed
    ``csp_<name>_profit`` / ``lmp_<name>_profit`` etc., so sweeps can
    aggregate any agent's trajectory across the grid.
    """
    from repro.econ.demand import LinearDemand
    from repro.market.entities import CSPAgent, founding_catalogue, founding_lmps
    from repro.market.sim import MarketConfig, MarketSim, Regime

    regime = Regime.NN if str(params.get("regime", "nn")) == "nn" else Regime.UR
    epochs = int(params.get("epochs", 24))
    entry_epoch = int(params.get("entry_epoch", 4))
    poc_cost = float(params.get("poc_cost", 5.0))

    csps = founding_catalogue()
    csps.append(
        CSPAgent(
            name="entrant-csp",
            demand=LinearDemand(v_max=25.0),
            incumbency=0.15,
            entry_epoch=entry_epoch,
        )
    )
    sim = MarketSim(
        MarketConfig(regime=regime, epochs=epochs, poc_monthly_cost=poc_cost),
        csps,
        founding_lmps(),
    )
    history = sim.run()
    last = history.records[-1]
    record: Dict[str, float] = {
        "final_welfare": last.social_welfare,
        "poc_surplus": last.poc_surplus,
    }
    for name in sorted(last.csps):
        record[f"csp_{name}_profit"] = history.cumulative_csp_profit(name)
        record[f"csp_{name}_incumbency"] = last.csps[name].incumbency
    for name in sorted(last.lmps):
        record[f"lmp_{name}_profit"] = history.cumulative_lmp_profit(name)
        record[f"lmp_{name}_customers"] = last.lmps[name].customers
    return record


# -- resilience campaigns -----------------------------------------------------


def chaos_trial(params: Mapping[str, object], seed: int) -> Dict[str, float]:
    """One fault-injection campaign on the micro workload.

    ``seed`` drives both the workload's cost perturbation and the fault
    schedule, exactly like ``poc-repro chaos --seed N``.
    """
    from repro.resilience.chaos import ChaosConfig, micro_scenario, run_campaign

    scenarios = int(params.get("scenarios", 6))
    constraint = int(params.get("constraint", 1))
    primary = str(params.get("method", "milp"))
    fallback = str(params.get("fallback", "greedy-drop"))
    if fallback == primary:
        fallback = "add-prune" if primary != "add-prune" else "greedy-drop"
    engine = str(params.get("engine", "mcf"))

    network, offers, tm = micro_scenario(int(seed))
    report = run_campaign(
        network, offers, tm,
        ChaosConfig(seed=int(seed), scenarios=scenarios),
        primary_method=primary,
        fallback_method=fallback,
        constraint=constraint,
        engine=engine,
    )
    served = [s.served_fraction for s in report.scenarios]
    return {
        "mean_served": report.mean_served_fraction,
        "min_served": min(served) if served else 1.0,
        "fallbacks": float(report.fallback_count),
        "infeasible": float(sum(1 for s in report.scenarios if s.infeasible)),
        "rerouted": float(sum(1 for s in report.scenarios if s.rerouted)),
    }


# -- online service load/chaos campaigns --------------------------------------


def _parse_fault_times(value: object) -> Tuple[float, ...]:
    """Accept ``""`` (no faults), ``"5"``, ``"5,12.5"``, or a sequence."""
    if value is None:
        return ()
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (float(value),)
    if isinstance(value, str):
        parts = [p.strip() for p in value.split(",") if p.strip()]
    elif isinstance(value, Sequence):
        parts = list(value)
    else:
        raise SweepError(f"cannot parse fault times from {value!r}")
    try:
        return tuple(float(p) for p in parts)
    except (TypeError, ValueError) as exc:
        raise SweepError(f"bad fault time list {value!r}: {exc}") from exc


def _parse_stall_window(value: object) -> Optional[Tuple[float, float]]:
    """Accept ``""`` (no stall) or ``"start:stop"`` in campaign seconds."""
    if value is None or value == "":
        return None
    if not isinstance(value, str) or ":" not in value:
        raise SweepError(
            f"stall_window wants 'START:STOP' seconds or '', got {value!r}"
        )
    lo_text, _, hi_text = value.partition(":")
    try:
        return float(lo_text), float(hi_text)
    except ValueError as exc:
        raise SweepError(f"bad stall_window {value!r}: {exc}") from exc


def service_trial(params: Mapping[str, object], seed: int) -> Dict[str, float]:
    """One deterministic load+chaos campaign against the online daemon.

    Wraps :func:`repro.service.loadgen.run_service_benchmark` with
    JSON-scalar parameters so the campaign is sweepable: ``fault_times``
    is a comma-joined string (``""`` = pure load test), ``stall_window``
    is ``"start:stop"`` or ``""``, ``flash_at < 0`` means no flash
    crowd.  The default clearing engine is heuristic (``greedy-drop``)
    to keep grid points at sweep speed; set ``method="milp"`` for exact
    clearing.  Byte-identical per seed (virtual clock).
    """
    from repro.service import ChaosPlan, LoadgenConfig, ServiceConfig
    from repro.service.loadgen import run_service_benchmark

    flash_at = float(params.get("flash_at", -1.0))
    load = LoadgenConfig(
        duration_s=float(params.get("duration_s", 8.0)),
        base_rate_qps=float(params.get("rate_qps", 60.0)),
        flash_start_s=flash_at if flash_at >= 0 else None,
        flash_duration_s=float(params.get("flash_duration", 2.0)),
        flash_multiplier=float(params.get("flash_mult", 8.0)),
        deadline_s=(
            float(params["deadline_s"])
            if params.get("deadline_s") is not None else None
        ),
    )
    fault_times = _parse_fault_times(params.get("fault_times", ""))
    stall = _parse_stall_window(params.get("stall_window", ""))
    chaos = None
    if fault_times or stall:
        chaos = ChaosPlan(
            fault_times=fault_times,
            links_per_fault=int(params.get("links_per_fault", 2)),
            stall_window=stall,
        )
    primary = str(params.get("method", "greedy-drop"))
    fallback = "add-prune" if primary != "add-prune" else "greedy-drop"
    config = ServiceConfig(
        queue_limit=int(params.get("queue_limit", 64)),
        batch_max=int(params.get("batch_max", 8)),
        primary_method=primary,
        fallback_method=fallback,
        milp_time_limit_s=30.0,
    )
    report = run_service_benchmark(
        int(seed), load=load, chaos=chaos, config=config,
    )
    counts = report.counts
    return {
        "submitted": float(report.submitted),
        "served": float(counts.get("ok", 0) + counts.get("degraded", 0)),
        "degraded_served": float(report.degraded_served),
        "shed": float(
            counts.get("overloaded", 0) + counts.get("deadline-exceeded", 0)
            + counts.get("draining", 0)
        ),
        "shed_rate": report.shed_rate,
        "unanswered": float(report.unanswered),
        "p50_ms": report.latency_p50_ms,
        "p99_ms": report.latency_p99_ms,
        "max_ms": report.latency_max_ms,
        "qps_served": report.qps_served,
        "faults": float(report.faults_injected),
        "reclears": float(report.reclears),
        "reclear_failures": float(report.reclear_failures),
        # None (no fault healed) encodes as -1.0: records must be flat
        # finite scalars for the content-addressed store.
        "recovery_s": (
            report.recovery_s if report.recovery_s is not None else -1.0
        ),
        "coalesced_pricing": float(report.coalesced_pricing),
        "final_version": float(report.final_version),
        "healthy": 1.0 if report.final_health == "healthy" else 0.0,
    }


# -- cache prewarming ---------------------------------------------------------


def micro_prewarm(params: Mapping[str, object]) -> None:
    """Warm the per-process caches behind the micro workload.

    Builds the memoized seed-independent micro-scenario base
    (:func:`repro.resilience.chaos._micro_base`) and the warm LP model
    for its (topology, TM) into the content-addressed model cache
    (:func:`repro.netflow.model.get_model`).  Registered as the
    ``prewarm`` hook of every micro-workload experiment: the trial
    supervisor calls it in the parent before dispatch (fork workers
    inherit the warm state) and in every pool worker at startup.  Pure
    cache population — the model cache keys on content and the micro
    base is seed-independent, so records are byte-identical with or
    without it.
    """
    if str(params.get("preset", "micro")) != "micro":
        return
    from repro.netflow.model import get_model
    from repro.resilience.chaos import micro_scenario

    load_fraction = params.get("load_fraction")
    network, _offers, tm = micro_scenario(
        0,
        load_fraction=(
            float(load_fraction) if load_fraction is not None else 0.05
        ),
    )
    get_model(network, tm)


# -- synthetic demo (tests, docs, CI wiring checks) ---------------------------


def demo_trial(params: Mapping[str, object], seed: int) -> Dict[str, float]:
    """A milliseconds-fast synthetic experiment for exercising the sweep
    machinery itself: draws from the trial's seeded stream, so identical
    seeds give identical records in any process.

    Two fault-injection knobs exercise the *supervision* machinery
    (watchdog, deadlines, quarantine, validation) end to end:
    ``sleep_s > 0`` stalls the trial that long before computing (a
    controllable hang for timeout tests and the CI supervisor smoke);
    ``emit="nan"`` poisons the record's ``mean`` with NaN so the
    invariant suite has something to reject.
    """
    sleep_s = float(params.get("sleep_s", 0.0))
    if sleep_s > 0:
        import time

        time.sleep(sleep_s)
    rng = make_rng(int(seed))
    loc = float(params.get("loc", 0.0))
    scale = float(params.get("scale", 1.0))
    draws = int(params.get("draws", 16))
    if scale <= 0:
        raise SweepError(f"scale must be positive, got {scale}")
    if draws < 1:
        raise SweepError(f"draws must be >= 1, got {draws}")
    values = rng.normal(loc=loc, scale=scale, size=draws)
    record = {
        "mean": float(values.mean()),
        "lo": float(values.min()),
        "hi": float(values.max()),
        "first": float(values[0]),
    }
    if params.get("emit") == "nan":
        record["mean"] = float("nan")
    return record


def region_clear_trial(params: Mapping[str, object], seed: int) -> Dict[str, object]:
    """One region sub-market of the continental sharded clearing.

    Thin sweepable wrapper around
    :func:`repro.auction.sharded.region_clear_record`: the heavy lifting
    (continental workload build, offer/traffic splitting, sub-market
    clear) lives next to the sharded-clearing code so the serial and
    worker-pool paths share one implementation byte for byte.
    """
    from repro.auction.sharded import region_clear_record

    return region_clear_record(params, int(seed))


# -- registration -------------------------------------------------------------


def _register_builtins() -> None:
    from repro.sweeps.registry import Experiment, register

    register(Experiment(
        name="figure2",
        trial=figure2_trial,
        version="1",
        description="PoB margins per constraint (micro or zoo workload)",
        defaults={"preset": "micro", "constraints": "1", "method": "add-prune"},
        prewarm=micro_prewarm,
    ), replace=True)
    register(Experiment(
        name="neutrality",
        trial=neutrality_trial,
        version="1",
        description="§4 welfare: NN vs UR-bargaining vs UR-unilateral",
        defaults={"family": "linear"},
    ), replace=True)
    register(Experiment(
        name="market",
        trial=market_trial,
        version="1",
        description="§5 agent-based market run with a late CSP entrant",
        defaults={"regime": "nn", "epochs": 24, "entry_epoch": 4, "poc_cost": 5.0},
    ), replace=True)
    register(Experiment(
        name="chaos",
        trial=chaos_trial,
        version="1",
        description="fault-injection campaign survivability (micro workload)",
        defaults={"scenarios": 6, "constraint": 1, "method": "milp"},
        prewarm=micro_prewarm,
    ), replace=True)
    register(Experiment(
        name="service",
        trial=service_trial,
        version="1",
        description="online-daemon load/chaos campaign (virtual clock)",
        defaults={
            "duration_s": 8.0, "rate_qps": 60.0, "flash_at": -1.0,
            "flash_duration": 2.0, "flash_mult": 8.0, "fault_times": "",
            "links_per_fault": 2, "stall_window": "", "method": "greedy-drop",
            "queue_limit": 64, "batch_max": 8,
        },
        prewarm=micro_prewarm,
    ), replace=True)
    register(Experiment(
        name="region_clear",
        trial=region_clear_trial,
        version="1",
        description="one region sub-market of the continental sharded clear",
        defaults={
            "preset": "smoke", "region": "na", "engine": "mcf",
            "method": "greedy-drop", "pricing": "bid",
            "load_fraction": 0.02, "inter_region_fraction": 0.3,
            "offer_seed": 7,
        },
    ), replace=True)
    register(Experiment(
        name="demo",
        trial=demo_trial,
        # v2: fault-injection knobs (sleep_s, emit) joined the params.
        version="2",
        description="synthetic seeded draws (sweep-machinery smoke checks)",
        defaults={
            "loc": 0.0, "scale": 1.0, "draws": 16, "sleep_s": 0.0, "emit": "",
        },
    ), replace=True)


_register_builtins()
