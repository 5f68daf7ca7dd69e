"""The svc-socket daemon: PocService behind ServiceServer, journaled.

Started by ``workloads.py`` as its own process.  Prints one JSON line
``{"ready": ...}`` once the initial clear is done and the socket listens
(this is where ``setup_s`` stops), serves until SIGTERM, drains, and
prints a final ``{"done": ...}`` line with its peak RSS and answer
counts.  With ``--trace-out`` it records per-layer spans and writes them
there after the drain.

The modeled service time is zero, so latency is the code's own; every
other setting is the ``repro serve`` default (queue 64, batch 8, MILP
primary, 0.25 s deadline).
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import resource
import sys


@contextlib.contextmanager
def _native_stdout_silenced():
    """HiGHS prints MILP progress from C++ straight to fd 1; park it."""
    sys.stdout.flush()
    saved = os.dup(1)
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    try:
        yield
    finally:
        os.dup2(saved, 1)
        os.close(saved)
        os.close(devnull)


def _emit(payload) -> None:
    print(json.dumps(payload, sort_keys=True), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--journal", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    from repro.resilience import chaos
    from repro.service import (
        Journal, PocService, ServiceConfig, ServiceServer, service_handler,
    )

    tracer = None
    requests: list = []
    if args.trace_out:
        import tracing

        tracer = tracing.Tracer(f"svc-daemon-{os.getpid()}")
        tracing.install_clearing(tracer)
        tracing.install_service(tracer, requests)

    network, offers, tm = chaos.micro_scenario(args.seed)
    config = ServiceConfig(
        queue_limit=64,
        batch_max=8,
        default_deadline_s=0.25,
        batch_overhead_s=0.0,
        per_request_cost_s=0.0,
        reclear_delay_s=0.8,
        primary_method="milp",
        fallback_method="greedy-drop",
        milp_time_limit_s=30.0,
    )
    service = PocService(
        network, offers, tm, config=config, seed=args.seed,
        journal=Journal(args.journal),
    )

    async def serve() -> None:
        with _native_stdout_silenced():
            snap = await service.start()
        service.install_signal_handlers()
        server = ServiceServer(service_handler(service), host="127.0.0.1", port=0)
        host, port = await server.start()
        _emit({
            "ready": True, "host": host, "port": port, "pid": os.getpid(),
            "version": snap.version, "sites": list(snap.sites),
            "links": list(snap.selected),
        })
        try:
            await service.drained.wait()
        finally:
            await server.stop()

    asyncio.run(serve())
    if tracer is not None:
        from tracing import netflow_counts

        dump = tracer.dump()
        dump["requests"] = requests
        dump["netflow"] = netflow_counts(tracer)
        with open(args.trace_out, "w", encoding="utf-8") as out:
            json.dump(dump, out)
    _emit({
        "done": True,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stats": dict(service.stats),
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
