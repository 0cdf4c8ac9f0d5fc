"""CLI entry point: ``python -m repro.service``.

Default mode starts the server and blocks until ``POST /shutdown`` (or
SIGINT).  ``--smoke`` exercises the full loop in one process — start an
ephemeral server, stream one tiny sweep through it twice (cold, then
memo-warm), verify the streamed result lines are byte-identical to the
direct path, that the warm pass hit the cache and that it replayed
exactly the DET metrics the cold pass recorded, shut down — and exits
non-zero on any mismatch.  Tier-1 CI runs the smoke.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from repro.service.server import SweepServer, run_server

#: The smoke request: one tiny cell, cheap enough for CI.
SMOKE_PAYLOAD = {
    "benchmarks": ["atax"],
    "targets": ["wasm"],
    "opt_levels": ["O2"],
    "sizes": ["S"],
    "repetitions": 1,
    "client": "smoke",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve benchmark sweeps over HTTP (JSONL streaming).")
    parser.add_argument("--host", default=None,
                        help="bind host (default REPRO_SERVICE_HOST or "
                             "127.0.0.1)")
    parser.add_argument("--port", type=int, default=None,
                        help="bind port (default REPRO_SERVICE_PORT or "
                             "0 = ephemeral)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker pool size for sweeps "
                             "(default REPRO_JOBS)")
    parser.add_argument("--smoke", action="store_true",
                        help="start, stream one tiny sweep twice "
                             "(cold + warm), verify, and exit")
    return parser.parse_args(argv)


def _det_delta(registry, snap):
    """The DET increments recorded since ``snap``: counters (zero deltas
    dropped — a cold pass ships the names it registers, a warm pass
    finds them registered) and histograms."""
    from repro.obs import DET
    payload = registry.diff(snap)
    counters = {name: entry for name, entry in payload["counters"].items()
                if entry[0] == DET and (entry[1] or entry[2])}
    hists = {name: entry for name, entry in payload["hists"].items()
             if entry[0] == DET}
    return counters, hists


async def _smoke(args):
    from repro.obs import get_registry
    from repro.service.cells import direct_lines
    from repro.service.client import get_json, request_lines

    server = SweepServer(host=args.host, port=args.port, jobs=args.jobs)
    await server.start()
    host, port = server.host, server.port
    print(f"smoke: server on http://{host}:{port}", flush=True)
    loop = asyncio.get_running_loop()
    try:
        health = await loop.run_in_executor(
            None, lambda: get_json(host, port, "/healthz"))
        if health != {"ok": True}:
            print(f"smoke: bad healthz {health!r}", flush=True)
            return 1

        def stream():
            return [line for line in request_lines(host, port, SMOKE_PAYLOAD)
                    if json.loads(line).get("event") == "result"]

        # Registry reads queue on the service's executor thread: it
        # serializes every registry mutation, and a sweep folds its
        # workers' metrics in only after the last cell has streamed.
        registry = get_registry()
        executor = server.service._executor

        def cache_hits():
            return registry.export().get("cache.hits", 0)

        snap = await loop.run_in_executor(executor, registry.snapshot)
        cold = await loop.run_in_executor(None, stream)
        cold_det, snap, hits_before = await loop.run_in_executor(
            executor, lambda: (_det_delta(registry, snap),
                               registry.snapshot(), cache_hits()))
        warm = await loop.run_in_executor(None, stream)
        warm_det, hits_after = await loop.run_in_executor(
            executor, lambda: (_det_delta(registry, snap), cache_hits()))
        if not cold:
            print("smoke: no result lines streamed", flush=True)
            return 1
        if cold != warm:
            print("smoke: warm stream differs from cold stream", flush=True)
            return 1
        if hits_after <= hits_before:
            print("smoke: warm pass did not hit the result cache",
                  flush=True)
            return 1
        if not cold_det[0] or warm_det != cold_det:
            print("smoke: warm pass's DET metrics delta differs from the "
                  "cold pass's", flush=True)
            return 1
        cells = server.service.last_cells
        direct = await loop.run_in_executor(
            server.service._executor,
            lambda: [line.encode("utf-8") for line in direct_lines(cells)])
        if cold != direct:
            print("smoke: streamed lines differ from direct path",
                  flush=True)
            return 1
        stats = await loop.run_in_executor(
            None, lambda: get_json(host, port, "/stats"))
        swept = stats["counters"].get("service.cells.swept", 0)
        warm_hits = stats["counters"].get("service.cells.warm", 0)
        print(f"smoke: ok — {len(cold)} cell(s), swept={swept}, "
              f"warm={warm_hits}, det counters replayed="
              f"{len(warm_det[0])}", flush=True)
        return 0
    finally:
        await server.stop()


def main(argv=None):
    args = _parse_args(argv)
    if args.smoke:
        return asyncio.run(_smoke(args))
    try:
        asyncio.run(run_server(host=args.host, port=args.port,
                               jobs=args.jobs))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
