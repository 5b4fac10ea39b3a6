"""Server bootstrap for the ``serve-120`` workload, run as its own process.

Generates the workload tables from ``--seed``, starts a
:class:`repro.serve.QueryServer` on a free loopback port and prints one JSON
line ``{"port": ...}`` once it accepts connections.  It then reads commands,
one per line, from standard input and answers each with one JSON line:

``snapshot``  per-layer accumulators, partition-cache and admission counters
``stop``      stop the server (draining streams), restore every traced
              wrapper, answer with a final snapshot and exit

With ``--trace 1`` the per-layer wrappers of :mod:`layers` are installed
before the server starts, so the server's own scheduler, kernel and framing
calls are timed.

Usage: ``python3 perfbench/serve_boot.py --seed 1 --trace 0``
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

import benchlib
import layers


def _snapshot(tracer, session, server) -> dict:
    return {
        "acc": tracer.snapshot() if tracer else {},
        "cache": session.plan_cache.stats().as_dict(),
        "admission": server.admission.snapshot(),
    }


async def _serve(server, session, tracer) -> None:
    await server.start()
    print(json.dumps({"port": server.port}), flush=True)
    loop = asyncio.get_running_loop()
    commands: asyncio.Queue[str] = asyncio.Queue()
    stdin = sys.stdin.fileno()
    loop.add_reader(stdin, lambda: commands.put_nowait(sys.stdin.readline()))
    try:
        while True:
            command = (await commands.get()).strip()
            if command == "snapshot":
                print(json.dumps(_snapshot(tracer, session, server)), flush=True)
            else:  # "stop", or end of input when the benchmark went away
                break
    finally:
        loop.remove_reader(stdin)
        await server.stop(timeout=30.0)
    final = _snapshot(tracer, session, server)
    final["leaked"] = tracer.restore() if tracer else []
    print(json.dumps(final), flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    benchlib.require_engine()
    from repro.serve import QueryServer
    from repro.session.service import Session

    tracer = None
    if args.trace:
        tracer = layers.Tracer().install()
        tracer.active = True
    session = Session().register_tables(benchlib.serve_tables(args.seed))
    server = QueryServer(session, port=0)
    asyncio.run(_serve(server, session, tracer))
    return 0


if __name__ == "__main__":
    sys.exit(main())
