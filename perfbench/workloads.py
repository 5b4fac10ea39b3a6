"""The three workloads: ``serve-120``, ``drain-20k`` and ``append-requery``.

Each workload function takes ``(seed, seconds, trace, work)`` and returns a
:class:`Outcome`.  Latencies are in milliseconds, measured on the wall
clock: ``ttfr`` to the first result, ``thalf`` to the result that makes
half of the query's final result count, ``complete`` to the last result or
the terminal ``complete`` frame.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import shutil
import sqlite3
import subprocess
import sys
import time
from dataclasses import dataclass, field

import benchlib
import layers
from benchlib import DIRECTIONS, SERVE_PAIRS, SERVE_ROWS, describe, p50, sql_for, tail_line

_now = time.perf_counter

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 11


@dataclass
class Sample:
    ttfr: float
    thalf: float
    complete: float
    vtime: float = 0.0
    vtime_to_first: float = 0.0


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)
    settings: dict = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(message)


def _sample(start: float, arrivals: list[float], end: float) -> Sample:
    ms = lambda t: (t - start) * 1000.0  # noqa: E731
    if not arrivals:
        return Sample(ms(end), ms(end), ms(end))
    half = arrivals[(len(arrivals) + 1) // 2 - 1]
    return Sample(ms(arrivals[0]), ms(half), ms(end))


def _latency_metrics(out: Outcome, samples: list[Sample]) -> None:
    """The gated latency medians, and lines for the tails and ``thalf``."""
    ttfr = [s.ttfr for s in samples]
    complete = [s.complete for s in samples]
    out.metrics["ttfr_p50_ms"] = p50(ttfr)
    out.metrics["complete_p50_ms"] = p50(complete)
    out.lines.append(tail_line("ttfr_tail_ms", ttfr))
    out.lines.append(f"thalf_p50_ms: {p50([s.thalf for s in samples]):.3f} ms (n={len(samples)})")
    out.lines.append(tail_line("complete_tail_ms", complete))


def _traced_extra(samples: list[Sample]) -> dict:
    """Per-query figures the benchmark reads itself.  Medians, so that a
    run of whole rounds reports the same vtime whatever its round count."""
    return {
        "clock.vtime": p50([s.vtime for s in samples]),
        "clock.vtime_to_first": p50([s.vtime_to_first for s in samples]),
        "trace.complete_p50_ms": p50([s.complete for s in samples]),
    }


def _run_stream(session, sql: str):
    """Execute one query in-process; return its sample, keys and state."""
    start = _now()
    stream = session.execute(sql)
    arrivals = []
    for _ in stream:
        arrivals.append(_now())
    end = _now()
    stats = stream.stats()
    sample = _sample(start, arrivals, end)
    sample.vtime = stats.vtime
    sample.vtime_to_first = stats.time_to_first or 0.0
    return sample, {r.key() for r in stream.results}, stats.state


def _fits(start: float, last: float, seconds: float) -> bool:
    """Whether another round as long as the one begun at ``last`` still
    ends within ``seconds`` of ``start`` (runs measure whole rounds)."""
    now = _now()
    return now - start + (now - last) <= seconds


def _traced(trace: int):
    return layers.Tracer().install() if trace else None


def _finish_trace(tracer, out: Outcome) -> None:
    if tracer is None:
        return
    leaked = tracer.restore()
    if leaked:
        out.fail(f"wrappers not restored: {leaked}")


# ----------------------------------------------------------------------
# drain-20k
# ----------------------------------------------------------------------
DRAIN_ROWS = 20_000


def drain_20k(seed: int, seconds: float, trace: int, work: str) -> Outcome:
    """20k rows a side in mmap columnar files; one in-process caller runs
    whole rotations over the four preference directions after a warm-up
    query has filled the partition cache."""
    import repro

    out = Outcome(settings={"rows_per_table": DRAIN_ROWS, "directions": 4,
                            "backend": "columnar", "loop": "closed, 1 caller"})
    setups = []
    for i in range(SETUP_REPEATS):
        gc.collect()
        start = _now()
        sources = {
            alias: repro.ColumnarFileSource(
                repro.write_columnar(os.path.join(work, f"setup{i}", alias), table),
                name=alias,
            )
            for alias, table in benchlib.synthetic_tables(DRAIN_ROWS, seed).items()
        }
        session = repro.Session().register_tables(sources)
        setups.append(_now() - start)
    out.metrics["setup_s"] = p50(setups)
    # The generated rows are not kept: the timed loop's collections should
    # traverse the engine's heap only.  The reference run regenerates them.

    start = _now()
    _, keys, state = _run_stream(session, sql_for(DIRECTIONS[0]))
    seen: list[tuple[int, set, str]] = [(0, keys, state)]
    out.lines.append(f"warm-up query: {_now() - start:.3f} s")

    tracer = _traced(trace)
    cache_before = session.plan_cache.stats().as_dict()
    samples: list[Sample] = []
    if tracer:
        tracer.active = True
    start = last = _now()
    while not samples or _fits(start, last, seconds):
        last = _now()
        for d, direction in enumerate(DIRECTIONS):
            sample, keys, state = _run_stream(session, sql_for(direction))
            samples.append(sample)
            seen.append((d, keys, state))
    wall = _now() - start
    if tracer:
        tracer.active = False
    out.metrics["queries_per_s"] = len(samples) / wall
    out.metrics["peak_rss_mb"] = benchlib.peak_rss_mb()
    _latency_metrics(out, samples)
    if tracer:
        cache = layers.delta(session.plan_cache.stats().as_dict(), cache_before)
        out.per_layer = layers.per_layer(
            tracer.snapshot(), cache, len(samples), _traced_extra(samples)
        )
    _finish_trace(tracer, out)

    # Storage transparency: each result set equals a fresh memory-backend run.
    tables = benchlib.synthetic_tables(DRAIN_ROWS, seed)
    reference = [
        _run_stream(repro.Session().register_tables(tables), sql_for(direction))[1]
        for direction in DIRECTIONS
    ]
    for d, keys, state in seen:
        out.attempted += 1
        if state != "completed":
            out.fail(f"direction {d} ended {state}")
        elif keys != reference[d]:
            out.fail(f"direction {d}: columnar result set differs from memory")
    return out


# ----------------------------------------------------------------------
# append-requery
# ----------------------------------------------------------------------
APPEND_BASE = 10_000
APPEND_ROWS = 200
APPEND_CYCLES = 6
APPEND_DIRECTIONS = DIRECTIONS[:3]


def _build_base(path: str, tables: dict) -> None:
    import repro

    if os.path.exists(path):
        os.remove(path)
    conn = sqlite3.connect(path)
    # Input preparation, not the measured write path: skip the fsyncs.
    conn.execute("PRAGMA synchronous = OFF")
    try:
        for alias, table in tables.items():
            repro.SQLiteSource.write_table(
                conn, alias, (list(table.schema.columns), table.rows[:APPEND_BASE])
            )
    finally:
        conn.close()


def _append(writer, appended: dict, cycle: int) -> None:
    """Cycle ``cycle``'s write: one transaction of 200 rows a side."""
    lo = (cycle - 1) * APPEND_ROWS
    with writer:
        for alias, rows in appended.items():
            marks = ", ".join("?" * len(rows[0]))
            writer.executemany(
                f'INSERT INTO "{alias}" VALUES ({marks})', rows[lo:lo + APPEND_ROWS]
            )


def _open_sqlite(db: str, aliases):
    """A session over ``db`` opened ``append_only``, and a writer connection."""
    import repro

    sources = {alias: repro.SQLiteSource(db, table=alias, append_only=True) for alias in aliases}
    return sources, repro.Session().register_tables(sources), sqlite3.connect(db)


def _close_sqlite(sources: dict, writer) -> None:
    writer.close()
    for source in sources.values():
        source.connection.close()


def append_requery(seed: int, seconds: float, trace: int, work: str) -> Outcome:
    """A 10k-row SQLite base a side opened ``append_only``; each cycle
    appends 200 rows a side in one transaction and re-queries through the
    same session.  Every sequence starts from a fresh copy of the base."""
    from repro.core.engine import ProgXeEngine
    from repro.runtime.clock import VirtualClock

    out = Outcome(settings={
        "base_rows_per_table": APPEND_BASE, "append_rows_per_table": APPEND_ROWS,
        "cycles": APPEND_CYCLES, "directions": 3, "backend": "sqlite",
    })
    base = os.path.join(work, "base.db")
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = _now()
        tables = benchlib.synthetic_tables(APPEND_BASE + APPEND_CYCLES * APPEND_ROWS, seed)
        _build_base(base, tables)
        setups.append(_now() - start)
    out.metrics["setup_s"] = p50(setups)
    # Keep only the rows still to be appended, so the timed loop's
    # collections traverse little beyond the engine's own heap.
    appended = {alias: t.rows[APPEND_BASE:] for alias, t in tables.items()}
    del tables

    tracer = _traced(trace)
    samples: list[Sample] = []
    appends: list[float] = []
    seen: list[tuple[int, set, str]] = []
    series: dict[int, list[float]] = {c: [] for c in range(APPEND_CYCLES + 1)}
    partitions: dict[int, list[float]] = {c: [] for c in range(1, APPEND_CYCLES + 1)}
    cache_delta: dict[str, float] = {}
    wall = 0.0
    start = last = _now()
    sequences = 0
    while sequences == 0 or _fits(start, last, seconds):
        sequences += 1
        last = _now()
        db = os.path.join(work, "run.db")
        shutil.copyfile(base, db)
        sources, session, writer = _open_sqlite(db, appended)
        try:
            for cycle in range(APPEND_CYCLES + 1):
                sql = sql_for(APPEND_DIRECTIONS[cycle % len(APPEND_DIRECTIONS)])
                if cycle:
                    write_start = _now()
                    if cycle == 1:
                        loop_start = write_start
                    _append(writer, appended, cycle)
                    appends.append((_now() - write_start) * 1000.0)
                if tracer and cycle:
                    tracer.active = True
                    acc_before = tracer.snapshot()
                    cache_before = session.plan_cache.stats().as_dict()
                sample, keys, state = _run_stream(session, sql)
                if tracer and cycle:
                    tracer.active = False
                    acc = layers.delta(tracer.snapshot(), acc_before)
                    partitions[cycle].append(acc.get("partition.count", 0))
                    for key, value in layers.delta(
                        session.plan_cache.stats().as_dict(), cache_before
                    ).items():
                        cache_delta[key] = cache_delta.get(key, 0) + value
                series[cycle].append(sample.complete)
                seen.append((cycle, keys, state))
                if cycle:
                    samples.append(sample)
            wall += _now() - loop_start
        finally:
            _close_sqlite(sources, writer)
    out.metrics["queries_per_s"] = len(samples) / wall
    out.metrics["peak_rss_mb"] = benchlib.peak_rss_mb()
    _latency_metrics(out, samples)
    out.lines.append(f"append_p50_ms: {p50(appends):.3f} ms (n={len(appends)})")
    out.lines.append(
        "per-cycle complete_ms (median over "
        f"{sequences} sequence(s); cycle 0 = cold query on the base): "
        + ", ".join(f"c{c} {p50(v):.1f}" for c, v in series.items())
    )
    if tracer:
        out.lines.append(
            "per-cycle partition.count: "
            + ", ".join(f"c{c} {p50(v):.0f}" for c, v in partitions.items())
        )
        out.per_layer = layers.per_layer(
            tracer.snapshot(), cache_delta, len(samples), _traced_extra(samples)
        )
    out.settings["sequences"] = sequences
    _finish_trace(tracer, out)

    # Patch transparency: each cycle's result set equals an uncached engine
    # over the same table contents, replayed on a fresh copy of the base.
    db = os.path.join(work, "reference.db")
    shutil.copyfile(base, db)
    sources, session, writer = _open_sqlite(db, appended)
    try:
        expected = []
        for cycle in range(APPEND_CYCLES + 1):
            if cycle:
                _append(writer, appended, cycle)
            sql = sql_for(APPEND_DIRECTIONS[cycle % len(APPEND_DIRECTIONS)])
            expected.append(
                {r.key() for r in ProgXeEngine(session.sql(sql), VirtualClock()).run()}
            )
    finally:
        _close_sqlite(sources, writer)
    for cycle, keys, state in seen:
        out.attempted += 1
        if state != "completed":
            out.fail(f"cycle {cycle} ended {state}")
        elif keys != expected[cycle]:
            out.fail(f"cycle {cycle}: patched result set differs from uncached")
    return out


# ----------------------------------------------------------------------
# serve-120
# ----------------------------------------------------------------------
SERVE_RATE = 30.0
SERVE_CONNECTIONS = 2
#: Queries rotate over every table pair, partitioner and direction.
SERVE_VARIANTS = tuple(
    (direction, partitioning, str(pair))
    for pair in range(SERVE_PAIRS)
    for partitioning in ("grid", "quadtree")
    for direction in DIRECTIONS[:3]
)


class _Server:
    """One ``serve_boot.py`` process and its command pipe."""

    def __init__(self, seed: int, trace: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(benchlib.HERE, "serve_boot.py"),
             "--seed", str(seed), "--trace", str(trace)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=benchlib.ROOT,
        )
        self.port = self._reply()["port"]

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server process exited ({self.proc.wait()})")
        return json.loads(line)

    def command(self, text: str) -> dict:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def stop(self) -> dict:
        try:
            return self.command("stop")
        finally:
            self.close()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            pipe.close()


@dataclass
class _Reply:
    variant: int
    status: int = 0
    state: str | None = None
    values: list = field(default_factory=list)
    sample: Sample | None = None


async def _request(port: int, variant: int, base: float) -> _Reply:
    direction, partitioning, pair = SERVE_VARIANTS[variant]
    body = json.dumps({
        "sql": sql_for(direction, pair), "config": {"partitioning": partitioning},
        "client": "perfbench",
    }).encode()
    reply = _Reply(variant)
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(
            b"POST /query HTTP/1.1\r\nHost: perfbench\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode() + body
        )
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        reply.status = int(head.split(b" ", 2)[1])
        if reply.status != 200:
            return reply
        arrivals: list[float] = []
        end, stats = None, {}
        while line := await reader.readline():
            if not line.strip():
                continue
            frame = json.loads(line)
            if frame["event"] == "result":
                arrivals.append(_now())
                reply.values.append(frame["values"])
            elif frame["event"] == "complete":
                end = _now()
                reply.state = frame["state"]
                stats = frame.get("stats") or {}
        if end is not None:
            reply.sample = _sample(base, arrivals, end)
            reply.sample.vtime = stats.get("vtime", 0.0)
            reply.sample.vtime_to_first = stats.get("time_to_first") or 0.0
    finally:
        writer.close()
        await writer.wait_closed()
    return reply


async def _sequential(port: int, variants) -> list[_Reply]:
    return [await _request(port, v, _now()) for v in variants]


async def _open_loop(port: int, count: int, rate: float) -> tuple[list[_Reply], list[float], int]:
    """Send ``count`` requests due at ``rate`` per second over at most
    :data:`SERVE_CONNECTIONS` connections; latency counts from the due time."""
    slots = asyncio.Semaphore(SERVE_CONNECTIONS)
    tasks, late, waited = [], [], 0

    async def one(variant: int, due: float) -> _Reply:
        try:
            return await _request(port, variant, due)
        finally:
            slots.release()

    first = _now() + 0.05
    for i in range(count):
        due = first + i / rate
        delay = due - _now()
        if delay > 0:
            await asyncio.sleep(delay)
        if slots.locked():
            waited += 1
        await slots.acquire()
        late.append((_now() - due) * 1000.0)
        tasks.append(asyncio.ensure_future(one(i % len(SERVE_VARIANTS), due)))
    return list(await asyncio.gather(*tasks)), late, waited


async def _closed_loop(port: int, seconds: float) -> tuple[list[_Reply], float]:
    """:data:`SERVE_CONNECTIONS` callers back to back for ``seconds``."""
    start = _now()

    async def caller(offset: int) -> list[_Reply]:
        replies, i = [], offset
        while _now() - start < seconds:
            replies.append(await _request(port, i % len(SERVE_VARIANTS), _now()))
            i += SERVE_CONNECTIONS
        return replies

    per_caller = await asyncio.gather(*(caller(c) for c in range(SERVE_CONNECTIONS)))
    return [r for replies in per_caller for r in replies], _now() - start


def serve_120(seed: int, seconds: float, trace: int, work: str) -> Outcome:
    """A :class:`QueryServer` in its own process over 120 memory rows a side;
    an open loop at :data:`SERVE_RATE` per second, then a closed loop."""
    import repro
    from repro.session.config import EngineConfig

    phase_seconds = seconds / 2.0
    rotation = len(SERVE_VARIANTS)
    open_count = max(1, int(SERVE_RATE * phase_seconds) // rotation) * rotation
    out = Outcome(settings={
        "rows_per_table": SERVE_ROWS, "table_pairs": SERVE_PAIRS, "variants": rotation,
        "open_loop_rate_per_s": SERVE_RATE, "open_loop_requests": open_count,
        "connections": SERVE_CONNECTIONS, "closed_loop_seconds": phase_seconds,
    })
    local = repro.Session().register_tables(benchlib.serve_tables(seed))
    expected = [
        [r.outputs for r in local.execute(
            sql_for(direction, pair),
            config=EngineConfig().with_options(partitioning=partitioning),
        )]
        for direction, partitioning, pair in SERVE_VARIANTS
    ]
    # Values cross the wire as JSON; compare in that form.
    expected = [json.loads(json.dumps(e)) for e in expected]

    setups, server = [], None
    try:
        for i in range(SETUP_REPEATS):
            gc.collect()
            start = _now()
            server = _Server(seed, trace)
            setups.append(_now() - start)
            if i < SETUP_REPEATS - 1:
                server.stop()
                server = None
        out.metrics["setup_s"] = p50(setups)

        replies = asyncio.run(_sequential(server.port, range(rotation)))
        before = server.command("snapshot")
        opened, late, waited = asyncio.run(_open_loop(server.port, open_count, SERVE_RATE))
        after = server.command("snapshot")
        # Read after the fixed-size open loop: the closed loop's request
        # count depends on speed, and the server's footprint on that count.
        out.metrics["peak_rss_mb"] = benchlib.peak_rss_mb(server.proc.pid)
        closed, wall = asyncio.run(_closed_loop(server.port, phase_seconds))
        final = server.stop()
        server = None
    finally:
        if server is not None:
            server.close()

    samples = [r.sample for r in opened if r.sample is not None]
    done = [r for r in closed if r.state == "completed"]
    out.metrics["queries_per_s"] = len(done) / wall
    _latency_metrics(out, samples)
    out.lines.append(
        f"open loop: {open_count} requests at {SERVE_RATE:g}/s; send lateness "
        f"p50 {p50(late):.3f} ms, max {max(late):.3f} ms; "
        f"{waited} waited for a free connection"
    )
    out.lines.append(
        f"closed loop: {len(closed)} requests, {len(done) / wall:.2f} queries/s "
        f"(the open-loop rate is {SERVE_RATE * wall / len(done):.0%} of it); "
        + describe("complete_ms", [r.sample.complete for r in done if r.sample])
    )
    if trace:
        acc = layers.delta(after["acc"], before["acc"])
        cache = layers.delta(after["cache"], before["cache"])
        extra = _traced_extra(samples)
        extra["serve.rejected"] = (
            after["admission"]["rejected_total"] - before["admission"]["rejected_total"]
        ) / open_count
        out.per_layer = layers.per_layer(acc, cache, open_count, extra)
        if final["leaked"]:
            out.fail(f"server wrappers not restored: {final['leaked']}")

    for reply in replies + opened + closed:
        out.attempted += 1
        if reply.status != 200:
            out.fail(f"HTTP {reply.status}")
        elif reply.state != "completed":
            out.fail(f"terminal state {reply.state}")
        elif reply.values != expected[reply.variant]:
            out.fail(f"variant {reply.variant}: streamed values differ from direct execute")
    return out


WORKLOADS = {
    "serve-120": serve_120,
    "drain-20k": drain_20k,
    "append-requery": append_requery,
}
