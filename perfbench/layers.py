"""Per-layer timing from outside the engine.

A :class:`Tracer` replaces public functions and methods of each layer with
timing wrappers, at the place the caller looks them up (a module global such
as ``repro.core.kernel.process_region``, or a class attribute such as
``ColumnarFileSource.scan_batches``).  Every wrapped call is a span on one
stack, so a span's *self time* is its duration minus the time of the spans
it contains.  Generators are timed per resume.  Accumulators stay in memory
until the run ends; :meth:`Tracer.restore` puts every original back and
then searches the engine's modules and classes for any wrapper still
installed.

Nothing here edits the engine's source: the wrappers are installed by the
benchmark process (or the benchmark-owned server bootstrap) only.
"""

from __future__ import annotations

import asyncio
import sys
import time
import types
from collections import defaultdict

_clock = time.perf_counter

#: Set on every wrapper, so that one left installed can be found.
_MARK = "__perfbench_wrapper__"

#: Per-layer metrics: (name, unit, better).  Values are per traced query
#: unless the name ends in ``_ratio``.
PER_LAYER = (
    ("storage.scan.ms", "ms", "lower"),
    ("storage.scan.rows", "count", "lower"),
    ("storage.fetch.ms", "ms", "lower"),
    ("storage.fetch.rows", "count", "lower"),
    ("partition.ms", "ms", "lower"),
    ("partition.rows", "count", "lower"),
    ("partition.delta_ms", "ms", "lower"),
    ("partition.delta_rows", "count", "lower"),
    ("partition.count", "count", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.patched", "count", "higher"),
    ("cache.invalidations", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("lookahead.ms", "ms", "lower"),
    ("lookahead.build_ms", "ms", "lower"),
    ("lookahead.eliminate_ms", "ms", "lower"),
    ("lookahead.grid_ms", "ms", "lower"),
    ("lookahead.premark_ms", "ms", "lower"),
    ("lookahead.regions", "count", "lower"),
    ("lookahead.regions_kept", "count", "lower"),
    ("lookahead.kept_ratio", "ratio", "lower"),
    ("lookahead.cells_marked", "count", "higher"),
    ("order.ms", "ms", "lower"),
    ("order.graph_build_ms", "ms", "lower"),
    ("join.ms", "ms", "lower"),
    ("join.pairs", "count", "lower"),
    ("join.regions", "count", "lower"),
    ("join.regions_discarded", "count", "higher"),
    ("map.ms", "ms", "lower"),
    ("map.rows", "count", "lower"),
    ("dominance.ms", "ms", "lower"),
    ("dominance.cmps", "count", "lower"),
    ("dominance.useful_ratio", "ratio", "higher"),
    ("emission.ms", "ms", "lower"),
    ("emission.results", "count", "lower"),
    ("clock.charge_calls", "count", "lower"),
    ("clock.vtime", "vtime", "lower"),
    ("clock.vtime_to_first", "vtime", "lower"),
    ("session.parse_ms", "ms", "lower"),
    ("session.bind_ms", "ms", "lower"),
    ("kernel.step_ms", "ms", "lower"),
    ("kernel.steps", "count", "lower"),
    ("scheduler.tick_ms", "ms", "lower"),
    ("scheduler.ticks", "count", "lower"),
    ("scheduler.idle_ticks", "count", "lower"),
    ("serve.encode_ms", "ms", "lower"),
    ("serve.frames", "count", "lower"),
    ("serve.bytes", "count", "lower"),
    ("serve.write_ms", "ms", "lower"),
    ("serve.rejected", "count", "lower"),
    ("serve.backpressure_pauses", "count", "lower"),
    ("trace.queries", "count", "higher"),
    ("trace.complete_p50_ms", "ms", "lower"),
)

#: Count metrics that two traced runs with the same seed must repeat exactly.
DETERMINISTIC = tuple(
    name for name, _, _ in PER_LAYER
    if name.startswith(("clock.", "cache.", "lookahead.regions", "dominance.cmps"))
    or name == "join.pairs"
)

#: Span name -> per-layer ``*_ms`` metric fed by the span's self time.
_SPAN_MS = {
    "storage.scan": "storage.scan.ms",
    "storage.fetch": "storage.fetch.ms",
    "partition": "partition.ms",
    "partition.delta": "partition.delta_ms",
    "lookahead": "lookahead.ms",
    "lookahead.build": "lookahead.build_ms",
    "lookahead.eliminate": "lookahead.eliminate_ms",
    "lookahead.grid": "lookahead.grid_ms",
    "lookahead.premark": "lookahead.premark_ms",
    "order": "order.ms",
    "order.graph_build": "order.graph_build_ms",
    "join": "join.ms",
    "map": "map.ms",
    "dominance": "dominance.ms",
    "emission": "emission.ms",
    "session.parse": "session.parse_ms",
    "session.bind": "session.bind_ms",
    "kernel.step": "kernel.step_ms",
    "scheduler.tick": "scheduler.tick_ms",
    "serve.encode": "serve.encode_ms",
    "serve.write": "serve.write_ms",
}


class Tracer:
    """Span stack plus named accumulators, and the patches that feed them.

    ``acc`` maps ``"<span>.s"`` to accumulated self seconds and any other
    key to a count.  Spans are recorded only while :attr:`active` is true,
    so set-up, warm-up and correctness checks stay out of the numbers.
    """

    def __init__(self) -> None:
        self.active = False
        self.acc: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def _enter(self, name: str) -> list:
        frame = [0.0, name]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, duration: float) -> None:
        self._stack.pop()
        self.acc[frame[1] + ".s"] += duration - frame[0]
        if self._stack:
            self._stack[-1][0] += duration

    def inside(self, name: str) -> bool:
        """Whether a span ``name`` is open."""
        return any(frame[1] == name for frame in self._stack)

    # -- wrappers ------------------------------------------------------
    def _original(self, owner, attr: str):
        return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    def _patch(self, owner, attr: str, original, replacement) -> None:
        setattr(replacement, _MARK, True)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Time calls of ``owner.attr`` as span ``name``.

        ``before(args)`` and ``after(result, args, token)`` run outside the
        span to record counts; ``token`` is what ``before`` returned.
        """
        original = self._original(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            token = before(args) if before is not None else None
            frame = tracer._enter(name)
            start = _clock()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(frame, _clock() - start)
            tracer.acc[name + ".calls"] += 1
            if after is not None:
                after(result, args, token)
            return result

        self._patch(owner, attr, original, wrapper)

    def wrap_generator(self, owner, attr: str, name: str, on_item=None, on_call=None) -> None:
        """Time each resume of the generator ``owner.attr`` returns."""
        original = self._original(owner, attr)
        tracer = self

        def timed(gen):
            try:
                while True:
                    frame = tracer._enter(name)
                    start = _clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(frame, _clock() - start)
                    if on_item is not None:
                        on_item(item)
                    yield item
            finally:
                gen.close()

        def wrapper(*args, **kwargs):
            gen = original(*args, **kwargs)
            if not tracer.active:
                return gen
            tracer.acc[name + ".calls"] += 1
            if on_call is not None:
                on_call(args)
            return timed(gen)

        self._patch(owner, attr, original, wrapper)

    def wrap_coroutine(self, owner, attr: str, name: str) -> None:
        """Time awaited calls of ``owner.attr`` as a leaf, off the span
        stack: other tasks run while it is suspended."""
        original = self._original(owner, attr)
        tracer = self

        async def wrapper(*args, **kwargs):
            if not tracer.active:
                return await original(*args, **kwargs)
            start = _clock()
            try:
                return await original(*args, **kwargs)
            finally:
                tracer.acc[name + ".s"] += _clock() - start

        self._patch(owner, attr, original, wrapper)

    def count_calls(self, owner, attr: str, key: str, units_by_kind: bool = False) -> None:
        """Count calls of ``owner.attr`` without a span (hot, tiny calls).

        With ``units_by_kind`` the call is ``charge(kind, units=1)`` and the
        units are summed per kind under ``units.<kind>``.
        """
        original = self._original(owner, attr)
        acc = self.acc
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                acc[key] += 1
                if units_by_kind:
                    units = args[2] if len(args) > 2 else kwargs.get("units", 1)
                    acc["units." + args[1]] += units
            return original(*args, **kwargs)

        self._patch(owner, attr, original, wrapper)

    # -- lifecycle -----------------------------------------------------
    def install(self) -> "Tracer":
        """Patch every layer boundary the benchmark measures."""
        _install_layers(self)
        return self

    def restore(self) -> list[str]:
        """Undo every patch; return where a wrapper is still installed."""
        self.active = False
        owners = {id(owner): owner for owner, _, _ in self._patches}
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        return installed_wrappers(owners.values())

    def snapshot(self) -> dict[str, float]:
        return dict(self.acc)


def _install_layers(tracer: Tracer) -> None:
    import repro.core.kernel as kernel_mod
    import repro.core.lookahead as lookahead_mod
    import repro.core.plan as plan_mod
    import repro.serve.app as app_mod
    import repro.session.service as service_mod
    from repro.core.elimination_graph import EliminationGraph
    from repro.core.kernel import ExecutionKernel
    from repro.core.progdetermine import ExecutionState
    from repro.core.progorder import ProgOrder
    from repro.query.smj import BoundQuery
    from repro.runtime.clock import VirtualClock
    from repro.serve.backpressure import BackpressureBridge
    from repro.session.scheduler import QueryScheduler
    from repro.session.service import Session
    from repro.storage.grid import GridPartitioner
    from repro.storage.quadtree import QuadTreePartitioner
    from repro.storage.sources.columnar import ColumnarFileSource
    from repro.storage.sources.memory import InMemorySource
    from repro.storage.sources.sqlite import SQLiteSource

    acc = tracer.acc

    def scanned(batch):
        rows = len(batch)
        acc["storage.scan.rows"] += rows
        if tracer.inside("partition.delta"):
            acc["partition.delta_rows"] += rows
        elif tracer.inside("partition"):
            acc["partition.rows"] += rows

    for cls in (ColumnarFileSource, SQLiteSource, InMemorySource):
        tracer.wrap_generator(cls, "scan_batches", "storage.scan", on_item=scanned)

    def fetched(result, args, _token):
        acc["storage.fetch.rows"] += len(result)

    tracer.wrap(ColumnarFileSource, "fetch_rows", "storage.fetch", after=fetched)
    for cls in (GridPartitioner, QuadTreePartitioner):
        tracer.wrap(cls, "partition", "partition")
        tracer.wrap(cls, "partition_delta", "partition.delta")

    def looked_ahead(result, args, _token):
        _bound, left, right = args[:3]
        acc["partition.count"] += left.partition_count + right.partition_count
        regions, _grid = result
        acc["lookahead.regions_kept"] += sum(1 for r in regions if not r.discarded)

    tracer.wrap(plan_mod, "run_lookahead", "lookahead", after=looked_ahead)

    def built(result, args, _token):
        acc["lookahead.regions"] += len(result)

    def premarked(result, args, _token):
        acc["lookahead.cells_marked"] += result

    tracer.wrap(lookahead_mod, "build_regions", "lookahead.build", after=built)
    tracer.wrap(lookahead_mod, "eliminate_dominated_regions", "lookahead.eliminate")
    tracer.wrap(lookahead_mod, "build_output_grid", "lookahead.grid")
    tracer.wrap(lookahead_mod, "premark_dominated_cells", "lookahead.premark", after=premarked)

    tracer.wrap(EliminationGraph, "__init__", "order.graph_build")
    tracer.wrap(EliminationGraph, "remove", "order")
    for attr in ("__init__", "next_region", "on_region_done"):
        tracer.wrap(ProgOrder, attr, "order")

    def region_started(args):
        region = args[1]
        if region.done or region.unmarked_covered == 0:
            acc["join.skipped"] += 1

    tracer.wrap_generator(kernel_mod, "process_region", "join", on_call=region_started)

    def mapped(result, args, _token):
        acc["map.rows"] += len(args[1])

    tracer.wrap(BoundQuery, "map_rows_batch", "map", after=mapped)
    tracer.wrap(BoundQuery, "vectors_of_batch", "map")

    def inserted(result, args, inserted_before):
        acc["dominance.arrived"] += len(args[2])
        acc["dominance.kept"] += args[0].inserted - inserted_before

    tracer.wrap(ExecutionState, "insert_batch", "dominance",
                before=lambda args: args[0].inserted, after=inserted)
    tracer.wrap(ExecutionState, "drain_emissions", "emission")
    tracer.wrap(ExecutionState, "complete_region", "emission")

    def made(result, args, _token):
        acc["emission.results"] += 1

    tracer.wrap(BoundQuery, "make_result", "emission", after=made)
    tracer.count_calls(VirtualClock, "charge", "clock.charge_calls", units_by_kind=True)

    tracer.wrap(service_mod, "parse_query", "session.parse")
    tracer.wrap(Session, "bind", "session.bind")
    tracer.wrap(ExecutionKernel, "step", "kernel.step")

    def ticked(result, args, _token):
        if not result:
            acc["scheduler.idle_ticks"] += 1

    tracer.wrap(QueryScheduler, "tick", "scheduler.tick", after=ticked)

    def encoded(result, args, _token):
        acc["serve.bytes"] += len(result)

    tracer.wrap(app_mod, "encode_frame", "serve.encode", after=encoded)
    tracer.wrap(asyncio.StreamWriter, "write", "serve.write")
    tracer.wrap_coroutine(asyncio.StreamWriter, "drain", "serve.write")
    tracer.count_calls(BackpressureBridge, "_pause", "serve.backpressure_pauses")


def installed_wrappers(owners=()) -> list[str]:
    """``module.name`` / ``Class.name`` of every wrapper still reachable
    from a loaded ``repro`` module, a class it defines, or ``owners``."""
    spaces = []
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            spaces.append((name, vars(module)))
            spaces.extend(
                (value.__qualname__, vars(value))
                for value in list(vars(module).values())
                if isinstance(value, type)
            )
    spaces.extend((owner.__qualname__, vars(owner)) for owner in owners if isinstance(owner, type))
    found = set()
    for label, space in spaces:
        for attr, value in list(space.items()):
            if type(value) is types.FunctionType and _MARK in value.__dict__:
                found.add(f"{label}.{attr}")
    return sorted(found)


def delta(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def per_layer(acc: dict, cache: dict, queries: int, extra: dict) -> dict:
    """Fold accumulator and cache-stat deltas into the per-layer metrics.

    ``extra`` supplies what the benchmark measured itself: the vtime
    figures, ``serve.rejected`` and ``trace.complete_p50_ms``.
    """
    q = max(queries, 1)
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    spans = {key[:-2] for key in acc if key.endswith(".s")}
    for span in spans:
        metric = _SPAN_MS.get(span)
        if metric is not None:
            out[metric] += acc[span + ".s"] * 1000.0 / q
    # A layer's time includes its named sub-steps.
    out["lookahead.ms"] += sum(out[f"lookahead.{s}_ms"] for s in ("build", "eliminate", "grid", "premark"))
    out["order.ms"] += out["order.graph_build_ms"]
    for key in ("storage.scan.rows", "storage.fetch.rows", "partition.rows",
                "partition.delta_rows", "partition.count", "lookahead.regions",
                "lookahead.regions_kept", "lookahead.cells_marked", "map.rows",
                "emission.results", "clock.charge_calls", "scheduler.idle_ticks",
                "serve.bytes", "serve.backpressure_pauses"):
        out[key] = acc.get(key, 0) / q
    # Every region the look-ahead kept is either joined or discarded at
    # run time (skipped by the kernel or handed back without a join).
    joined = acc.get("join.calls", 0) - acc.get("join.skipped", 0)
    out["join.regions"] = joined / q
    out["join.regions_discarded"] = (acc.get("lookahead.regions_kept", 0) - joined) / q
    out["join.pairs"] = acc.get("units.join_result", 0) / q
    out["dominance.cmps"] = acc.get("units.dominance_cmp", 0) / q
    out["kernel.steps"] = acc.get("kernel.step.calls", 0) / q
    out["scheduler.ticks"] = acc.get("scheduler.tick.calls", 0) / q
    out["serve.frames"] = acc.get("serve.encode.calls", 0) / q
    arrived = acc.get("dominance.arrived", 0)
    out["dominance.useful_ratio"] = acc.get("dominance.kept", 0) / arrived if arrived else 0.0
    regions = acc.get("lookahead.regions", 0)
    out["lookahead.kept_ratio"] = acc.get("lookahead.regions_kept", 0) / regions if regions else 0.0
    for key in ("hits", "misses", "patched", "invalidations"):
        out[f"cache.{key}"] = cache.get(key, 0) / q
    lookups = sum(cache.get(k, 0) for k in ("hits", "misses", "patched"))
    out["cache.hit_ratio"] = cache.get("hits", 0) / lookups if lookups else 0.0
    out["trace.queries"] = float(queries)
    out.update(extra)
    return out
