"""Benchmark entry point for progressive SkyMapJoin queries.

    python3 perfbench/run.py --workload serve-120 --seed 1 --seconds 16 --trace 0

Runs one workload against the engine in ``src/``, checks its results and
prints, as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` they are the per-layer metrics, timed by wrappers around each
layer's public functions.  Earlier lines carry the run facts and the
summary figures that are not gated (tails, append latency, failure ratio,
the per-cycle ``append-requery`` series).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys

import benchlib
import layers
import workloads

#: The gated end-to-end metrics and their units, as in ``BENCHMARK.json``.
END_TO_END = {
    "setup_s": "s",
    "ttfr_p50_ms": "ms",
    "complete_p50_ms": "ms",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        benchlib.require_engine()
    except benchlib.MissingEngine as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    work = os.path.join(benchlib.ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        out = workloads.WORKLOADS[args.workload](args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a parallel run
            os.rmdir(os.path.dirname(work))

    print("# facts " + json.dumps(benchlib.facts(
        args.seed, args.workload, seconds=args.seconds, trace=args.trace, **out.settings
    )))
    for line in out.lines:
        print(f"# {line}")
    for name, unit in END_TO_END.items():
        print(f"# {name}: {out.metrics[name]:.4f} {unit}")
    print(f"# failed_ratio: {out.failed / max(out.attempted, 1):.6f} "
          f"({out.failed} of {out.attempted} queries)")
    for problem in out.problems:
        print(f"# failure: {problem}")
    if args.trace:
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        metrics = {name: {"value": out.per_layer[name], "unit": units[name]}
                   for name in units}
    else:
        metrics = {name: {"value": out.metrics[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
