"""Shared helpers: locating the engine, summary statistics, run facts."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Every query selects both ids and the two mapped criteria; the
#: preference direction of each criterion is what a workload rotates.
SQL = (
    "SELECT R.id, T.id, (R.a0 + T.b0) AS x0, (R.a1 + T.b1) AS x1 "
    "FROM R{2} R, T{2} T WHERE R.jkey = T.jkey "
    "PREFERRING {0}(x0) AND {1}(x1)"
)
DIRECTIONS = (
    ("LOWEST", "LOWEST"),
    ("LOWEST", "HIGHEST"),
    ("HIGHEST", "LOWEST"),
    ("HIGHEST", "HIGHEST"),
)


def sql_for(direction: tuple[str, str], pair: str = "") -> str:
    """The query over tables ``R<pair>`` and ``T<pair>``."""
    return SQL.format(*direction, pair)


class MissingEngine(RuntimeError):
    """The checkout holds no engine source to benchmark."""


def require_engine() -> None:
    """Put ``src/`` on the import path, or raise :class:`MissingEngine`."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise MissingEngine(f"no engine package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def p50(values: list[float]) -> float:
    return statistics.median(values)


def tail(values: list[float]) -> tuple[str, float] | None:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for q in (0.999, 0.99, 0.95, 0.9):
        if n * (1 - q) >= 10:
            return f"p{q * 100:g}", ordered[math.ceil(q * n) - 1]
    return None


def describe(name: str, values: list[float], unit: str = "ms") -> str:
    """``name`` median and tail with the sample count, for a summary line."""
    if not values:
        return f"{name}: no samples"
    found = tail(values)
    tail_text = f"{found[0]} {found[1]:.3f}" if found else "no tail (under 10 samples beyond p90)"
    return f"{name}: p50 {p50(values):.3f} {unit}, {tail_text}, n={len(values)}"


def tail_line(name: str, values: list[float]) -> str:
    """``<name>: <value> ms (<percentile>, n=<samples>)``, or why there is none."""
    found = tail(values)
    if found is None:
        return f"{name}: not reported, {len(values)} samples leave fewer than 10 beyond p90"
    return f"{name}: {found[1]:.3f} ms ({found[0]}, n={len(values)})"


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set size of ``pid`` (default: this process) in MiB."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else ``unknown``."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = os.path.join(ROOT, ".git", ref)
        if os.path.exists(loose):
            with open(loose) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def facts(seed: int, workload: str, **settings) -> dict:
    """Machine and run facts printed with every run."""
    import sqlite3

    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
        "commit": git_commit(),
        **settings,
    }


def synthetic_tables(n: int, seed: int) -> dict:
    """The paper's §VI-A independent workload: d=2, σ=0.05, ``n`` rows a side."""
    from repro.data.workloads import SyntheticWorkload

    return SyntheticWorkload(
        distribution="independent", n=n, d=2, sigma=0.05, seed=seed
    ).tables()


#: ``serve-120`` tables: rows a side, and independent table pairs served.
SERVE_ROWS = 120
SERVE_PAIRS = 8


def serve_tables(seed: int) -> dict:
    """The ``serve-120`` tables: :data:`SERVE_PAIRS` independent pairs
    ``R0/T0 ...`` of :data:`SERVE_ROWS` rows a side, all drawn from ``seed``.

    Averaging over several small inputs keeps one seed's data from setting
    the per-query cost of a whole run.
    """
    tables = {}
    for k in range(SERVE_PAIRS):
        for alias, table in synthetic_tables(SERVE_ROWS, seed * SERVE_PAIRS + k).items():
            tables[f"{alias}{k}"] = table
    return tables
