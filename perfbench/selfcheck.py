"""Determinism self-check for the traced run.

    python3 perfbench/selfcheck.py --workload drain-20k --seed 1 --seconds 16

Runs the traced benchmark twice with the same seed and exits non-zero
unless both runs are correct and report identical count metrics
(``layers.DETERMINISTIC``: clock, cache, look-ahead region, join-pair and
dominance-comparison counts).  Each traced run also fails itself when a
wrapper is left installed after it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import layers

HERE = os.path.dirname(os.path.abspath(__file__))


def traced_run(args) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "1"],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    first, second = traced_run(args), traced_run(args)
    ok = first["correct"] and second["correct"]
    for name in layers.DETERMINISTIC:
        a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
        same = a == b
        ok &= same
        print(f"{'ok ' if same else 'DIFF'} {name}: {a!r} {b!r}")
    print("deterministic" if ok else "NOT deterministic")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
