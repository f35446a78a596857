"""Exact-counter self-check: two traced runs of one seed must count the same work.

Usage (from the repository root)::

    python3 perfbench/selfcheck.py --workload served-dna-sharded [--seed N] [--seconds S]

Runs ``run.py --trace 1`` twice and compares the ``counts`` block of the
two detail lines: the engine's work counters (``core.*``), the sharded
service's (``sharded.k4_*``, ``sharded.work_ratio``), ``service.hits`` and
``service.dropped_boundary``, the index bytes on disk and the digest of the
open-loop arrival schedule.  Any difference is a benchmark defect (a
counter that depends on timing or on something other than the seed); the
check prints each one and exits 1.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def traced_counts(workload: str, seed: int | None, seconds: float) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seconds", str(seconds), "--trace", "1"]
    if seed is not None:
        command += ["--seed", str(seed)]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"run failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
    detail = json.loads(proc.stdout.splitlines()[-2])["detail"]
    return detail["counts"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args()
    first = traced_counts(args.workload, args.seed, args.seconds)
    second = traced_counts(args.workload, args.seed, args.seconds)
    differing = sorted(
        name for name in first.keys() | second.keys() if first.get(name) != second.get(name)
    )
    for name in differing:
        print(f"benchmark defect: count {name!r} differs: {first.get(name)!r} vs {second.get(name)!r}")
    if not differing:
        print(f"{args.workload}: {len(first)} counts identical across two runs")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
