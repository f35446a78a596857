"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload batch-dna-320k --runs 10 [--first-seed 1]

Runs ``run.py --trace 0`` once per seed (``first-seed``, ``first-seed+1``,
...) and prints, per metric, the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the quartile distance
as a share of the median next to the metric's bound from ``BENCHMARK.json``;
then, for the offline workload, the same for its times as measured,
before ``hostspeed.py`` scaled them to the reference host.
Each run's line also shows the share of CPU time the hypervisor stole
while it ran, which explains most outliers on a shared machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    contract = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    # p95_ms is a per-layer metric; an untraced run records it in its detail
    # line, and its spread is shown without a bound.
    tail: list[float] = []
    # The same times before scaling to the reference host (hostspeed.py).
    measured: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(contract["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        phases = json.loads(lines[-2])["detail"]["phases"]
        steal = phases.get("machine", {}).get("steal_share", 0.0)
        tail += [phase["p95_ms"] for phase in phases.values() if "p95_ms" in phase]
        for phase in phases.values():
            for name in ("measured_p50_ms", "measured_qps"):
                if name in phase:
                    measured.setdefault(name, []).append(phase[name])
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={v[-1]:.4g}" for n, v in values.items())
              + f" steal={steal:.3f}", flush=True)
    if tail:
        values["p95_ms (per-layer)"] = tail
    values.update({f"{name} (unscaled)": series for name, series in measured.items()})
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        share = (q3 - q1) / median if median else float("inf")
        bound = f"{bounds[name]:.2f}" if name in bounds else "none"
        print(f"{name:24s} median {median:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
              f"spread {share:7.4f}  bound {bound}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
