"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage::

    python3 perfbench/spread.py --workload sim-figure2 --runs 10 [--first-seed 1]

Runs ``perfbench/run.py`` once per seed, one after another, and prints
for each end-to-end metric its median and its quartile spread (the
distance between the first and the third quartile, from
``statistics.quantiles(values, n=4)``, as a share of the median) next to
the metric's bound.  A benchmark is steady when every spread except
``setup_s``'s stays well inside its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    values: Dict[str, List[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            print(proc.stdout, proc.stderr, sep="\n")
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    for metric in bench["end_to_end"]:
        vals = values[metric["name"]]
        print(f"{metric['name']:14s} median {statistics.median(vals):10.4g}  "
              f"spread {spread(vals):6.3f}  bound {metric['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
