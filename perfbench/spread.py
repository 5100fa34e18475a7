"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload build --workload query --seeds 10

Runs run.py once per seed and workload, one run at a time, and prints for
each end-to-end metric its median over the runs and its spread: the distance
between the first and third quartile as a share of the median.  A metric is
steady when its spread stays below a third of its bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or benchmark["run_seconds"]
    bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    steady = True
    for workload in args.workload:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect result", file=sys.stderr)
                steady = False
            runs.append({name: m["value"] for name, m in result["metrics"].items()})
        for name, bound in bounds.items():
            values = [run[name] for run in runs]
            share = spread(values)
            flag = "" if share < bound / 3 else "  <-- not below a third of the bound"
            steady &= name == "setup_s" or share < bound / 3
            print(f"{workload:<9} {name:<13} median {statistics.median(values):14.6f}"
                  f"  spread {share:7.4f}  bound {bound}{flag}")
        print(f"{workload:<9} values " + json.dumps(runs), flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
