"""Run a workload once per seed and report each end-to-end metric's spread.

The spread is the distance between the first and third quartile of the
runs' values (``statistics.quantiles(values, n=4)``) as a share of their
median; a steady benchmark keeps it under a third of the metric's bound in
``BENCHMARK.json``.  Runs are sequential, so they never compete for cores.

    python3 nrbench/spread.py --workload wire-open-3p --seeds 1 2 3 4 5
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    arguments = parser.parse_args()

    values = {entry["name"]: [] for entry in spec["end_to_end"]}
    for seed in arguments.seeds:
        completed = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", arguments.workload,
             "--seed", str(seed), "--seconds", str(arguments.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
        )
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: incorrect run\n{completed.stdout}", file=sys.stderr)
            return 1
        for name, entry in result["metrics"].items():
            values[name].append(entry["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={entry['value']:.4g}" for name, entry in result["metrics"].items()
        ), flush=True)
    steady = True
    for entry in spec["end_to_end"]:
        series = values[entry["name"]]
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median
        ok = entry["name"] == "setup_s" or spread < entry["bound"] / 3
        steady &= ok
        print(f"{entry['name']:16s} median {median:10.4f} {entry['unit']:4s} "
              f"spread {spread:6.3f}  bound {entry['bound']:.2f}  {'ok' if ok else 'WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
