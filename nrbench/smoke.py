"""Smoke test of the benchmark itself: every workload, briefly, both modes.

    python3 nrbench/smoke.py

Asserts that ``BENCHMARK.json`` is well formed and names exactly the
workloads and metrics the runs report, that a seed always generates the same
operation sequence, that host-speed rescaling divides by the local reference time,
that every workload runs its fixed operation count with no failed operation
and passes its correctness checks, that the untraced runs report their
wall-clock figures beside the rescaled ones, that the traced replay of
each simulator workload matches its untraced replay, that the command prints its result as
the last line, and that it fails without printing one when the package
sources are absent.  Takes about a minute.
"""

from __future__ import annotations

import itertools
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SECONDS = 2


def check_spec(spec) -> None:
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }, sorted(spec)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    names = [w["name"] for w in spec["workloads"]]
    for entry in spec["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}, entry
        assert 0 < entry["bound"] <= 0.25, entry
    for entry in spec["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}, entry
    for entry in spec["end_to_end"] + spec["per_layer"]:
        names.append(entry["name"])
        assert NAME.match(entry["name"]) and UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher"), entry
    assert len(names) == len(set(names)), "a name is used twice"
    setup = [e for e in spec["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(e["bound"] for e in spec["end_to_end"])


def check_streams() -> None:
    for workload in run.WORKLOADS:
        first = list(itertools.islice(workloads.operations(workload, 7), 500))
        again = list(itertools.islice(workloads.operations(workload, 7), 500))
        other = list(itertools.islice(workloads.operations(workload, 8), 500))
        assert first == again, f"{workload}: seed 7 gave two different sequences"
        assert first != other, f"{workload}: seeds 7 and 8 gave the same sequence"


def check_hostspeed() -> None:
    nominal = hostspeed.NOMINAL_SECONDS
    steady = hostspeed.rescale([0.002] * 30, [nominal] * 30)
    assert all(abs(value - 0.002) < 1e-12 for value in steady), steady
    # A host half as fast for the last third: those latencies halve, and the
    # local median follows the change within WINDOW operations.
    slowed = hostspeed.rescale([0.004] * 30, [nominal] * 20 + [2 * nominal] * 10)
    assert abs(slowed[0] - 0.004) < 1e-12 and abs(slowed[-1] - 0.002) < 1e-12, slowed
    assert hostspeed.timed_reference() > 0


def check_runs(spec) -> None:
    end_to_end = [e["name"] for e in spec["end_to_end"]]
    layers = [e["name"] for e in spec["per_layer"]]
    for workload, trace in itertools.product(run.WORKLOADS, (False, True)):
        outcome = run.run(workload, seed=7, seconds=SECONDS, trace=trace, setups=2)
        report, result = outcome["report"], outcome["result"]
        label = f"{workload} trace={int(trace)}"
        assert result["failed"] == 0 and report["failed_ratio"] == 0, (label, report)
        assert result["correct"], (label, report)
        assert list(result["metrics"]) == (layers if trace else end_to_end), label
        # The operation count depends on the arguments only, never on speed.
        if workload in run.SIMULATED:
            expected = workloads.closed_loop_count(workload, SECONDS)
        else:
            expected = round(workloads.WIRE_RATE * SECONDS)
        assert result["attempted"] == expected, (label, result["attempted"], expected)
        units = {e["name"]: e["unit"] for e in spec["end_to_end"] + spec["per_layer"]}
        for name, entry in result["metrics"].items():
            assert entry["unit"] == units[name], (label, name)
        if trace and workload in run.SIMULATED:
            assert report["trace_validation"]["identical"], (label, report)
        if not trace:
            assert list(report["wall_clock"]) == end_to_end, (label, report)
        print(f"ok  {label}: {result['attempted']} operations", flush=True)


def check_command() -> None:
    command = [sys.executable, "nrbench/run.py", "--workload", "share-fanout-8p",
               "--seed", "3", "--seconds", "1", "--trace", "0"]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                               timeout=180, check=True)
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["attempted"] >= 1
    # Without the package sources the command must fail and print no result.
    workloads.WORK_ROOT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=workloads.WORK_ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "nrbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        completed = subprocess.run(command, cwd=bare, capture_output=True, text=True,
                                   timeout=180)
        assert completed.returncode != 0, completed
        assert '"metrics"' not in completed.stdout, completed.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            workloads.WORK_ROOT.rmdir()
        except OSError:
            pass  # a concurrent run still uses it
    print("ok  command output and bare-directory failure", flush=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    check_streams()
    check_hostspeed()
    print("ok  BENCHMARK.json, seeded operation streams and host-speed rescaling", flush=True)
    check_runs(spec)
    check_command()
    return 0


if __name__ == "__main__":
    sys.exit(main())
