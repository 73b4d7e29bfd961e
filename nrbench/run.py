"""Run one workload of the repository benchmark and print its metrics.

Usage (from the repository root)::

    python3 nrbench/run.py --workload share-fanout-8p --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
Timings are reported at a nominal host speed (see ``hostspeed.py``); the
report line keeps the wall-clock figures.
``--trace 1`` is the separate traced run: it installs the layer ledger (see
``ledger.py``) for the timed phase and prints the per-layer metrics.  On the
two simulator workloads it first replays the same seeded prefix untraced and
traced, on fresh systems, and requires identical deterministic counts --
proof that the wrappers change no behaviour -- and reports the tracing
overhead as the ratio of the two prefixes' operations per second.

Every operation's result is checked as it returns, and replica digests and
audit chains are checked after the timed phase; ``correct`` is false if any
check failed.  The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
report with sample counts, the ungated p99s, the failure ratio, the
open-loop generator's lateness and the trace validation.  See ``README.md``
for the workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from ledger import Ledger, merge, span_names  # noqa: E402

WORKLOADS = ("share-fanout-8p", "b2b-mix-hot", "wire-open-3p")
SIMULATED = ("share-fanout-8p", "b2b-mix-hot")
#: Set-ups per run; ``setup_s`` is their median.  A ``b2b-mix-hot`` set-up
#: is short and waits on file creation, so it takes more of them.
SETUPS = {"share-fanout-8p": 9, "b2b-mix-hot": 25, "wire-open-3p": 9}
#: Operations of the seeded prefix replayed untraced and traced, after the
#: warm-up operations; the overhead ratio is timed over these.
VALIDATION_OPERATIONS = 200
#: Deterministic program-side counts that must match between the replays.
DETERMINISTIC_COUNTS = (
    "messages",
    "bytes",
    "retries",
    "evidence_records",
    "evidence_bytes",
    "audit_records",
    "state_versions",
    "journaled_runs",
    "verify_lookups",
)
#: Ledger call counts that a program-side count must equal exactly.
CALLS_MATCHING_COUNTS = {
    "evidence_store.store": "evidence_records",
    "audit_log.append": "audit_records",
    "state_store.record_version": "state_versions",
    "crypto.verify": "verify_lookups",
}


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def latencies_ms(phase: workloads.Phase, kind: str, nominal: bool = False) -> List[float]:
    """Latencies of one kind; with ``nominal``, rescaled to the nominal host speed."""
    seconds = [s.seconds for s in phase.samples]
    if nominal:
        seconds = hostspeed.rescale(seconds, [s.reference for s in phase.samples])
    return [value * 1e3 for value, s in zip(seconds, phase.samples) if s.kind == kind]


def probed(phase: workloads.Phase) -> bool:
    return bool(phase.samples) and all(s.reference > 0 for s in phase.samples)


def end_to_end(phase: workloads.Phase, nominal: bool, closed_loop: bool) -> Dict[str, Any]:
    """The gated metrics, at the nominal host speed where ``nominal``.

    On a closed loop ``ops_per_s`` is completed operations over the time the
    operations took: their summed latencies at the nominal speed, or else
    the timed phase's wall time less the references run in it.  On the open
    loop it is completed operations over the schedule's wall time, which
    makes it the offered rate.
    """
    updates = latencies_ms(phase, "update", nominal)
    invokes = latencies_ms(phase, "invoke", nominal)
    completed = sum(1 for s in phase.samples if s.ok)
    if nominal:
        setups = [
            seconds * hostspeed.NOMINAL_SECONDS / reference
            for seconds, reference in zip(phase.setup_seconds, phase.setup_references)
        ]
    else:
        setups = phase.setup_seconds
    if not closed_loop:
        busy = phase.seconds
    elif nominal:
        busy = sum(updates + invokes + latencies_ms(phase, "audit", nominal)) / 1e3
    else:
        busy = phase.seconds - sum(s.reference for s in phase.samples)
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "ops_per_s": metric(completed / busy, "1/s"),
        "update_p50_ms": metric(percentile(updates, 0.50), "ms"),
        "update_p90_ms": metric(percentile(updates, 0.90), "ms"),
        "invoke_p50_ms": metric(percentile(invokes, 0.50), "ms"),
        "invoke_p90_ms": metric(percentile(invokes, 0.90), "ms"),
        "peak_rss_mb": metric(phase.peak_rss_mb, "MB"),
    }


def per_layer(phase: workloads.Phase, ledger: Ledger) -> Dict[str, Any]:
    own = ledger.export()
    exports = [own] + ([phase.peer_ledger] if phase.peer_ledger else [])
    merged = merge(exports)
    ops = len(phase.samples)
    metrics: Dict[str, Any] = {}
    for name in span_names():
        calls, self_ns = merged["totals"][name]
        metrics[f"{name}.calls_per_op"] = metric(calls / ops, "count")
        metrics[f"{name}.self_us_per_op"] = metric(self_ns / 1e3 / ops, "us")
    lookups = phase.counts["verify_lookups"]
    metrics["crypto.verify_cache_hit_ratio"] = metric(
        phase.counts["cache_hits"] / lookups if lookups else 0.0, "ratio"
    )
    metrics["evidence_store.bytes_per_op"] = metric(phase.counts["evidence_bytes"] / ops, "B")
    # Per-call times in call order, from this process only: the age ratio
    # compares the first and last tenth of one history's growth.
    record_times = own["durations"]["state_store.record_version"]
    tenth = len(record_times) // 10
    metrics["state_store.record_version.age_ratio"] = metric(
        statistics.fmean(record_times[-tenth:]) / statistics.fmean(record_times[:tenth])
        if tenth
        else 0.0,
        "ratio",
    )
    for key, unit in (("messages", "count"), ("bytes", "B"), ("retries", "count")):
        metrics[f"network.{key}_per_op"] = metric(phase.counts[key] / ops, unit)
    hops = merged["hop_waits"]
    metrics["parallel.hop_wait_us_p50"] = metric(
        statistics.median(hops) / 1e3 if hops else 0.0, "us"
    )
    trips = merged["durations"]["wire.request"]
    for label, fraction in (("p50", 0.50), ("p99", 0.99)):
        metrics[f"wire.round_trip_us_{label}"] = metric(
            percentile(trips, fraction) / 1e3 if trips else 0.0, "us"
        )
    for process in ("bench", "peer"):
        metrics[f"proc.{process}.cpu_ms_per_op"] = metric(
            phase.cpu_seconds.get(process, 0.0) * 1e3 / ops, "ms"
        )
    return metrics


def validate_tracing(workload: str, seed: int) -> Dict[str, Any]:
    """Replay the seeded prefix untraced, then traced; compare what is deterministic."""
    replays = {}
    for traced in (False, True):
        system = workloads.SimSystem(workload)
        ledger = Ledger()
        try:
            before = system.counts()
            stream = workloads.operations(workload, seed)
            warm, phase = workloads.Phase(), workloads.Phase()
            if traced:
                ledger.install()
            try:
                workloads.run_closed(system, stream, warm, count=workloads.WARMUP_OPERATIONS)
                workloads.run_closed(system, stream, phase, count=VALIDATION_OPERATIONS)
            finally:
                ledger.uninstall()
            replays[traced] = {
                "counts": workloads.delta(system.counts(), before),
                "digests": system.digests(),
                "ops_per_s": len(phase.samples) / phase.seconds,
                "failed": sum(1 for s in warm.samples + phase.samples if not s.ok),
                "calls": {name: calls for name, (calls, _) in ledger.export()["totals"].items()},
            }
        finally:
            system.close()
    untraced, traced = replays[False], replays[True]
    mismatches = [
        key
        for key in DETERMINISTIC_COUNTS
        if untraced["counts"][key] != traced["counts"][key]
    ]
    mismatches += [
        f"{name}!={count}"
        for name, count in CALLS_MATCHING_COUNTS.items()
        if traced["calls"][name] != untraced["counts"][count]
    ]
    if untraced["digests"] != traced["digests"]:
        mismatches.append("digests")
    if untraced["failed"] or traced["failed"]:
        mismatches.append("failed operations")
    return {
        "operations": workloads.WARMUP_OPERATIONS + VALIDATION_OPERATIONS,
        "identical": not mismatches,
        "mismatches": mismatches,
        "untraced_ops_per_s": untraced["ops_per_s"],
        "traced_ops_per_s": traced["ops_per_s"],
        "overhead_ratio": untraced["ops_per_s"] / traced["ops_per_s"],
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        setups: Optional[int] = None) -> Dict[str, Any]:
    """Run one workload; return the ``report`` and ``result`` that ``main`` prints."""
    ledger = Ledger() if trace else None
    validation: Optional[Dict[str, Any]] = None
    if trace and workload in SIMULATED:
        validation = validate_tracing(workload, seed)
    if trace:
        setups = 1
    elif setups is None:
        setups = SETUPS[workload]
    if workload in SIMULATED:
        phase = workloads.run_sim(workload, seed, seconds, setups, ledger)
    else:
        phase = workloads.run_wire(seed, seconds, setups, ledger)

    failed = sum(1 for s in phase.samples if not s.ok) + (0 if phase.checks_ok else 1)
    attempted = max(1, len(phase.samples))
    correct = failed == 0 and (validation is None or validation["identical"])
    report: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "timed_seconds": phase.seconds,
        "samples": {
            kind: sum(1 for s in phase.samples if s.kind == kind)
            for kind in ("update", "invoke", "audit")
        },
        # Not gated: see README.md.  Each comes with the samples it is over.
        "p99_ms": {
            kind: {"value": percentile(values, 0.99), "samples": len(values)}
            for kind in ("update", "invoke")
            for values in [latencies_ms(phase, kind)]
            if values
        },
        "failed_ratio": failed / attempted,
        "setup_s_each": phase.setup_seconds,
        "errors": phase.errors,
    }
    if probed(phase):
        # The wall-clock figures behind the nominal ones, and the host's speed
        # as the reference saw it: quartiles of its time, in ms.
        report["wall_clock"] = end_to_end(phase, False, workload in SIMULATED)
        report["reference_ms_quartiles"] = [
            q * 1e3 for q in statistics.quantiles([s.reference for s in phase.samples], n=4)
        ]
    if phase.lateness:
        # Run validity, not a gated metric: how late the open-loop generator
        # sent relative to each request's due time.
        report["generator_lateness_p99_ms"] = percentile(phase.lateness, 0.99) * 1e3
    if validation is not None:
        report["trace_validation"] = validation
    metrics = (
        per_layer(phase, ledger)
        if trace
        else end_to_end(phase, probed(phase), workload in SIMULATED)
    )
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return {"report": report, "result": result}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    if not (workloads.SRC / "repro").is_dir():
        print(f"nrbench: no package sources under {workloads.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(workloads.SRC))
    began = time.perf_counter()
    outcome = run(arguments.workload, arguments.seed, arguments.seconds, bool(arguments.trace))
    outcome["report"]["wall_seconds"] = time.perf_counter() - began
    print(json.dumps(outcome["report"]))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
