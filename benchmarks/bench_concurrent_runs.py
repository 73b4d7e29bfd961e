"""P6 -- multi-run concurrent workload (new scenario axis).

A production deployment does not coordinate one update at a time: many
protocol runs for different shared objects are in flight at once.  This
benchmark drives N simultaneous sharing runs (one per shared object, each
proposed by a different organisation) over an M-party domain with real
wall-clock link latency and parallel dispatch, and reports how aggregate
throughput scales with the number of concurrent runs.

The serial engine could never exercise this axis: with sequential dispatch
and blocking sends, concurrent runs simply queue behind each other's link
latency.  With the parallel engine the per-run latencies overlap, so
throughput should scale near-linearly until the (single-core) crypto cost
becomes the floor; ``throughput_scaling`` records the measured ratio against
the single-run baseline of the same domain.
"""

import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import TrustDomain
from repro.faults import FaultPlan, FaultRule
from repro.clock import SystemClock
from repro.transport.network import ParallelDispatch

from benchmarks.conftest import CallCounter

PARTIES = 4

#: Wall-clock one-way link latency.  20 ms one-way (~40 ms RTT) is a typical
#: inter-enterprise WAN figure -- the paper's B2B setting -- and large enough
#: that overlapping latency, not shaving single-core CPU, is what the
#: scaling axis measures.
LINK_LATENCY_SECONDS = 0.02


def concurrent_domain(runs):
    uris = [f"urn:bench:party{i}" for i in range(PARTIES)]
    domain = TrustDomain.create(
        uris,
        fault_plan=FaultPlan(
            rules=[FaultRule("delay", latency_seconds=LINK_LATENCY_SECONDS)]
        ),
        clock=SystemClock(),
        dispatch=ParallelDispatch(),
    )
    for run in range(runs):
        domain.share_object(f"bench-doc-{run}", {"counter": 0})
    return domain


@pytest.mark.parametrize("concurrent_runs", [1, 2, 4])
def test_concurrent_sharing_runs(benchmark, concurrent_runs):
    """N simultaneous sharing runs x M parties: aggregate throughput."""
    domain = concurrent_domain(concurrent_runs)
    organisations = [
        domain.organisation(f"urn:bench:party{i}") for i in range(PARTIES)
    ]
    proposers = ThreadPoolExecutor(
        max_workers=concurrent_runs, thread_name_prefix="bench-proposer"
    )
    counter = {"n": 0}

    def one_run(run, value):
        proposer = organisations[run % PARTIES]
        outcome = proposer.propose_update(f"bench-doc-{run}", {"counter": value})
        assert outcome.agreed

    def wave():
        counter["n"] += 1
        futures = [
            proposers.submit(one_run, run, counter["n"])
            for run in range(concurrent_runs)
        ]
        for future in futures:
            future.result()

    # Single-run baseline on the same warmed domain, for the scaling ratio.
    one_run(0, -1)  # warm caches (key material, encodings) before timing
    baseline_rounds = 10
    start = time.perf_counter()
    for index in range(baseline_rounds):
        one_run(0, -2 - index)
    single_run_mean = (time.perf_counter() - start) / baseline_rounds

    counted = CallCounter(wave)
    before = domain.network.statistics.snapshot()
    benchmark(counted)
    delta = domain.network.statistics.delta(before)

    wave_mean = benchmark.stats.stats.mean
    total_updates = counted.calls * concurrent_runs
    benchmark.extra_info["concurrent_runs"] = concurrent_runs
    benchmark.extra_info["parties"] = PARTIES
    benchmark.extra_info["link_latency_seconds"] = LINK_LATENCY_SECONDS
    benchmark.extra_info["messages_per_update"] = round(
        delta.messages_sent / total_updates, 2
    )
    benchmark.extra_info["updates_per_second"] = round(
        concurrent_runs / wave_mean, 2
    )
    benchmark.extra_info["single_run_mean_seconds"] = single_run_mean
    benchmark.extra_info["throughput_scaling"] = round(
        concurrent_runs * single_run_mean / wave_mean, 2
    )
    proposers.shutdown(wait=True)
