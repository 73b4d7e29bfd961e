"""P7 -- event-driven retry engine: overlapping backoffs across concurrent runs.

Under lossy links a reliable channel waits out exponential backoffs between
delivery attempts.  The blocking engine parks the calling thread for every
wait, so one worker handling N concurrent delivery runs pays the *sum* of
all their backoffs; the event-driven engine
(:class:`repro.transport.scheduler.RetryScheduler`) parks a timer instead,
so a single worker interleaves the runs and pays roughly the *longest
chain*.

Elapsed time is measured on the simulated clock, which makes the comparison
deterministic (the fault model is seeded and both modes are driven from one
thread): CI can gate on the ratio without wall-clock noise.  The acceptance
target for this axis is ``retry_wait_overlap >= 2`` at 4 concurrent runs
with a 10% drop rate.
"""

import pytest

from repro.clock import SimulatedClock
from repro.transport.delivery import ReliableChannel, RetryPolicy
from repro.faults import FaultPlan, FaultRule
from repro.transport.network import SimulatedNetwork
from repro.transport.scheduler import RetryScheduler, wait_all

#: Per-fan-out width: wide enough that nearly every run sees >= 1 drop at a
#: 10% drop rate, so the overlap axis measures retry waits, not luck.
ENTRIES_PER_RUN = 16
DROP_PROBABILITY = 0.10
SEED = b"bench-3"

POLICY = RetryPolicy(max_attempts=8, backoff_seconds=0.05, backoff_multiplier=2.0)


def lossy_network():
    clock = SimulatedClock()
    network = SimulatedNetwork(
        clock=clock,
        fault_plan=FaultPlan(
            rules=[FaultRule("drop", probability=DROP_PROBABILITY)], seed=SEED
        ),
    )
    for index in range(ENTRIES_PER_RUN):
        network.register(f"urn:dst{index}", lambda message: "ok")
    return clock, network


def run_entries(run):
    return [(f"urn:dst{i}", "op", {"run": run, "i": i}) for i in range(ENTRIES_PER_RUN)]


def blocking_elapsed(runs):
    """One worker servicing N delivery runs with blocking retries: waits sum."""
    clock, network = lossy_network()
    for run in range(runs):
        channel = ReliableChannel(network, f"urn:run{run}", POLICY)
        results = channel.send_batch(run_entries(run))
        assert all(result.delivered for result in results)
    return clock.now(), network.statistics

def scheduled_elapsed(runs):
    """One worker multiplexing N concurrent runs over the scheduler: waits overlap."""
    clock, network = lossy_network()
    network.set_retry_scheduler(RetryScheduler(clock))
    futures = []
    for run in range(runs):
        channel = ReliableChannel(network, f"urn:run{run}", POLICY)
        futures.extend(channel.send_batch_scheduled(run_entries(run)))
    wait_all(futures)
    assert all(future.outcome().delivered for future in futures)
    return clock.now(), network.statistics


@pytest.mark.parametrize("concurrent_runs", [1, 4])
def test_retry_wait_overlap(benchmark, concurrent_runs):
    """Simulated time to complete N lossy fan-outs: blocking vs scheduled."""

    def both_modes():
        blocking_time, blocking_stats = blocking_elapsed(concurrent_runs)
        scheduled_time, scheduled_stats = scheduled_elapsed(concurrent_runs)
        return blocking_time, scheduled_time, blocking_stats, scheduled_stats

    blocking_time, scheduled_time, blocking_stats, scheduled_stats = benchmark(
        both_modes
    )
    overlap = blocking_time / scheduled_time if scheduled_time else 1.0
    benchmark.extra_info["concurrent_runs"] = concurrent_runs
    benchmark.extra_info["drop_probability"] = DROP_PROBABILITY
    benchmark.extra_info["entries_per_run"] = ENTRIES_PER_RUN
    benchmark.extra_info["blocking_backoff_seconds"] = round(blocking_time, 3)
    benchmark.extra_info["scheduled_backoff_seconds"] = round(scheduled_time, 3)
    benchmark.extra_info["retry_wait_overlap"] = round(overlap, 2)
    benchmark.extra_info["retries_blocking"] = sum(
        blocking_stats.failed_attempts_per_destination().values()
    )
    benchmark.extra_info["retries_scheduled"] = sum(
        scheduled_stats.failed_attempts_per_destination().values()
    )
    # Interleaved runs draw the fault model in a different order, so per-
    # destination *attempts* may differ between modes -- but every entry is
    # delivered exactly once either way.
    assert (
        blocking_stats.deliveries_per_destination
        == scheduled_stats.deliveries_per_destination
    )
    if concurrent_runs >= 4:
        assert overlap >= 2.0, (
            f"expected >=2x retry-wait overlap at {concurrent_runs} runs, "
            f"got {overlap:.2f}"
        )


def test_scheduled_mode_zero_drop_parity(benchmark):
    """Scheduled mode on a healthy network must cost what blocking mode costs.

    Measures the scheduled path end-to-end at zero drops (every future
    completes inline on the first attempt); ``timers_scheduled == 0``
    verifies the event-driven engine stays entirely off the happy path.
    """
    clock = SimulatedClock()
    network = SimulatedNetwork(clock=clock)
    network.set_retry_scheduler(RetryScheduler(clock))
    for index in range(ENTRIES_PER_RUN):
        network.register(f"urn:dst{index}", lambda message: "ok")
    channel = ReliableChannel(network, "urn:src", POLICY)

    def healthy_fanout():
        futures = channel.send_batch_scheduled(run_entries(0))
        wait_all(futures)
        return futures

    futures = benchmark(healthy_fanout)
    assert all(future.outcome().delivered for future in futures)
    assert network.retry_scheduler.timers_scheduled == 0
    benchmark.extra_info["entries_per_run"] = ENTRIES_PER_RUN
