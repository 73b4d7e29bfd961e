"""P8 -- run-multiplexing async protocol engine: many runs, few workers.

PR 3 made delivery *retries* event-driven; a protocol run itself still
occupied one thread from first proposal to final outcome, so run concurrency
was capped at thread count.  The continuation engine
(``propose_update_async`` -> ``RunFuture``) frees the thread between phases:
a run waiting on deliveries exists only as scheduler timers and completion
callbacks, so hundreds of concurrent runs multiplex over a small bounded
pool.

Two axes are measured on the simulated clock (deterministically seeded, so
CI can gate on counters without wall-clock noise):

* **Throughput under loss** -- 256 concurrent runs at a 10% drop rate,
  driven through the async engine on a shared executor bounded to 8
  workers, against the thread-per-run baseline of 8 blocking proposer
  threads working through the same 256 runs.  Blocking threads *sum* their
  retry backoffs into the virtual timeline; multiplexed runs overlap them,
  so simulated time-to-completion collapses.  Acceptance: >= 3x throughput.
* **Protocol cost parity** -- at zero drop the async engine must cost
  exactly what the blocking engine costs: ``messages_per_update`` /
  ``bytes_per_update`` are recorded for the regression gate and asserted
  equal between engines in-bench.
"""

import threading

import pytest

from repro import TrustDomain, parallel
from repro.faults import FaultPlan, FaultRule

from benchmarks.conftest import CallCounter

PARTIES = 4
CONCURRENT_RUNS = 256
POOL_WORKERS = 8
BLOCKING_THREADS = 8
DROP_PROBABILITY = 0.10
SEED = b"bench-4"


def build_domain(async_runs, drop, objects):
    domain = TrustDomain.create(
        [f"urn:bench:p{i}" for i in range(PARTIES)],
        scheme="hmac",
        fault_plan=(
            FaultPlan(rules=[FaultRule("drop", probability=drop)], seed=SEED)
            if drop
            else None
        ),
        scheduled_retries=async_runs,
        async_runs=async_runs,
    )
    for index in range(objects):
        domain.share_object(f"obj-{index}", {"v": 0})
    return domain


def blocking_thread_per_run():
    """8 blocking proposer threads work through 256 runs; backoffs sum."""
    domain = build_domain(async_runs=False, drop=DROP_PROBABILITY, objects=CONCURRENT_RUNS)
    proposer = domain.organisation("urn:bench:p0")
    started = domain.network.clock.now()
    pending = list(range(CONCURRENT_RUNS))
    lock = threading.Lock()

    def worker():
        while True:
            with lock:
                if not pending:
                    return
                index = pending.pop()
            outcome = proposer.propose_update(f"obj-{index}", {"v": 1})
            assert outcome.agreed, outcome.reason

    threads = [threading.Thread(target=worker) for _ in range(BLOCKING_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return domain.network.clock.now() - started, domain.network.statistics


def async_multiplexed():
    """256 async runs multiplex over a <= 8-worker pool; backoffs overlap."""
    parallel.set_max_workers(POOL_WORKERS)
    try:
        domain = build_domain(
            async_runs=True, drop=DROP_PROBABILITY, objects=CONCURRENT_RUNS
        )
        proposer = domain.organisation("urn:bench:p0")
        started = domain.network.clock.now()
        futures = [
            proposer.propose_update_async(f"obj-{index}", {"v": 1})
            for index in range(CONCURRENT_RUNS)
        ]
        outcomes = [future.result(timeout=600) for future in futures]
        elapsed = domain.network.clock.now() - started
        assert all(outcome.agreed for outcome in outcomes)
        assert domain.retry_scheduler.pending_timers() == 0
        return elapsed, domain.network.statistics
    finally:
        parallel.set_max_workers(None)


def test_concurrent_run_throughput(benchmark):
    """Simulated time for 256 lossy runs: 8 blocking threads vs 8-worker pool."""

    def both_modes():
        blocking_elapsed, blocking_stats = blocking_thread_per_run()
        async_elapsed, async_stats = async_multiplexed()
        return blocking_elapsed, async_elapsed, blocking_stats, async_stats

    blocking_elapsed, async_elapsed, blocking_stats, async_stats = benchmark.pedantic(
        both_modes, rounds=1, iterations=1
    )
    ratio = blocking_elapsed / async_elapsed if async_elapsed else float("inf")
    benchmark.extra_info["concurrent_runs"] = CONCURRENT_RUNS
    benchmark.extra_info["pool_workers"] = POOL_WORKERS
    benchmark.extra_info["blocking_threads"] = BLOCKING_THREADS
    benchmark.extra_info["drop_probability"] = DROP_PROBABILITY
    benchmark.extra_info["parties"] = PARTIES
    benchmark.extra_info["blocking_simulated_seconds"] = round(blocking_elapsed, 3)
    benchmark.extra_info["async_simulated_seconds"] = round(async_elapsed, 3)
    benchmark.extra_info["async_throughput_ratio"] = round(ratio, 2)
    benchmark.extra_info["runs_per_simulated_second_async"] = round(
        CONCURRENT_RUNS / async_elapsed, 2
    )
    # Every run delivered its proposal and outcome in both modes; interleaved
    # retries draw the fault model in a different order, so *attempts* may
    # differ, but deliveries per destination must not.
    assert (
        blocking_stats.deliveries_per_destination
        == async_stats.deliveries_per_destination
    )
    assert ratio >= 3.0, (
        f"expected >=3x throughput from run multiplexing at {CONCURRENT_RUNS} "
        f"runs on {POOL_WORKERS} workers, got {ratio:.2f}x"
    )


@pytest.mark.parametrize("parties", [4])
def test_async_run_protocol_cost(benchmark, parties):
    """Zero-drop protocol cost of an async-engine update (gated counters).

    The continuation engine must not change what the protocol *sends*:
    messages/bytes per update are compared against the blocking engine on an
    identical domain and recorded for the CI regression gate.
    """
    async_domain = build_domain(async_runs=True, drop=0.0, objects=1)
    blocking_domain = build_domain(async_runs=False, drop=0.0, objects=1)
    proposers = {
        "async": async_domain.organisation("urn:bench:p0"),
        "blocking": blocking_domain.organisation("urn:bench:p0"),
    }
    counter = {"n": 0}

    def propose_async_engine():
        counter["n"] += 1
        payload = {"counter": counter["n"], "payload": {"data": "x" * 100}}
        outcome = proposers["async"].propose_update_async("obj-0", payload).result(
            timeout=120
        )
        assert outcome.agreed
        return outcome

    counted = CallCounter(propose_async_engine)
    before = async_domain.network.statistics.snapshot()
    benchmark(counted)
    delta = async_domain.network.statistics.delta(before)

    # Blocking reference: the same number of updates on the twin domain.
    blocking_before = blocking_domain.network.statistics.snapshot()
    for n in range(1, counted.calls + 1):
        outcome = proposers["blocking"].propose_update(
            "obj-0", {"counter": n, "payload": {"data": "x" * 100}}
        )
        assert outcome.agreed
    blocking_delta = blocking_domain.network.statistics.delta(blocking_before)

    messages_per_update = delta.messages_sent / counted.calls
    bytes_per_update = delta.bytes_delivered / counted.calls
    assert messages_per_update == blocking_delta.messages_sent / counted.calls
    assert bytes_per_update == blocking_delta.bytes_delivered / counted.calls
    benchmark.extra_info["parties"] = parties
    benchmark.extra_info["engine"] = "async"
    benchmark.extra_info["messages_per_update"] = round(messages_per_update, 2)
    benchmark.extra_info["bytes_per_update"] = round(bytes_per_update)
