"""P5 -- the parallel protocol engine.

Three measurements, one per layer of the engine:

* ``test_update_vs_group_size_parallel`` re-runs the F5 group-size workload
  with :class:`ParallelDispatch` on the standard zero-latency virtual-clock
  network.  Its point is *equivalence*: ``messages_per_update`` and
  ``bytes_per_update`` must match the sequential numbers (and BENCH_1)
  exactly -- the dispatch strategy changes scheduling, never traffic.
* ``test_fanout_latency_overlap`` gives every link a real (wall-clock)
  latency and measures one agreed 8-party update under parallel dispatch,
  with the sequential cost of the identical workload measured inline.  The
  recorded ``speedup_vs_sequential`` is the client-observed win from running
  peer validations concurrently: one slowest-peer round trip instead of the
  sum.
* ``test_dsa_sign_nonce_pool`` measures online DSA signing latency when the
  message-independent ``(k, k^-1, r)`` work is precomputed by the nonce
  pool, against the inline deterministic-nonce path.
"""

import hashlib
import time

import pytest

from repro import TrustDomain
from repro.faults import FaultPlan, FaultRule
from repro.clock import SystemClock
from repro.crypto import dsa
from repro.transport.network import ParallelDispatch, SequentialDispatch

from benchmarks.conftest import CallCounter

#: Wall-clock one-way link latency for the overlap benchmark; a modest LAN/
#: metro figure so the benchmark stays fast while latency still dominates.
LINK_LATENCY_SECONDS = 0.001


def sharing_domain(parties, dispatch, latency=0.0):
    """F5-style sharing domain, optionally over real-latency links."""
    uris = [f"urn:bench:party{i}" for i in range(parties)]
    kwargs = {"dispatch": dispatch}
    if latency:
        kwargs["fault_plan"] = FaultPlan(
            rules=[FaultRule("delay", latency_seconds=latency)]
        )
        kwargs["clock"] = SystemClock()
    domain = TrustDomain.create(uris, **kwargs)
    domain.share_object("bench-doc", {"counter": 0, "payload": {}})
    return domain


def propose_loop(domain, counter):
    proposer = domain.organisation("urn:bench:party0")

    def propose():
        counter["n"] += 1
        outcome = proposer.propose_update(
            "bench-doc", {"counter": counter["n"], "payload": {"data": "x" * 100}}
        )
        assert outcome.agreed
        return outcome

    return propose


@pytest.mark.parametrize("parties", [5, 8])
def test_update_vs_group_size_parallel(benchmark, parties):
    """F5 group-size workload under parallel dispatch: traffic must not change."""
    domain = sharing_domain(parties, ParallelDispatch())
    counted = CallCounter(propose_loop(domain, {"n": 0}))
    before = domain.network.statistics.snapshot()
    benchmark(counted)
    delta = domain.network.statistics.delta(before)
    benchmark.extra_info["parties"] = parties
    benchmark.extra_info["dispatch"] = "parallel"
    benchmark.extra_info["messages_per_update"] = round(
        delta.messages_sent / counted.calls, 2
    )
    benchmark.extra_info["bytes_per_update"] = round(
        delta.bytes_delivered / counted.calls
    )


@pytest.mark.parametrize("parties", [8])
def test_fanout_latency_overlap(benchmark, parties):
    """One agreed update over real-latency links, parallel vs sequential."""
    sequential_domain = sharing_domain(
        parties, SequentialDispatch(), latency=LINK_LATENCY_SECONDS
    )
    sequential_propose = propose_loop(sequential_domain, {"n": 0})
    sequential_before = sequential_domain.network.statistics.snapshot()
    sequential_propose()  # warm caches before timing
    rounds = 10
    start = time.perf_counter()
    for _ in range(rounds):
        sequential_propose()
    sequential_mean = (time.perf_counter() - start) / rounds
    sequential_delta = sequential_domain.network.statistics.delta(sequential_before)
    sequential_messages = round(
        sequential_delta.messages_sent / (rounds + 1), 2
    )

    parallel_domain = sharing_domain(
        parties, ParallelDispatch(), latency=LINK_LATENCY_SECONDS
    )
    counted = CallCounter(propose_loop(parallel_domain, {"n": 0}))
    before = parallel_domain.network.statistics.snapshot()
    benchmark(counted)
    delta = parallel_domain.network.statistics.delta(before)

    parallel_mean = benchmark.stats.stats.mean
    benchmark.extra_info["parties"] = parties
    benchmark.extra_info["link_latency_seconds"] = LINK_LATENCY_SECONDS
    benchmark.extra_info["messages_per_update"] = round(
        delta.messages_sent / counted.calls, 2
    )
    benchmark.extra_info["messages_per_update_sequential"] = sequential_messages
    benchmark.extra_info["sequential_mean_seconds"] = sequential_mean
    benchmark.extra_info["speedup_vs_sequential"] = round(
        sequential_mean / parallel_mean, 2
    )


def test_dsa_sign_nonce_pool(benchmark):
    """Online DSA signing latency with precomputed nonces vs inline signing."""
    scheme = dsa.DSAScheme()
    keypair = scheme.generate_keypair()
    digest = hashlib.sha256(b"nonce-pool-benchmark").digest()

    inline_rounds = 100
    start = time.perf_counter()
    for _ in range(inline_rounds):
        scheme.sign_digest(keypair.private, digest)
    inline_mean = (time.perf_counter() - start) / inline_rounds

    rounds = 150
    dsa.enable_nonce_pools(capacity=2 * rounds, background=False)
    try:
        pool = dsa.nonce_pool_for(
            keypair.private.params["p"],
            keypair.private.params["q"],
            keypair.private.params["g"],
        )
        # Fill once, off the measured path: every measured sign then takes
        # the two-multiplication online route (misses asserted below).
        pool.precompute(pool.capacity)

        def sign():
            return scheme.sign_digest(keypair.private, digest)

        benchmark.pedantic(sign, rounds=rounds, iterations=1, warmup_rounds=5)
        pooled_mean = benchmark.stats.stats.mean
        benchmark.extra_info["inline_mean_seconds"] = inline_mean
        benchmark.extra_info["speedup_vs_inline"] = round(inline_mean / pooled_mean, 2)
        benchmark.extra_info["pool_misses"] = pool.stats()["misses"]
        assert pool.stats()["misses"] == 0
    finally:
        dsa.disable_nonce_pools()
