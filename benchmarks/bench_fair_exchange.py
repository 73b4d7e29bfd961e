"""P4 -- direct (TTP-free) operation vs TTP-supported recovery.

Section 4 of the paper notes that the direct implementations trade liveness
guarantees against TTP involvement, and that the framework can introduce a
TTP to execute fault-tolerant fair-exchange protocols.  These benchmarks
measure: the steady-state cost of running with an (unused) offline
arbitrator, the cost of a resolve/abort recovery when it is needed, and the
liveness cost (retries, simulated time) of direct operation under increasing
message loss -- the trade-off the paper describes qualitatively.
"""

import pytest

from repro import ComponentDescriptor, TrustDomain
from repro.faults import FaultPlan, FaultRule
from repro.core.fair_exchange import FairExchangeClient

from benchmarks.conftest import CallCounter, QuoteService


def arbitrated_domain(**kwargs):
    domain = TrustDomain.create(
        ["urn:bench:client", "urn:bench:provider"], with_arbitrator=True, **kwargs
    )
    provider = domain.organisation("urn:bench:provider")
    provider.deploy(
        QuoteService(), ComponentDescriptor(name="QuoteService", non_repudiation=True)
    )
    return domain


def test_optimistic_path_with_idle_arbitrator(benchmark):
    """Normal-case cost when an offline arbitrator exists but is never used."""
    domain = arbitrated_domain()
    client = domain.organisation("urn:bench:client")
    provider = domain.organisation("urn:bench:provider")
    proxy = client.nr_proxy(provider, "QuoteService")
    result = benchmark(proxy.quote, "axle")
    assert result["price"] == 100
    # The arbitrator never saw any traffic.
    arbitrator_host = domain.ttps["urn:ttp:arbitrator"]
    benchmark.extra_info["arbitrator_evidence_records"] = (
        arbitrator_host.evidence_store.total_records()
    )


def test_resolution_cost(benchmark):
    """Cost of a server-side resolve (missing receipt) at the arbitrator."""
    domain = arbitrated_domain()
    client = domain.organisation("urn:bench:client")
    provider = domain.organisation("urn:bench:provider")
    exchange = FairExchangeClient(
        provider.uri, provider.coordinator, domain.arbitrator_uri
    )

    def invoke_and_resolve():
        outcome = client.invoke_non_repudiably(
            provider.uri, "QuoteService", "quote", ["axle"]
        )
        affidavit = exchange.request_resolution(outcome.run_id)
        assert affidavit.issuer == domain.arbitrator_uri

    benchmark(invoke_and_resolve)


def test_abort_cost(benchmark):
    """Cost of a client-side abort at the arbitrator."""
    domain = arbitrated_domain()
    client = domain.organisation("urn:bench:client")
    provider = domain.organisation("urn:bench:provider")
    exchange = FairExchangeClient(client.uri, client.coordinator, domain.arbitrator_uri)
    counter = {"n": 0}

    def abort_a_fresh_run():
        counter["n"] += 1
        run_id = f"bench-abandoned-run-{counter['n']}"
        token = exchange.request_abort(run_id)
        assert token.issuer == domain.arbitrator_uri

    benchmark(abort_a_fresh_run)


@pytest.mark.parametrize("drop_probability", [0.0, 0.3, 0.6])
def test_direct_liveness_cost_under_loss(benchmark, drop_probability):
    """Liveness cost of TTP-free operation as message loss grows.

    The direct deployment keeps working (bounded failures + retries) but pays
    for it in send attempts and simulated retry/backoff time -- the trade-off
    against involving a TTP that Section 3.1 discusses.
    """
    domain = TrustDomain.create(
        ["urn:bench:client", "urn:bench:provider"],
        fault_plan=FaultPlan(
            rules=[FaultRule("drop", probability=drop_probability)],
            seed=b"bench-p4",
            max_consecutive_failures=4,
        ),
    )
    provider = domain.organisation("urn:bench:provider")
    provider.deploy(
        QuoteService(), ComponentDescriptor(name="QuoteService", non_repudiation=True)
    )
    client = domain.organisation("urn:bench:client")
    proxy = client.nr_proxy(provider, "QuoteService")

    counted = CallCounter(proxy.quote)
    before = domain.network.statistics.snapshot()
    simulated_start = domain.network.clock.now()
    result = benchmark(counted, "axle")
    assert result["price"] == 100
    delta = domain.network.statistics.delta(before)
    benchmark.extra_info["drop_probability"] = drop_probability
    benchmark.extra_info["attempts_per_call"] = round(delta.messages_sent / counted.calls, 2)
    benchmark.extra_info["simulated_seconds_per_call"] = round(
        (domain.network.clock.now() - simulated_start) / counted.calls, 4
    )
