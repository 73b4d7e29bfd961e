"""P3 -- communication overhead of the non-repudiation protocols.

Paper Section 6 names "the communication overhead of additional messages to
execute protocols" as a cost dimension.  These benchmarks count protocol
messages and bytes on the simulated network for each interaction type and
deployment style, producing the rows a communication-cost table would carry.
"""

import pytest

from repro import DeploymentStyle

from benchmarks.conftest import CallCounter, build_domain


def measure_messages(domain, action, repetitions=3):
    """Run ``action`` ``repetitions`` times and return per-run message/byte counts."""
    before = domain.network.statistics.snapshot()
    for _ in range(repetitions):
        action()
    delta = domain.network.statistics.delta(before)
    return delta.messages_sent / repetitions, delta.bytes_delivered / repetitions


def test_plain_vs_nr_invocation_message_counts(benchmark):
    """Row: plain invocation = 1 message, NR invocation = 3 messages."""
    domain = build_domain(2)
    client = domain.organisation("urn:bench:party0")
    provider = domain.organisation("urn:bench:party1")
    plain = client.plain_proxy(provider, "PlainQuoteService")
    non_repudiable = client.nr_proxy(provider, "QuoteService")

    plain_messages, plain_bytes = measure_messages(domain, lambda: plain.quote("axle"))
    nr_messages, nr_bytes = measure_messages(domain, lambda: non_repudiable.quote("axle"))

    def measured_pair():
        plain.quote("axle")
        non_repudiable.quote("axle")

    benchmark(measured_pair)
    benchmark.extra_info["plain_messages"] = plain_messages
    benchmark.extra_info["nr_messages"] = nr_messages
    benchmark.extra_info["plain_bytes"] = round(plain_bytes)
    benchmark.extra_info["nr_bytes"] = round(nr_bytes)
    benchmark.extra_info["message_overhead_factor"] = round(nr_messages / plain_messages, 2)


@pytest.mark.parametrize("parties", [2, 3, 5, 8])
def test_sharing_message_counts_vs_group_size(benchmark, parties):
    """Row: messages per agreed update = 2*(N-1) requests + (N-1) outcomes."""
    domain = build_domain(parties, deploy_service=False)
    domain.share_object("bench-doc", {"v": 0})
    proposer = domain.organisation("urn:bench:party0")
    counter = {"n": 0}

    def propose():
        counter["n"] += 1
        assert proposer.propose_update("bench-doc", {"v": counter["n"]}).agreed

    messages, data_bytes = measure_messages(domain, propose)
    benchmark(propose)
    benchmark.extra_info["parties"] = parties
    benchmark.extra_info["messages_per_update"] = messages
    benchmark.extra_info["bytes_per_update"] = round(data_bytes)
    benchmark.extra_info["expected_messages"] = 2 * (parties - 1)


@pytest.mark.parametrize(
    "style",
    [DeploymentStyle.DIRECT, DeploymentStyle.INLINE_TTP, DeploymentStyle.DISTRIBUTED_TTP],
    ids=lambda s: s.value,
)
def test_invocation_message_counts_per_style(benchmark, style):
    """Row: NR invocation messages per deployment style (3 / 6 / 9 hops)."""
    domain = build_domain(2, style=style)
    client = domain.organisation("urn:bench:party0")
    provider = domain.organisation("urn:bench:party1")
    proxy = client.nr_proxy(provider, "QuoteService")

    messages, data_bytes = measure_messages(domain, lambda: proxy.quote("axle"))
    benchmark(lambda: proxy.quote("axle"))
    benchmark.extra_info["style"] = style.value
    benchmark.extra_info["messages_per_call"] = messages
    benchmark.extra_info["bytes_per_call"] = round(data_bytes)


def test_retry_overhead_on_lossy_network(benchmark):
    """Extra send attempts needed per completed invocation on a lossy link."""
    from repro.faults import FaultPlan, FaultRule

    domain = build_domain(
        2,
        fault_plan=FaultPlan(
            rules=[FaultRule("drop", probability=0.4)],
            seed=b"bench-lossy",
            max_consecutive_failures=4,
        ),
    )
    client = domain.organisation("urn:bench:party0")
    provider = domain.organisation("urn:bench:party1")
    proxy = client.nr_proxy(provider, "QuoteService")

    counted = CallCounter(lambda: proxy.quote("axle"))
    before = domain.network.statistics.snapshot()
    benchmark(counted)
    delta = domain.network.statistics.delta(before)
    benchmark.extra_info["attempts_per_call"] = round(delta.messages_sent / counted.calls, 2)
    benchmark.extra_info["drops_per_call"] = round(delta.messages_dropped / counted.calls, 2)
    benchmark.extra_info["delivered_per_call"] = round(
        delta.messages_delivered / counted.calls, 2
    )
