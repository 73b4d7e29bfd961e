"""F3 -- cost of the three trust-domain deployment styles (Figure 3).

The same interaction (one NR invocation plus one agreed shared-state update)
is executed over the direct, inline-TTP and distributed-inline-TTP
deployments.  The expected shape: the application outcome is identical, but
TTP-mediated styles pay extra network messages (every protocol message is
relayed), extra latency hops and extra evidence (TTP notarisation tokens).
"""

import pytest

from repro import DeploymentStyle
from repro.faults import FaultPlan, FaultRule

from benchmarks.conftest import CallCounter, build_domain

STYLES = [
    DeploymentStyle.DIRECT,
    DeploymentStyle.INLINE_TTP,
    DeploymentStyle.DISTRIBUTED_TTP,
]


def build(style, latency=0.0):
    fault_plan = (
        FaultPlan(rules=[FaultRule("delay", latency_seconds=latency)])
        if latency
        else None
    )
    domain = build_domain(2, style=style, fault_plan=fault_plan)
    domain.share_object("bench-doc", {"v": 0})
    return domain


@pytest.mark.parametrize("style", STYLES, ids=lambda s: s.value)
def test_invocation_per_style(benchmark, style):
    """End-to-end NR invocation cost per deployment style."""
    domain = build(style)
    client = domain.organisation("urn:bench:party0")
    provider = domain.organisation("urn:bench:party1")
    proxy = client.nr_proxy(provider, "QuoteService")

    counted = CallCounter(proxy.quote)
    before = domain.network.statistics.snapshot()
    result = benchmark(counted, "axle")
    assert result["price"] == 100
    delta = domain.network.statistics.delta(before)
    benchmark.extra_info["style"] = style.value
    benchmark.extra_info["messages_per_call"] = round(delta.messages_sent / counted.calls, 2)
    benchmark.extra_info["relayed_total"] = domain.total_relayed_messages()


@pytest.mark.parametrize("style", STYLES, ids=lambda s: s.value)
def test_sharing_per_style(benchmark, style):
    """Shared-state update cost per deployment style."""
    domain = build(style)
    proposer = domain.organisation("urn:bench:party0")
    counter = {"n": 0}

    def propose():
        counter["n"] += 1
        outcome = proposer.propose_update("bench-doc", {"v": counter["n"]})
        assert outcome.agreed

    counted = CallCounter(propose)
    before = domain.network.statistics.snapshot()
    benchmark(counted)
    delta = domain.network.statistics.delta(before)
    benchmark.extra_info["style"] = style.value
    benchmark.extra_info["messages_per_update"] = round(delta.messages_sent / counted.calls, 2)


@pytest.mark.parametrize("style", STYLES, ids=lambda s: s.value)
def test_simulated_latency_per_style(benchmark, style):
    """Simulated-time cost per style with a 5 ms one-way link latency.

    Wall-clock timing reflects computation only; the simulated clock captures
    the extra network hops the TTP deployments introduce.
    """
    latency = 0.005
    domain = build(style, latency=latency)
    client = domain.organisation("urn:bench:party0")
    provider = domain.organisation("urn:bench:party1")
    proxy = client.nr_proxy(provider, "QuoteService")

    counted = CallCounter(proxy.quote)
    start_time = domain.network.clock.now()
    result = benchmark(counted, "axle")
    assert result["price"] == 100
    elapsed = domain.network.clock.now() - start_time
    benchmark.extra_info["style"] = style.value
    benchmark.extra_info["simulated_seconds_per_call"] = round(elapsed / counted.calls, 4)
    benchmark.extra_info["latency_hops_per_call"] = round(elapsed / counted.calls / latency, 1)


@pytest.mark.parametrize("style", STYLES, ids=lambda s: s.value)
def test_ttp_evidence_accumulation(benchmark, style):
    """How much evidence the TTPs themselves accumulate per interaction."""
    domain = build(style)
    client = domain.organisation("urn:bench:party0")
    provider = domain.organisation("urn:bench:party1")
    proxy = client.nr_proxy(provider, "QuoteService")

    def interact():
        proxy.quote("axle")

    counted = CallCounter(interact)
    benchmark(counted)
    ttp_records = sum(ttp.evidence_store.total_records() for ttp in domain.ttps.values())
    benchmark.extra_info["style"] = style.value
    benchmark.extra_info["ttp_evidence_records_per_call"] = round(
        ttp_records / counted.calls, 2
    )
