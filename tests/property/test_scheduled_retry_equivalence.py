"""Equivalence of blocking and event-driven (scheduled) retry modes.

The scheduler must be a pure execution-strategy change: what is delivered,
what is retried, what every statistics counter reads and what state every
replica converges to are all mode-independent.  Single-threaded workloads
are compared for *exact* equality -- including under a seeded lossy fault
model, because the scheduled batch state machine groups retry waves exactly
like the blocking loop, so the fault model's RNG draws happen in the same
order in both modes.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import TrustDomain
from repro.faults import FaultPlan, FaultRule
from repro.transport.delivery import ReliableChannel, RetryPolicy
from repro.transport.network import SimulatedNetwork
from repro.transport.scheduler import RetryScheduler

_SETTINGS = settings(
    max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

_POLICY = RetryPolicy(max_attempts=6, backoff_seconds=0.05, backoff_multiplier=2.0)


def _drop_plan(drop, seed):
    return FaultPlan(
        rules=[FaultRule("drop", probability=drop)],
        seed=seed,
        max_consecutive_failures=3,
    )


def _transport_run(scheduled, seed, drop, entries):
    network = SimulatedNetwork(fault_plan=_drop_plan(drop, seed))
    if scheduled:
        network.set_retry_scheduler(RetryScheduler(network.clock))
    destinations = sorted({destination for destination, _ in entries})
    for destination in destinations:
        network.register(destination, lambda message: {"echo": message.payload})
    channel = ReliableChannel(network, "urn:src", _POLICY)
    outcomes = channel.send_batch(
        [(destination, "op", payload) for destination, payload in entries]
    )
    summary = [
        (outcome.result, type(outcome.error).__name__ if outcome.error else None)
        for outcome in outcomes
    ]
    return (
        summary,
        network.statistics,
        channel.attempts_made,
        channel.retries_made,
    )


class TestTransportEquivalence:
    @_SETTINGS
    @given(
        seed=st.binary(min_size=1, max_size=8),
        drop=st.sampled_from([0.0, 0.1, 0.3]),
        payloads=st.lists(
            st.integers(min_value=0, max_value=1000), min_size=1, max_size=12
        ),
    )
    def test_batch_results_and_statistics_identical(self, seed, drop, payloads):
        entries = [
            (f"urn:dst{index % 4}", {"n": payload})
            for index, payload in enumerate(payloads)
        ]
        blocking = _transport_run(False, seed, drop, entries)
        scheduled = _transport_run(True, seed, drop, entries)
        assert blocking[0] == scheduled[0]  # per-entry outcomes
        assert blocking[1] == scheduled[1]  # full NetworkStatistics dataclass
        assert blocking[2:] == scheduled[2:]  # channel retry accounting

    @_SETTINGS
    @given(seed=st.binary(min_size=1, max_size=8))
    def test_retry_effort_counters_match_between_modes(self, seed):
        entries = [(f"urn:dst{index % 3}", {"n": index}) for index in range(9)]
        _, blocking_stats, _, _ = _transport_run(False, seed, 0.3, entries)
        _, scheduled_stats, _, _ = _transport_run(True, seed, 0.3, entries)
        assert (
            blocking_stats.attempts_per_destination
            == scheduled_stats.attempts_per_destination
        )
        assert (
            blocking_stats.deliveries_per_destination
            == scheduled_stats.deliveries_per_destination
        )
        assert (
            blocking_stats.failed_attempts_per_destination()
            == scheduled_stats.failed_attempts_per_destination()
        )


def _protocol_run(scheduled, drop, seed, updates):
    domain = TrustDomain.create(
        [f"urn:org:p{i}" for i in range(4)],
        scheme="hmac",
        fault_plan=_drop_plan(drop, seed),
        scheduled_retries=scheduled,
    )
    domain.share_object("doc", {"v": 0})
    proposer = domain.organisation("urn:org:p0")
    for value in updates:
        outcome = proposer.propose_update("doc", {"v": value})
        assert outcome.agreed, outcome.reason
    digests = [
        domain.organisation(uri).controller.state_digest("doc")
        for uri in domain.party_uris()
    ]
    versions = [
        domain.organisation(uri).shared_version("doc") for uri in domain.party_uris()
    ]
    return domain.network.statistics, digests, versions


class TestProtocolEquivalence:
    def test_zero_drop_statistics_and_state_identical(self):
        blocking = _protocol_run(False, 0.0, b"none", list(range(1, 6)))
        scheduled = _protocol_run(True, 0.0, b"none", list(range(1, 6)))
        assert blocking == scheduled

    def test_lossy_link_statistics_and_state_identical(self):
        # Single proposer thread: retry waves group identically in both
        # modes, so even the fault-model RNG draws line up exactly.
        blocking = _protocol_run(False, 0.1, b"lossy-equiv", list(range(1, 9)))
        scheduled = _protocol_run(True, 0.1, b"lossy-equiv", list(range(1, 9)))
        assert blocking == scheduled
        stats = blocking[0]
        assert stats.messages_dropped > 0  # the fault model actually fired
        assert stats.failed_attempts_per_destination() != {}

    @_SETTINGS
    @given(
        updates=st.lists(
            st.integers(min_value=1, max_value=50),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    def test_equivalence_over_update_sequences(self, updates):
        blocking = _protocol_run(False, 0.1, b"prop-equiv", updates)
        scheduled = _protocol_run(True, 0.1, b"prop-equiv", updates)
        assert blocking == scheduled
