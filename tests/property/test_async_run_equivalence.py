"""Equivalence of blocking and continuation-driven (async) protocol runs.

The async engine must be a pure execution-strategy change, exactly like
PR 3's retry scheduler: for the same seeded workload, driving a coordination
round inline on the calling thread (``propose_update`` with ``async_runs``
off) and chaining it through continuations (``propose_update_async`` /
``async_runs`` on) must produce identical network statistics, identical
evidence holdings and identical replica state -- at zero drop and under a
seeded lossy fault model.

Run ids are drawn from a process-global RNG, so cross-domain comparisons use
run-id-independent projections: full :class:`NetworkStatistics` equality,
state digests/versions per party, and the multiset of (token_type, role)
evidence records per party.
"""

from collections import Counter

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import TrustDomain
from repro.faults import FaultPlan, FaultRule

_SETTINGS = settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

PARTIES = 4


def _evidence_projection(domain):
    """Run-id-independent view of every party's evidence store."""
    projection = {}
    for uri in domain.party_uris():
        store = domain.organisation(uri).evidence_store
        records = Counter()
        for run_id in store.run_ids():
            for record in store.evidence_for_run(run_id):
                records[(record.token_type, record.role)] += 1
        projection[uri] = records
    return projection


def _replica_projection(domain):
    # A disconnected member drops its replica, so project only the parties
    # still sharing (which set must itself agree across engine modes).
    return {
        uri: (
            domain.organisation(uri).controller.state_digest("doc").hex(),
            domain.organisation(uri).shared_version("doc"),
        )
        for uri in domain.party_uris()
        if domain.organisation(uri).controller.is_shared("doc")
    }


def _run_workload(mode, drop, seed, updates, membership_change=False):
    """Drive one seeded workload in the requested engine mode.

    ``mode``: "blocking" (inline driver), "optin" (async_runs=True, blocking
    API wraps the continuation engine) or "explicit" (propose_update_async +
    deferred result).
    """
    domain = TrustDomain.create(
        [f"urn:org:p{i}" for i in range(PARTIES)],
        scheme="hmac",
        fault_plan=FaultPlan(
            rules=[FaultRule("drop", probability=drop)],
            seed=seed,
            max_consecutive_failures=3,
        ),
        scheduled_retries=True,
        async_runs=(mode == "optin"),
    )
    domain.share_object("doc", {"v": 0})
    proposer = domain.organisation("urn:org:p0")
    for value in updates:
        if mode == "explicit":
            outcome = proposer.propose_update_async("doc", {"v": value}).result(
                timeout=120
            )
        else:
            outcome = proposer.propose_update("doc", {"v": value})
        assert outcome.agreed, outcome.reason
    if membership_change:
        outcome = proposer.controller.disconnect_member(
            "doc", f"urn:org:p{PARTIES - 1}"
        )
        assert outcome.agreed
    assert domain.retry_scheduler.pending_timers() == 0
    return (
        domain.network.statistics,
        _replica_projection(domain),
        _evidence_projection(domain),
    )


class TestAsyncBlockingEquivalence:
    def test_zero_drop_stats_evidence_and_state_identical(self):
        updates = list(range(1, 6))
        blocking = _run_workload("blocking", 0.0, b"none", updates)
        optin = _run_workload("optin", 0.0, b"none", updates)
        explicit = _run_workload("explicit", 0.0, b"none", updates)
        assert blocking == optin == explicit

    def test_seeded_lossy_stats_evidence_and_state_identical(self):
        updates = list(range(1, 9))
        blocking = _run_workload("blocking", 0.1, b"lossy-async", updates)
        optin = _run_workload("optin", 0.1, b"lossy-async", updates)
        explicit = _run_workload("explicit", 0.1, b"lossy-async", updates)
        assert blocking == optin == explicit
        stats = blocking[0]
        assert stats.messages_dropped > 0  # the fault model actually fired
        assert stats.failed_attempts_per_destination() != {}

    def test_membership_round_equivalent_across_engines(self):
        blocking = _run_workload(
            "blocking", 0.1, b"member-async", [1, 2], membership_change=True
        )
        optin = _run_workload(
            "optin", 0.1, b"member-async", [1, 2], membership_change=True
        )
        assert blocking == optin

    @_SETTINGS
    @given(
        seed=st.binary(min_size=1, max_size=8),
        drop=st.sampled_from([0.0, 0.1]),
        updates=st.lists(
            st.integers(min_value=1, max_value=50),
            min_size=1,
            max_size=4,
            unique=True,
        ),
    )
    def test_equivalence_over_seeded_update_sequences(self, seed, drop, updates):
        blocking = _run_workload("blocking", drop, seed, updates)
        optin = _run_workload("optin", drop, seed, updates)
        assert blocking == optin


DEADLINE_PLAN = FaultPlan(
    rules=[FaultRule("drop", probability=0.1)], seed=b"deadline-equiv"
)


class TestDeadlinedRunsStayEquivalent:
    def test_generous_deadline_changes_nothing_but_timer_counters(self):
        """A deadline that never fires must not alter the protocol's cost."""
        domain_plain = TrustDomain.create(
            [f"urn:org:p{i}" for i in range(PARTIES)],
            scheme="hmac",
            fault_plan=DEADLINE_PLAN,
            scheduled_retries=True,
        )
        domain_deadline = TrustDomain.create(
            [f"urn:org:p{i}" for i in range(PARTIES)],
            scheme="hmac",
            fault_plan=DEADLINE_PLAN,
            scheduled_retries=True,
        )
        for domain in (domain_plain, domain_deadline):
            domain.share_object("doc", {"v": 0})
        for value in (1, 2, 3):
            plain = (
                domain_plain.organisation("urn:org:p0")
                .propose_update_async("doc", {"v": value})
                .result(timeout=120)
            )
            deadlined = (
                domain_deadline.organisation("urn:org:p0")
                .propose_update_async("doc", {"v": value}, deadline=10_000.0)
                .result(timeout=120)
            )
            assert plain.agreed and deadlined.agreed
        assert (
            domain_plain.network.statistics == domain_deadline.network.statistics
        )
        assert _replica_projection(domain_plain) == _replica_projection(
            domain_deadline
        )
        assert domain_deadline.retry_scheduler.pending_timers() == 0
