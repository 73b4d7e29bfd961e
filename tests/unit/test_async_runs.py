"""Unit tests for the run-multiplexing async protocol engine.

Covers the :class:`repro.core.sharing.RunFuture` lifecycle (completion,
abort, deadline expiry), the timer hygiene of aborted runs (extending the
``ReliableChannel.close`` no-leak guarantee to whole protocol runs), the
membership-change expiry, and the scheduler-driven fair-exchange abort
deadline.
"""

import pytest

from repro import ComponentDescriptor, TokenType, TrustDomain
from repro.core.fair_exchange import FairExchangeClient
from repro.core.sharing import RunFuture
from repro.errors import CoordinationError, FairExchangeError, MembershipError
from repro.faults import FaultPlan, FaultRule
from tests.conftest import QuoteService


def make_domain(parties=3, **kwargs):
    uris = [f"urn:org:p{i}" for i in range(parties)]
    kwargs.setdefault("scheme", "hmac")
    domain = TrustDomain.create(uris, **kwargs)
    domain.share_object("doc", {"v": 0})
    return domain


class TestProposeUpdateAsync:
    def test_async_run_reaches_agreement_and_applies_everywhere(self):
        domain = make_domain(scheduled_retries=True)
        future = domain.organisation("urn:org:p0").propose_update_async("doc", {"v": 1})
        assert isinstance(future, RunFuture)
        outcome = future.result(timeout=30)
        assert outcome.agreed and outcome.new_version == 1
        assert future.done()
        for uri in domain.party_uris():
            assert domain.organisation(uri).shared_state("doc") == {"v": 1}
        assert domain.retry_scheduler.pending_timers() == 0

    def test_async_works_without_scheduler(self):
        # Fan-outs then execute eagerly; the future is resolved by the
        # continuation chain with no timers involved.
        domain = make_domain(scheduled_retries=False)
        outcome = (
            domain.organisation("urn:org:p0")
            .propose_update_async("doc", {"v": 5})
            .result(timeout=30)
        )
        assert outcome.agreed
        assert domain.organisation("urn:org:p2").shared_state("doc") == {"v": 5}

    def test_many_concurrent_runs_from_one_thread(self):
        domain = make_domain(
            parties=4,
            scheduled_retries=True,
            fault_plan=FaultPlan(
                rules=[FaultRule("drop", probability=0.15)], seed=b"async-unit"
            ),
        )
        for index in range(8):
            domain.share_object(f"obj-{index}", {"v": 0})
        proposer = domain.organisation("urn:org:p0")
        futures = [
            proposer.propose_update_async(f"obj-{index}", {"v": index + 1})
            for index in range(8)
        ]
        outcomes = [future.result(timeout=60) for future in futures]
        assert all(outcome.agreed for outcome in outcomes)
        for index in range(8):
            assert domain.organisation("urn:org:p3").shared_state(f"obj-{index}") == {
                "v": index + 1
            }
        assert domain.retry_scheduler.pending_timers() == 0

    def test_vetoed_async_run_reports_reason(self):
        from repro import CallableValidator

        domain = make_domain(scheduled_retries=True)
        domain.organisation("urn:org:p1").controller.add_validator(
            "doc", CallableValidator(lambda ctx: False, name="always-veto")
        )
        outcome = (
            domain.organisation("urn:org:p0")
            .propose_update_async("doc", {"v": 2})
            .result(timeout=30)
        )
        assert not outcome.agreed
        with pytest.raises(CoordinationError):
            outcome.require_agreed()

    def test_unknown_object_raises_synchronously(self):
        domain = make_domain(scheduled_retries=True)
        with pytest.raises(CoordinationError):
            domain.organisation("urn:org:p0").propose_update_async("nope", {})

    def test_deadline_requires_scheduler(self):
        domain = make_domain(scheduled_retries=False)
        with pytest.raises(CoordinationError, match="retry scheduler"):
            domain.organisation("urn:org:p0").propose_update_async(
                "doc", {"v": 1}, deadline=1.0
            )


class TestRunDeadlinesAndAbort:
    def partitioned_domain(self):
        domain = make_domain(scheduled_retries=True)
        for uri in domain.party_uris():
            if uri != "urn:org:p0":
                domain.network.partition.sever("urn:org:p0", uri)
        return domain

    def test_deadline_aborts_run_and_releases_timers(self):
        domain = self.partitioned_domain()
        future = domain.organisation("urn:org:p0").propose_update_async(
            "doc", {"v": 1}, deadline=0.5
        )
        outcome = future.result(timeout=30)
        assert not outcome.agreed
        assert "deadline" in outcome.reason
        # The abort withdrew the run's delivery retries and its own deadline
        # timer: nothing pending, for this run or at all.
        assert domain.retry_scheduler.pending_timers_for_run(future.run_id) == 0
        assert domain.retry_scheduler.pending_timers() == 0
        # The replica never applied anything.
        assert domain.organisation("urn:org:p0").shared_state("doc") == {"v": 0}
        audits = domain.organisation("urn:org:p0").audit_records(
            subject=future.run_id
        )
        assert any(r.details.get("event") == "update-aborted" for r in audits)

    def test_manual_abort_settles_future(self):
        domain = self.partitioned_domain()
        future = domain.organisation("urn:org:p0").propose_update_async("doc", {"v": 1})
        assert not future.done()
        assert future.abort("operator gave up") is True
        outcome = future.result(timeout=30)
        assert not outcome.agreed and "operator gave up" in outcome.reason
        assert domain.retry_scheduler.pending_timers() == 0
        # A settled run cannot be aborted twice.
        assert future.abort("again") is False

    def test_deadline_cancelled_on_normal_completion(self):
        domain = make_domain(scheduled_retries=True)
        future = domain.organisation("urn:org:p0").propose_update_async(
            "doc", {"v": 1}, deadline=60.0
        )
        outcome = future.result(timeout=30)
        assert outcome.agreed
        assert domain.retry_scheduler.pending_timers() == 0  # deadline withdrawn

    def test_completed_run_ignores_late_abort(self):
        domain = make_domain(scheduled_retries=True)
        future = domain.organisation("urn:org:p0").propose_update_async("doc", {"v": 1})
        outcome = future.result(timeout=30)
        assert outcome.agreed
        assert future.abort() is False
        assert future.result(timeout=1).agreed  # outcome unchanged


class TestCommitBarrier:
    """Aborts race the outcome fan-out; the commit barrier decides the winner."""

    def test_abort_refused_once_outcome_committed(self):
        from repro.core.sharing import _UpdateRun

        domain = make_domain(scheduled_retries=True)
        controller = domain.organisation("urn:org:p0").controller
        run = _UpdateRun(controller, "doc", {"v": 1})
        phase1 = controller.coordinator.request_all_async(run._phase1_messages())
        outcome_fan_out = run._commit_outcome(run._phase2_messages(phase1.results()))
        assert outcome_fan_out is not None
        # The collective decision is out at the peers: aborting now would
        # diverge the replicas, so it is refused and the run completes.
        assert run.abort("too late") is False
        run._after_phase2(outcome_fan_out)
        outcome = run.future.result(timeout=10)
        assert outcome.agreed
        for uri in domain.party_uris():
            assert domain.organisation(uri).shared_state("doc") == {"v": 1}

    def test_abort_before_commit_suppresses_outcome_fanout(self):
        from repro.core.sharing import _UpdateRun

        domain = make_domain(scheduled_retries=True)
        controller = domain.organisation("urn:org:p0").controller
        run = _UpdateRun(controller, "doc", {"v": 1})
        phase1 = controller.coordinator.request_all_async(run._phase1_messages())
        messages = run._phase2_messages(phase1.results())
        assert run.abort("changed my mind") is True
        before = domain.network.statistics.messages_sent
        assert run._commit_outcome(messages) is None  # nothing sent
        assert domain.network.statistics.messages_sent == before
        assert run.future.result(timeout=10).agreed is False
        # No peer applied anything: the outcome never left the proposer.
        for uri in domain.party_uris():
            assert domain.organisation(uri).shared_state("doc") == {"v": 0}
        # And the proposer's evidence trail agrees with the not-agreed
        # result: no generated NR_OUTCOME token exists for the dead run.
        store = domain.organisation("urn:org:p0").evidence_store
        assert store.tokens_of_type(run.run_id, TokenType.NR_OUTCOME.value) == []


class TestMembershipAsync:
    def test_connect_member_async(self):
        domain = make_domain(parties=4, scheduled_retries=True)
        members = domain.party_uris()[:3]
        newcomer = domain.party_uris()[3]
        for uri in members:
            domain.organisation(uri).share_object("grp", {"v": 0}, members)
        future = domain.organisation(members[0]).controller.connect_member_async(
            "grp", newcomer
        )
        outcome = future.result(timeout=30)
        assert outcome.agreed
        assert domain.organisation(newcomer).controller.is_shared("grp")
        assert domain.retry_scheduler.pending_timers() == 0

    def test_membership_expiry_aborts_pending_change(self):
        domain = make_domain(parties=3, scheduled_retries=True)
        controller = domain.organisation("urn:org:p0").controller
        for uri in domain.party_uris():
            if uri != "urn:org:p0":
                domain.network.partition.sever("urn:org:p0", uri)
        future = controller.disconnect_member_async(
            "doc", "urn:org:p2", deadline=0.5
        )
        outcome = future.result(timeout=30)
        assert not outcome.agreed and "deadline" in outcome.reason
        # Membership unchanged everywhere; no timers left behind.
        assert "urn:org:p2" in controller.members("doc")
        assert domain.retry_scheduler.pending_timers() == 0

    def test_membership_validation_raises_synchronously(self):
        domain = make_domain(parties=3, scheduled_retries=True)
        controller = domain.organisation("urn:org:p0").controller
        with pytest.raises(MembershipError):
            controller.connect_member_async("doc", "urn:org:p1")


class TestAsyncRunsOptIn:
    def test_blocking_api_delegates_through_async_engine(self):
        domain = make_domain(scheduled_retries=True, async_runs=True)
        assert domain.organisation("urn:org:p0").controller.async_runs
        outcome = domain.organisation("urn:org:p0").propose_update("doc", {"v": 3})
        assert outcome.agreed
        for uri in domain.party_uris():
            assert domain.organisation(uri).shared_state("doc") == {"v": 3}

    def test_async_runs_implies_scheduled_retries(self):
        domain = make_domain(async_runs=True)
        assert domain.retry_scheduler is not None


class TestFairExchangeAbortDeadline:
    @pytest.fixture
    def arbitrated(self):
        domain = TrustDomain.create(
            ["urn:org:client", "urn:org:server"],
            with_arbitrator=True,
            scheduled_retries=True,
        )
        server = domain.organisation("urn:org:server")
        server.deploy(
            QuoteService(),
            ComponentDescriptor(name="QuoteService", non_repudiation=True),
        )
        client = domain.organisation("urn:org:client")
        outcome = client.invoke_non_repudiably(
            server.uri, "QuoteService", "quote", ["beam"]
        )
        return domain, client, server, outcome.run_id

    def test_expired_deadline_obtains_abort_token(self, arbitrated):
        domain, client, server, run_id = arbitrated
        exchange = FairExchangeClient(
            client.uri, client.coordinator, domain.arbitrator_uri
        )
        handle = exchange.schedule_abort(run_id, timeout=0.25)
        assert not handle.fired
        domain.retry_scheduler.drive_until(lambda: handle.fired, timeout=30)
        stored = client.evidence_store.tokens_of_type(
            run_id, TokenType.TTP_ABORT.value
        )
        assert stored, "deadline expiry should have produced a TTP_ABORT"
        assert domain.retry_scheduler.pending_timers() == 0
        # The abort is final: the server can no longer resolve.
        server_exchange = FairExchangeClient(
            server.uri, server.coordinator, domain.arbitrator_uri
        )
        with pytest.raises(FairExchangeError):
            server_exchange.request_resolution(run_id)

    def test_cancelled_deadline_never_aborts(self, arbitrated):
        domain, client, server, run_id = arbitrated
        exchange = FairExchangeClient(
            client.uri, client.coordinator, domain.arbitrator_uri
        )
        handle = exchange.schedule_abort(run_id, timeout=5.0)
        assert handle.cancel() is True  # the awaited response "arrived"
        assert domain.retry_scheduler.pending_timers() == 0
        server_exchange = FairExchangeClient(
            server.uri, server.coordinator, domain.arbitrator_uri
        )
        affidavit = server_exchange.request_resolution(run_id)
        assert affidavit.token_type == TokenType.TTP_AFFIDAVIT.value

    def test_deadline_losing_the_race_is_audited_not_raised(self, arbitrated):
        domain, client, server, run_id = arbitrated
        server_exchange = FairExchangeClient(
            server.uri, server.coordinator, domain.arbitrator_uri
        )
        server_exchange.request_resolution(run_id)  # decision now final
        exchange = FairExchangeClient(
            client.uri, client.coordinator, domain.arbitrator_uri
        )
        handle = exchange.schedule_abort(run_id, timeout=0.25)
        domain.retry_scheduler.drive_until(lambda: handle.fired, timeout=30)
        audits = client.audit_records(subject=run_id)
        assert any(
            record.details.get("event") == "abort-deadline-refused"
            for record in audits
        )

    def test_schedule_abort_requires_scheduler(self):
        domain = TrustDomain.create(
            ["urn:org:client", "urn:org:server"], with_arbitrator=True
        )
        client = domain.organisation("urn:org:client")
        exchange = FairExchangeClient(
            client.uri, client.coordinator, domain.arbitrator_uri
        )
        with pytest.raises(FairExchangeError, match="retry scheduler"):
            exchange.schedule_abort("some-run", timeout=1.0)
