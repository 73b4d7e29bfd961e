"""Fault-injection integration tests.

The trusted-interceptor assumptions permit "a bounded number of temporary
network and computer related failures" (Section 3.1); the liveness guarantee
is that agreed interactions complete despite them.  These tests inject
message loss, duplication, latency, node crashes and misbehaving parties and
check the safety invariants hold and liveness is regained once faults clear.
"""

import pytest

from repro import (
    CallableValidator,
    ComponentDescriptor,
    TokenType,
    TrustDomain,
)
from repro.errors import DeliveryError, ProtocolError, ReproError
from repro.faults import FaultPlan, FaultRule
from repro.transport.delivery import RetryPolicy
from tests.conftest import QuoteService


def lossy_domain(drop_probability, seed, parties=2, duplicate_probability=0.0):
    uris = [f"urn:org:party{i}" for i in range(parties)]
    rules = []
    if drop_probability:
        rules.append(FaultRule("drop", probability=drop_probability))
    if duplicate_probability:
        rules.append(FaultRule("duplicate", probability=duplicate_probability))
    fault_plan = FaultPlan(rules=rules, seed=seed, max_consecutive_failures=4)
    return TrustDomain.create(uris, fault_plan=fault_plan)


class TestLossyNetwork:
    def test_invocation_completes_despite_heavy_loss(self):
        domain = lossy_domain(0.6, b"loss-invocation")
        client = domain.organisation("urn:org:party0")
        server = domain.organisation("urn:org:party1")
        server.deploy(
            QuoteService(), ComponentDescriptor(name="QuoteService", non_repudiation=True)
        )
        for i in range(5):
            outcome = client.invoke_non_repudiably(
                server.uri, "QuoteService", "quote", [f"part-{i}"]
            )
            assert outcome.succeeded
        assert domain.network.statistics.messages_dropped > 0

    def test_at_most_once_despite_duplication(self):
        domain = lossy_domain(0.0, b"dup", duplicate_probability=0.5)
        client = domain.organisation("urn:org:party0")
        server = domain.organisation("urn:org:party1")
        service = QuoteService()
        server.deploy(
            service, ComponentDescriptor(name="QuoteService", non_repudiation=True)
        )
        for _ in range(5):
            assert client.invoke_non_repudiably(
                server.uri, "QuoteService", "quote", ["duplicated part"]
            ).succeeded
        # Despite transport-level duplication, each request executed exactly once.
        assert service.calls == 5
        assert domain.network.statistics.messages_duplicated > 0

    def test_sharing_completes_despite_loss_and_latency(self):
        uris = [f"urn:org:party{i}" for i in range(3)]
        domain = TrustDomain.create(
            uris,
            fault_plan=FaultPlan(
                rules=[
                    FaultRule("drop", probability=0.4),
                    FaultRule("delay", latency_seconds=0.01, jitter_seconds=0.01),
                ],
                seed=b"loss-sharing",
                max_consecutive_failures=3,
            ),
        )
        domain.share_object("resilient-doc", {"counter": 0})
        organisations = [domain.organisation(uri) for uri in uris]
        for round_number in range(1, 4):
            proposer = organisations[round_number % 3]
            outcome = proposer.propose_update("resilient-doc", {"counter": round_number})
            assert outcome.agreed
        states = {org.controller.state_digest("resilient-doc") for org in organisations}
        assert len(states) == 1
        assert organisations[0].shared_state("resilient-doc") == {"counter": 3}


class TestCrashesAndPartitions:
    def test_crashed_peer_prevents_agreement_but_not_safety(self):
        domain = TrustDomain.create([f"urn:org:party{i}" for i in range(3)])
        domain.share_object("doc", {"v": 0})
        a, b, c = [domain.organisation(uri) for uri in domain.party_uris()]
        domain.network.set_online(c.uri, False)
        outcome = a.propose_update("doc", {"v": 1})
        # Without the crashed party's validation there is no unanimous agreement.
        assert not outcome.agreed
        assert a.shared_state("doc") == {"v": 0}
        assert b.shared_state("doc") == {"v": 0}
        # Once the peer recovers, coordination succeeds again (liveness regained).
        domain.network.set_online(c.uri, True)
        recovered = a.propose_update("doc", {"v": 1})
        assert recovered.agreed
        assert c.shared_state("doc") == {"v": 1}

    def test_partitioned_invocation_fails_cleanly_then_recovers(self):
        domain = TrustDomain.create(
            ["urn:org:client", "urn:org:server"],
        )
        client = domain.organisation("urn:org:client")
        server = domain.organisation("urn:org:server")
        server.deploy(
            QuoteService(), ComponentDescriptor(name="QuoteService", non_repudiation=True)
        )
        domain.network.partition.sever(client.uri, server.uri)
        with pytest.raises(ReproError):
            client.invoke_non_repudiably(server.uri, "QuoteService", "quote", ["x"])
        domain.network.partition.heal_all()
        assert client.invoke_non_repudiably(
            server.uri, "QuoteService", "quote", ["x"]
        ).succeeded

    def test_client_keeps_origin_evidence_even_when_delivery_fails(self):
        domain = TrustDomain.create(["urn:org:client", "urn:org:server"])
        client = domain.organisation("urn:org:client")
        server = domain.organisation("urn:org:server")
        server.deploy(
            QuoteService(), ComponentDescriptor(name="QuoteService", non_repudiation=True)
        )
        domain.network.partition.sever(client.uri, server.uri)
        with pytest.raises(ReproError):
            client.invoke_non_repudiably(server.uri, "QuoteService", "quote", ["x"])
        # The client generated and stored NRO_req before attempting delivery:
        # it can later prove what it tried to send.
        run_ids = client.evidence_store.run_ids()
        assert any(
            client.evidence_store.tokens_of_type(run_id, TokenType.NRO_REQUEST.value)
            for run_id in run_ids
        )
        # The server, which never saw the request, holds nothing for those runs.
        for run_id in run_ids:
            assert server.evidence_store.evidence_for_run(run_id) == []


class TestMisbehaviour:
    def test_dishonest_validator_cannot_corrupt_state(self):
        """A peer that always vetoes can block progress but never corrupt state."""
        domain = TrustDomain.create([f"urn:org:party{i}" for i in range(3)])
        domain.share_object("doc", {"v": 0})
        a, b, c = [domain.organisation(uri) for uri in domain.party_uris()]
        c.controller.add_validator("doc", CallableValidator(lambda ctx: False, name="griefer"))
        for attempt in range(3):
            outcome = a.propose_update("doc", {"v": attempt + 1})
            assert not outcome.agreed
        digests = {org.controller.state_digest("doc") for org in (a, b, c)}
        assert len(digests) == 1
        assert a.shared_state("doc") == {"v": 0}

    def test_unknown_party_cannot_inject_proposals(self):
        domain = TrustDomain.create(["urn:org:a", "urn:org:b"])
        intruder_domain = TrustDomain.create(["urn:org:mallory", "urn:org:other"])
        domain.share_object("doc", {"v": 0})
        b = domain.organisation("urn:org:b")
        mallory = intruder_domain.organisation("urn:org:mallory")
        # Mallory crafts a proposal for a group it does not belong to, signed
        # with its own (untrusted) key.
        from repro.core.messages import B2BProtocolMessage
        from repro.core.sharing import ACTION_PROPOSE, NR_SHARING_PROTOCOL

        payload = {"object_id": "doc", "proposer": mallory.uri, "base_version": 0,
                   "proposed_state": {"v": 666}}
        token = mallory.evidence_builder.build(
            token_type=TokenType.NRO_UPDATE, run_id="run-evil", step=1,
            recipient="doc", payload=payload,
        )
        message = B2BProtocolMessage(
            run_id="run-evil", protocol=NR_SHARING_PROTOCOL, step=1,
            sender=mallory.uri, recipient=b.uri, payload=payload, tokens=[token],
            attributes={"action": ACTION_PROPOSE},
        )
        response = b.controller.handler.process_request(message)
        assert response.payload["accepted"] is False
        assert b.shared_state("doc") == {"v": 0}

    def test_retry_budget_exhaustion_is_reported(self):
        fault_plan = FaultPlan(
            rules=[FaultRule("drop")], seed=b"dead", max_consecutive_failures=10**6
        )
        domain = TrustDomain.create(["urn:org:a", "urn:org:b"], fault_plan=fault_plan)
        client = domain.organisation("urn:org:a")
        server = domain.organisation("urn:org:b")
        server.deploy(
            QuoteService(), ComponentDescriptor(name="QuoteService", non_repudiation=True)
        )
        with pytest.raises(ReproError):
            client.invoke_non_repudiably(server.uri, "QuoteService", "quote", ["x"])
