"""Unit tests for the simulated network, reliable delivery and RMI layer."""

import pytest

from repro.clock import SimulatedClock
from repro.errors import DeliveryError, RemoteInvocationError, UnknownEndpointError
from repro.transport.delivery import ReliableChannel, RetryPolicy
from repro.faults import FaultPlan, FaultRule
from repro.transport.network import NetworkPartition, SimulatedNetwork
from repro.transport.registry import ObjectRegistry
from repro.transport.rmi import RemoteInvoker, RemoteStub


class TestSimulatedNetwork:
    def test_send_reaches_registered_handler(self):
        network = SimulatedNetwork()
        received = []
        network.register("urn:dst", lambda message: received.append(message) or "ack")
        reply = network.send("urn:src", "urn:dst", "ping", {"value": 1})
        assert reply == "ack"
        assert received[0].payload == {"value": 1}
        assert received[0].sender == "urn:src"

    def test_send_to_unknown_endpoint_raises(self):
        network = SimulatedNetwork()
        with pytest.raises(UnknownEndpointError):
            network.send("urn:src", "urn:nowhere", "ping", {})

    def test_offline_endpoint_drops_message(self):
        network = SimulatedNetwork()
        network.register("urn:dst", lambda message: "ack")
        network.set_online("urn:dst", False)
        with pytest.raises(DeliveryError):
            network.send("urn:src", "urn:dst", "ping", {})
        network.set_online("urn:dst", True)
        assert network.send("urn:src", "urn:dst", "ping", {}) == "ack"

    def test_partition_blocks_and_heals(self):
        network = SimulatedNetwork()
        network.register("urn:b", lambda message: "ok")
        network.partition.sever("urn:a", "urn:b")
        with pytest.raises(DeliveryError):
            network.send("urn:a", "urn:b", "op", {})
        network.partition.heal("urn:a", "urn:b")
        assert network.send("urn:a", "urn:b", "op", {}) == "ok"

    def test_statistics_count_messages_and_bytes(self):
        network = SimulatedNetwork()
        network.register("urn:dst", lambda message: "ok")
        network.send("urn:src", "urn:dst", "op", {"k": "v"})
        network.send("urn:src", "urn:dst", "op", {"k": "v"})
        stats = network.statistics
        assert stats.messages_sent == 2
        assert stats.messages_delivered == 2
        assert stats.bytes_delivered > 0
        assert stats.per_operation["op"] == 2

    def test_statistics_snapshot_and_delta(self):
        network = SimulatedNetwork()
        network.register("urn:dst", lambda message: "ok")
        network.send("urn:src", "urn:dst", "op", {})
        before = network.statistics.snapshot()
        network.send("urn:src", "urn:dst", "op", {})
        delta = network.statistics.delta(before)
        assert delta.messages_sent == 1
        assert delta.per_operation == {"op": 1}

    def test_drops_are_injected_but_bounded(self):
        network = SimulatedNetwork(
            fault_plan=FaultPlan(
                rules=[FaultRule("drop", probability=0.99)],
                seed=b"drop",
                max_consecutive_failures=3,
            )
        )
        network.register("urn:dst", lambda message: "ok")
        outcomes = []
        for _ in range(8):
            try:
                outcomes.append(network.send("urn:src", "urn:dst", "op", {}))
            except DeliveryError:
                outcomes.append(None)
        # With max_consecutive_failures=3 at least every 4th attempt succeeds.
        assert "ok" in outcomes
        assert network.statistics.messages_dropped > 0

    def test_latency_advances_simulated_clock(self):
        clock = SimulatedClock()
        network = SimulatedNetwork(
            clock=clock,
            fault_plan=FaultPlan(rules=[FaultRule("delay", latency_seconds=0.25)]),
        )
        network.register("urn:dst", lambda message: "ok")
        network.send("urn:src", "urn:dst", "op", {})
        network.send("urn:src", "urn:dst", "op", {})
        assert clock.now() == pytest.approx(0.5)
        assert network.statistics.total_latency == pytest.approx(0.5)

    def test_duplicate_delivery_invokes_handler_twice(self):
        network = SimulatedNetwork(
            fault_plan=FaultPlan(rules=[FaultRule("duplicate")], seed=b"dup")
        )
        calls = []
        network.register("urn:dst", lambda message: calls.append(message.message_id))
        network.send("urn:src", "urn:dst", "op", {})
        assert len(calls) == 2
        assert calls[0] == calls[1]
        assert network.statistics.messages_duplicated == 1

    def test_trace_records_messages_when_enabled(self):
        network = SimulatedNetwork()
        network.register("urn:dst", lambda message: "ok")
        network.trace_enabled = True
        network.send("urn:src", "urn:dst", "op", {"a": 1})
        assert len(network.trace) == 1
        network.clear_trace()
        assert network.trace == []

    def test_reset_statistics(self):
        network = SimulatedNetwork()
        network.register("urn:dst", lambda message: "ok")
        network.send("urn:src", "urn:dst", "op", {})
        network.reset_statistics()
        assert network.statistics.messages_sent == 0


class TestNetworkPartition:
    def test_sever_is_bidirectional(self):
        partition = NetworkPartition()
        partition.sever("a", "b")
        assert partition.is_severed("a", "b")
        assert partition.is_severed("b", "a")

    def test_heal_all(self):
        partition = NetworkPartition()
        partition.sever("a", "b")
        partition.sever("a", "c")
        partition.heal_all()
        assert not partition.is_severed("a", "b")
        assert not partition.is_severed("a", "c")


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_multiplier=0.5)

    def test_backoff_grows_and_is_capped(self):
        policy = RetryPolicy(backoff_seconds=0.1, backoff_multiplier=2.0, max_backoff_seconds=0.35)
        assert policy.backoff_for_attempt(0) == pytest.approx(0.1)
        assert policy.backoff_for_attempt(1) == pytest.approx(0.2)
        assert policy.backoff_for_attempt(5) == pytest.approx(0.35)


class TestReliableChannel:
    def test_retries_until_success_on_lossy_network(self):
        network = SimulatedNetwork(
            fault_plan=FaultPlan(
                rules=[FaultRule("drop", probability=0.8)],
                seed=b"lossy",
                max_consecutive_failures=4,
            )
        )
        network.register("urn:dst", lambda message: "delivered")
        channel = ReliableChannel(network, "urn:src", RetryPolicy(max_attempts=20))
        assert channel.send("urn:dst", "op", {}) == "delivered"
        assert channel.attempts_made >= 1

    def test_gives_up_after_budget(self):
        network = SimulatedNetwork()
        network.register("urn:dst", lambda message: "ok")
        network.set_online("urn:dst", False)
        channel = ReliableChannel(network, "urn:src", RetryPolicy(max_attempts=3))
        with pytest.raises(DeliveryError):
            channel.send("urn:dst", "op", {})
        assert channel.attempts_made == 3

    def test_unknown_endpoint_fails_fast_without_retries(self):
        network = SimulatedNetwork()
        channel = ReliableChannel(network, "urn:src", RetryPolicy(max_attempts=5))
        with pytest.raises(UnknownEndpointError):
            channel.send("urn:nowhere", "op", {})
        assert channel.attempts_made == 1


class TestObjectRegistry:
    def test_bind_and_lookup(self):
        registry = ObjectRegistry()
        registry.bind("urn:svc", "service-object")
        assert registry.lookup("urn:svc") == "service-object"
        assert "urn:svc" in registry

    def test_duplicate_bind_rejected_unless_rebind(self):
        registry = ObjectRegistry()
        registry.bind("urn:svc", 1)
        with pytest.raises(ValueError):
            registry.bind("urn:svc", 2)
        registry.rebind("urn:svc", 2)
        assert registry.lookup("urn:svc") == 2

    def test_lookup_missing_raises(self):
        with pytest.raises(UnknownEndpointError):
            ObjectRegistry().lookup("urn:missing")

    def test_unbind_and_names(self):
        registry = ObjectRegistry()
        registry.bind("urn:a", 1)
        registry.bind("urn:b", 2)
        registry.unbind("urn:a")
        assert registry.names() == ["urn:b"]
        assert registry.lookup_optional("urn:a") is None

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            ObjectRegistry().bind("", 1)


class Calculator:
    def add(self, a, b):
        return a + b

    def divide(self, a, b):
        return a / b

    def _private(self):
        return "hidden"


class TestRMI:
    @pytest.fixture
    def wired(self):
        network = SimulatedNetwork()
        server = RemoteInvoker(network, "urn:server")
        client = RemoteInvoker(network, "urn:client")
        server.export("calculator", Calculator())
        return network, server, client

    def test_remote_invocation_returns_result(self, wired):
        _, _, client = wired
        proxy = client.proxy_for("urn:server", "calculator")
        assert proxy.add(2, 3) == 5

    def test_remote_exception_is_propagated(self, wired):
        _, _, client = wired
        proxy = client.proxy_for("urn:server", "calculator")
        with pytest.raises(RemoteInvocationError, match="ZeroDivisionError"):
            proxy.divide(1, 0)

    def test_private_methods_not_exported(self, wired):
        _, _, client = wired
        proxy = client.proxy_for("urn:server", "calculator")
        # The proxy refuses to build underscore-prefixed remote methods...
        with pytest.raises(AttributeError):
            proxy._private  # noqa: B018, SLF001
        # ...and the server-side stub refuses to invoke them even if asked directly.
        with pytest.raises(RemoteInvocationError):
            proxy.invoke("_private", [], {})

    def test_unknown_object_raises(self, wired):
        _, _, client = wired
        proxy = client.proxy_for("urn:server", "missing-object")
        with pytest.raises(RemoteInvocationError):
            proxy.add(1, 2)

    def test_explicit_method_export_list(self):
        network = SimulatedNetwork()
        server = RemoteInvoker(network, "urn:server")
        client = RemoteInvoker(network, "urn:client")
        server.export("calc", Calculator(), methods=["add"])
        proxy = client.proxy_for("urn:server", "calc")
        assert proxy.add(1, 1) == 2
        with pytest.raises(RemoteInvocationError):
            proxy.divide(4, 2)

    def test_stub_lists_exported_names(self):
        stub = RemoteStub(Calculator())
        assert stub.invoke("add", [1, 2], {}) == 3
        network = SimulatedNetwork()
        invoker = RemoteInvoker(network, "urn:x")
        invoker.export("a", Calculator())
        invoker.export("b", Calculator())
        assert invoker.exported_names() == ["a", "b"]
        invoker.unexport("a")
        assert invoker.exported_names() == ["b"]
