"""The network core shared by the simulator and the wire transport.

Both transports admit messages through one code path, so a seeded
:class:`FaultPlan` must spend its draws identically on either of them --
including around endpoints that go offline, which fail at resolution
before any fault is drawn.
"""

from dataclasses import fields

import pytest

from repro.errors import DeliveryError
from repro.faults import FaultPlan, FaultRule
from repro.transport.network import NetworkStatistics, SimulatedNetwork
from repro.transport.wire import WireNetwork

SENDER = "urn:client"

PLAN = FaultPlan(
    rules=[FaultRule("drop", probability=0.5)],
    seed=b"offline-draws",
    max_consecutive_failures=2,
)

#: Sends to two co-hosted endpoints; ``("offline", x)`` / ``("online", x)``
#: toggle an endpoint between sends.
STEPS = (
    ["urn:a", "urn:b"] * 4
    + [("offline", "urn:b")]
    + ["urn:b", "urn:a", "urn:b", "urn:b", "urn:a", "urn:b"]
    + [("online", "urn:b")]
    + ["urn:b", "urn:a"] * 6
)


def expected_outcomes():
    """The decision sequence drawn straight from the plan.

    A send to an offline endpoint fails at resolution and draws nothing.
    """
    injector = PLAN.injector()
    online = {"urn:a": True, "urn:b": True}
    outcomes = []
    for step in STEPS:
        if isinstance(step, tuple):
            online[step[1]] = step[0] == "online"
        elif not online[step]:
            outcomes.append("offline")
        else:
            drop = injector.decide(SENDER, step, "op").drop
            outcomes.append("lost" if drop else "delivered")
    return outcomes, injector.message_index


@pytest.fixture(params=["simulated", "wire"])
def network(request):
    if request.param == "simulated":
        yield SimulatedNetwork(fault_plan=PLAN)
        return
    with WireNetwork(fault_plan=PLAN) as wire:
        yield wire


def test_offline_endpoints_draw_no_faults(network):
    for address in ("urn:a", "urn:b"):
        network.register(address, lambda message: "ok")
    outcomes = []
    for step in STEPS:
        if isinstance(step, tuple):
            network.set_online(step[1], step[0] == "online")
            continue
        try:
            network.send(SENDER, step, "op", {})
            outcomes.append("delivered")
        except DeliveryError as error:
            outcomes.append("offline" if "offline" in str(error) else "lost")
    expected, draws = expected_outcomes()
    assert "lost" in expected and "offline" in expected
    assert outcomes == expected
    assert network.fault_injector.message_index == draws
    assert network.statistics.messages_dropped == len(STEPS) - 2 - expected.count(
        "delivered"
    )


def test_without_a_plan_no_injector_is_consulted():
    network = SimulatedNetwork()
    network.register("urn:a", lambda message: "ok")
    assert network.fault_injector is None
    assert network.send(SENDER, "urn:a", "op", {}) == "ok"
    network.set_fault_plan(PLAN)
    assert network.fault_injector is not None
    network.set_fault_plan(None)
    assert network.fault_injector is None


class TestStatisticsCopies:
    @staticmethod
    def _filled(scale):
        statistics = NetworkStatistics()
        for offset, counter in enumerate(fields(NetworkStatistics), start=1):
            value = getattr(statistics, counter.name)
            if isinstance(value, dict):
                setattr(statistics, counter.name, {f"key-{offset}": offset * scale})
            else:
                setattr(statistics, counter.name, offset * scale)
        return statistics

    def test_snapshot_copies_every_counter(self):
        statistics = self._filled(1)
        snapshot = statistics.snapshot()
        for counter in fields(NetworkStatistics):
            value = getattr(statistics, counter.name)
            assert getattr(snapshot, counter.name) == value, counter.name
            if isinstance(value, dict):
                assert getattr(snapshot, counter.name) is not value, counter.name

    def test_delta_subtracts_every_counter(self):
        delta = self._filled(3).delta(self._filled(1))
        expected = self._filled(2)
        for counter in fields(NetworkStatistics):
            assert getattr(delta, counter.name) == getattr(
                expected, counter.name
            ), counter.name
