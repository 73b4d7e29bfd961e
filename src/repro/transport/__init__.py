"""Simulated network and remote-invocation substrate.

The paper's prototype runs over JBoss remote invocation (RMI) between
organisations' application servers.  The reproduction replaces the physical
network with an in-process simulator that exposes exactly the failure model
the protocols assume (Section 3.1, assumption 2): *eventual message delivery
with a bounded number of temporary network and computer related failures*.

* :mod:`repro.transport.network` -- endpoints, the network core shared
  with the wire transport, delivery, message statistics (used by the communication-overhead benchmarks).
* :mod:`repro.transport.delivery` -- retrying reliable channel.
* :mod:`repro.transport.scheduler` -- event-driven retry timers and
  delivery futures (backoffs overlap across concurrent protocol runs).
* :mod:`repro.transport.registry` -- naming registry of remote objects.
* :mod:`repro.transport.rmi` -- dynamic proxies for remote method invocation.
"""

from repro.transport.network import (
    Endpoint,
    Message,
    NetworkPartition,
    NetworkStatistics,
    SimulatedNetwork,
)
from repro.transport.delivery import ReliableChannel, RetryPolicy
from repro.transport.registry import ObjectRegistry
from repro.transport.rmi import RemoteCallBatch, RemoteInvoker, RemoteProxy, RemoteStub
from repro.transport.scheduler import DeliveryFuture, RetryScheduler, TimerHandle, wait_all

__all__ = [
    "DeliveryFuture",
    "Endpoint",
    "Message",
    "NetworkPartition",
    "NetworkStatistics",
    "ObjectRegistry",
    "ReliableChannel",
    "RemoteCallBatch",
    "RemoteInvoker",
    "RemoteProxy",
    "RemoteStub",
    "RetryPolicy",
    "RetryScheduler",
    "SimulatedNetwork",
    "TimerHandle",
    "wait_all",
]
