"""The network core shared by both transports, and the in-process simulator.

Organisations register :class:`Endpoint` handlers under their address
(a URI).  Senders deliver :class:`Message` objects through ``send`` /
``send_batch``.  :class:`NetworkCore` implements that contract once for
every transport: the endpoint table, message ids, the trace recorder and
:class:`NetworkStatistics`, the circuit-breaker and audit hooks, and one
admission path -- count the attempt, resolve the destination, consult the
optional seeded :class:`repro.faults.FaultPlan`, account the outcome --
followed by the batch's :class:`DispatchStrategy` run.  Because both
transports admit through the same code, a seeded plan draws the identical
fault sequence on either of them; with no plan attached no injector is
consulted at all.

A transport supplies only how a destination resolves
(:meth:`NetworkCore._route_locked`) and the delivery leg for destinations
that are not in-process endpoints.  :class:`SimulatedNetwork` resolves
through its endpoint table and a manual :class:`NetworkPartition`, and
delivers every message as an in-process handler call;
:class:`repro.transport.wire.WireNetwork` adds the socket round trip.

The simulation is synchronous: ``send`` returns the handler's reply, which
keeps protocol code easy to follow while still exercising loss/duplication/
partition behaviour through explicit retry layers
(:mod:`repro.transport.delivery`).

Concurrency model: admission (fault decisions, statistics, trace) always
happens under one lock, in entry order, so traffic accounting is
deterministic and bit-identical regardless of how handlers are then
dispatched.  The dispatch phase is pluggable through a
:class:`DispatchStrategy`: :class:`SequentialDispatch` (the default) invokes
handlers one at a time in entry order, while :class:`ParallelDispatch` runs
the admitted handlers of one ``send_batch`` concurrently on a thread pool --
link-latency sleeps and GIL-releasing signature work then overlap across
destinations.  Handlers reached through a parallel network must be
thread-safe (every store and coordinator in this package is lock-protected).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro import codec, parallel
from repro.clock import Clock, MonotonicCounter, SimulatedClock
from repro.errors import DeliveryError, UnknownEndpointError
from repro.faults.breaker import CircuitBreaker
from repro.faults.plan import CLEAN_DECISION, FaultDecision, FaultInjector, FaultPlan
from repro.observability import tracing as _tracing
from repro.observability.runtime import STATE as _OBS
from repro.transport.recorder import MessageTraceRecorder
from repro.transport.scheduler import RetryScheduler


#: ``Message.sizing`` values: how the byte size of a message was obtained.
SIZING_CANONICAL = "canonical"
SIZING_REPR = "repr"

#: Audit-log category used for transport-level events (circuit-breaker
#: transitions, load shedding, frame-decode failures) on both transports.
AUDIT_CATEGORY_TRANSPORT = "transport"


@dataclass
class Message:
    """A unit of network traffic.

    Attributes:
        sender / destination: endpoint addresses (URIs).
        operation: logical operation name at the destination (e.g.
            ``"deliver"`` on a coordinator).
        payload: arbitrary, canonically encodable content.
        message_id: unique id assigned by the network, used for duplicate
            suppression by receivers that need at-most-once behaviour.
    """

    sender: str
    destination: str
    operation: str
    payload: Any
    message_id: int = -1

    #: How this message was sized: ``"canonical"`` for the canonical codec
    #: encoding, ``"repr"`` for the lossy fallback (set by ``encoded_size``).
    sizing: str = SIZING_CANONICAL

    #: Ambient ``(trace_id, span_id)`` at construction time, when tracing is
    #: enabled.  Carried out-of-band: never part of the canonical envelope,
    #: so byte accounting is identical with tracing on or off.
    trace: Optional[Tuple[str, str]] = None

    def encoded_size(self) -> int:
        """Size of the message payload in canonical bytes, computed once.

        Payloads that cannot be canonically encoded (e.g. application objects
        passed through plain, non-NR invocations) are sized by their ``repr``
        so traffic accounting still works; such messages are marked with
        ``sizing == "repr"`` and surfaced in
        :attr:`NetworkStatistics.messages_sized_by_repr` so benchmark byte
        counts are honest about the fallback.  The computed size is cached on
        the message (messages are immutable once handed to the network).
        """
        cached = self.__dict__.get("_size")
        if cached is not None:
            return cached
        envelope = {
            "sender": self.sender,
            "destination": self.destination,
            "operation": self.operation,
            "payload": self.payload,
        }
        try:
            size = codec.encoded_size(envelope)
        except codec.CodecError:
            size = len(repr(envelope).encode("utf-8"))
            self.sizing = SIZING_REPR
        self.__dict__["_size"] = size
        return size


@dataclass
class BatchResult:
    """Outcome of one entry of a batched send: a reply or an error."""

    result: Any = None
    error: Optional[Exception] = None

    @property
    def delivered(self) -> bool:
        return self.error is None


#: An endpoint handler maps (operation, payload, message) to a reply payload.
EndpointHandler = Callable[[Message], Any]


@dataclass
class Endpoint:
    """A registered network endpoint."""

    address: str
    handler: EndpointHandler
    online: bool = True


@dataclass
class NetworkPartition:
    """A set of links that are currently severed."""

    severed_links: Set[Tuple[str, str]] = field(default_factory=set)

    def sever(self, a: str, b: str) -> None:
        """Cut connectivity between ``a`` and ``b`` (both directions)."""
        self.severed_links.add((a, b))
        self.severed_links.add((b, a))

    def heal(self, a: str, b: str) -> None:
        """Restore connectivity between ``a`` and ``b``."""
        self.severed_links.discard((a, b))
        self.severed_links.discard((b, a))

    def heal_all(self) -> None:
        self.severed_links.clear()

    def is_severed(self, a: str, b: str) -> bool:
        return (a, b) in self.severed_links


@dataclass
class NetworkStatistics:
    """Aggregate traffic counters used by the benchmarks."""

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    messages_duplicated: int = 0
    #: Messages an injected fault deferred to the end of their batch wave.
    messages_reordered: int = 0
    #: Inbound frames refused by wire-server backpressure (load shedding).
    messages_shed: int = 0
    #: Inbound frames that failed to decode (corrupt/oversized); each one
    #: cost the peer its connection.
    frame_decode_failures: int = 0
    #: Send attempts refused locally because the destination's circuit
    #: breaker was open (no socket touched, no attempt counter burned).
    circuit_open_refusals: int = 0
    bytes_delivered: int = 0
    #: Messages whose size came from the lossy ``repr`` fallback rather than
    #: the canonical encoding; nonzero means byte counters are approximate.
    messages_sized_by_repr: int = 0
    total_latency: float = 0.0
    per_operation: Dict[str, int] = field(default_factory=dict)
    #: Delivery effort per destination: every send *attempt* (including
    #: retries and attempts that were dropped) versus the attempts that were
    #: actually delivered.  The difference is the retry traffic a flaky link
    #: cost, which benchmarks and dispute reports surface as
    #: ``attempts - deliveries`` without needing access to every channel.
    attempts_per_destination: Dict[str, int] = field(default_factory=dict)
    deliveries_per_destination: Dict[str, int] = field(default_factory=dict)

    @staticmethod
    def _dict_delta(current: Dict[str, int], earlier: Dict[str, int]) -> Dict[str, int]:
        merged = dict(current)
        for key, count in earlier.items():
            merged[key] = merged.get(key, 0) - count
        return {key: value for key, value in merged.items() if value}

    def failed_attempts_per_destination(self) -> Dict[str, int]:
        """Attempts that did not result in delivery, per destination.

        Note this counts every undelivered attempt -- including a
        destination's *first* attempt when it too failed -- so for a
        never-delivered destination it reads ``max_attempts``, one more than
        the channel-level ``retries_made`` (which counts reattempts only).
        """
        return {
            destination: attempts
            - self.deliveries_per_destination.get(destination, 0)
            for destination, attempts in self.attempts_per_destination.items()
            if attempts != self.deliveries_per_destination.get(destination, 0)
        }

    def snapshot(self) -> "NetworkStatistics":
        """Return a copy of the current counters."""
        copied = {}
        for counter in fields(self):
            value = getattr(self, counter.name)
            copied[counter.name] = dict(value) if isinstance(value, dict) else value
        return NetworkStatistics(**copied)

    def delta(self, earlier: "NetworkStatistics") -> "NetworkStatistics":
        """Return the difference between this snapshot and ``earlier``."""
        changed = {}
        for counter in fields(self):
            current = getattr(self, counter.name)
            before = getattr(earlier, counter.name)
            changed[counter.name] = (
                self._dict_delta(current, before)
                if isinstance(current, dict)
                else current - before
            )
        return NetworkStatistics(**changed)


class DispatchStrategy:
    """How the admitted handlers of one ``send_batch`` are executed.

    Admission and accounting always run first, under the network lock, in
    entry order -- a strategy only chooses how the already-admitted handler
    invocations (each packaged as a self-contained thunk that records its own
    result or error) are scheduled.  Strategies must run every thunk exactly
    once and return only when all have finished.
    """

    name: str = ""

    def run(self, units: List[Callable[[], None]]) -> None:
        raise NotImplementedError


class SequentialDispatch(DispatchStrategy):
    """Default strategy: invoke handlers one at a time, in entry order.

    The reference semantics the parallel mode is property-tested against:
    traffic accounting is bit-identical to pre-strategy releases.  (When
    link latency is modelled, handler-observed virtual-clock times differ
    slightly from older releases, because latency is now paid per entry at
    dispatch instead of being summed during admission; statistics are
    unaffected.)
    """

    name = "sequential"

    def run(self, units: List[Callable[[], None]]) -> None:
        for unit in units:
            unit()


class ParallelDispatch(DispatchStrategy):
    """Dispatch admitted handlers concurrently on a thread pool.

    Per-destination link-latency sleeps and GIL-releasing crypto
    (``BN_mod_exp`` via ctypes) overlap across the fan-out, so an 8-party
    proposal round pays one round-trip latency instead of eight.  Nested
    fan-outs issued from a worker thread run inline sequentially (see
    :mod:`repro.parallel`), which keeps pool-exhaustion deadlocks impossible.

    ``max_workers=None`` (the default) draws threads from the process-wide
    shared executor; passing an explicit ``max_workers`` gives this strategy
    a private pool of that size (release it with :meth:`close` when the
    strategy is no longer needed).  Private-pool workers are marked exactly
    like shared-pool workers, so the nested-runs-inline rule holds for both.
    """

    name = "parallel"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self._own_executor = None
        if max_workers is not None:
            from concurrent.futures import ThreadPoolExecutor

            self._own_executor = ThreadPoolExecutor(
                max_workers=max_workers,
                thread_name_prefix="repro-dispatch",
                initializer=parallel.mark_worker_thread,
            )

    def run(self, units: List[Callable[[], None]]) -> None:
        if len(units) <= 1 or parallel.in_worker_thread():
            for unit in units:
                unit()
            return
        if self._own_executor is not None:
            futures = [self._own_executor.submit(unit) for unit in units]
            for future in futures:
                future.result()
            return
        # Units trap their own exceptions into the batch results, so run_all
        # outcomes only surface unexpected infrastructure failures.
        for _, error in parallel.run_all(units):
            if error is not None:
                raise error

    def close(self) -> None:
        """Shut down the private pool, if any (the shared executor is untouched)."""
        if self._own_executor is not None:
            self._own_executor.shutdown(wait=True)
            self._own_executor = None




#: Route returned by :meth:`NetworkCore._route_locked` when a destination can
#: only be resolved outside the admission lock (e.g. a lazy channel manager
#: that may perform a credential round trip first).
ROUTE_OUTSIDE_LOCK = object()

#: One admitted entry: ``(entry index, message, route, fault decision)``.
Admitted = Tuple[int, Message, Any, FaultDecision]


class NetworkCore:
    """Admission, accounting, fault decisions and dispatch for one transport.

    Every message runs the same steps under the admission lock, in entry
    order: count the attempt (:meth:`_admit_locked`), resolve the
    destination (:meth:`_route_locked`), draw the fault decision and
    account the outcome (:meth:`_decide_locked`).  A failed resolution or
    an injected loss counts a drop and fails the entry before any handler
    runs; an offline or unknown destination never draws, so one seeded
    plan spends its draws identically on every transport.  The admitted
    deliveries then run outside the lock, through the configured
    :class:`DispatchStrategy` for a batch.

    A route is either a local :class:`Endpoint`, delivered in process (the
    handler is invoked directly; an injected duplicate invokes it twice),
    or a transport-specific target handed to :meth:`_deliver_remote`.
    Local deliveries are accounted as delivered at admission; a remote leg
    accounts its own outcome (see :meth:`_account_delivered_locked`).
    """

    def __init__(
        self,
        clock: Clock,
        dispatch: Optional[DispatchStrategy] = None,
        retry_scheduler: Optional[RetryScheduler] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.clock = clock
        self.dispatch = dispatch or SequentialDispatch()
        #: When set, every :class:`repro.transport.delivery.ReliableChannel`
        #: created on this network defaults to event-driven (scheduled)
        #: retries instead of blocking backoff sleeps.
        self.retry_scheduler = retry_scheduler
        self.statistics = NetworkStatistics()
        #: Optional per-peer breaker consulted by channels over this network
        #: (see :meth:`attach_circuit_breaker`).
        self.circuit_breaker: Optional[CircuitBreaker] = None
        self.audit_log = None
        self.fault_plan: Optional[FaultPlan] = None
        self.fault_injector: Optional[FaultInjector] = None
        self._endpoints: Dict[str, Endpoint] = {}
        self._message_counter = MonotonicCounter(1)
        self._lock = threading.RLock()
        self._recorder = MessageTraceRecorder()
        self.trace_enabled = False
        self.set_fault_plan(fault_plan)

    def set_dispatch(self, dispatch: DispatchStrategy) -> None:
        """Switch the handler-dispatch strategy for subsequent batches."""
        self.dispatch = dispatch

    def set_retry_scheduler(self, scheduler: Optional[RetryScheduler]) -> None:
        """Attach (or detach, with ``None``) the event-driven retry scheduler.

        Only channels created after the switch pick the scheduler up; live
        channels keep the mode they were created with.
        """
        self.retry_scheduler = scheduler

    def set_fault_plan(self, plan: Optional[FaultPlan]) -> None:
        """Attach (or, with ``None``, detach) a seeded fault plan.

        Subsequent admissions draw from a fresh injector for ``plan``; with
        no plan attached, admission consults no injector.
        """
        with self._lock:
            self.fault_plan = plan
            self.fault_injector = plan.injector() if plan is not None else None

    # -- endpoint management ---------------------------------------------------

    def register(self, address: str, handler: EndpointHandler) -> Endpoint:
        """Register (or replace) the local handler for ``address``."""
        with self._lock:
            endpoint = Endpoint(address=address, handler=handler)
            self._endpoints[address] = endpoint
            return endpoint

    def unregister(self, address: str) -> None:
        with self._lock:
            self._endpoints.pop(address, None)

    def endpoint(self, address: str) -> Endpoint:
        try:
            return self._endpoints[address]
        except KeyError:
            raise UnknownEndpointError(f"no endpoint registered at {address!r}") from None

    def addresses(self) -> List[str]:
        """Locally registered endpoint addresses."""
        return sorted(self._endpoints)

    def set_online(self, address: str, online: bool) -> None:
        """Take a local endpoint down (``online=False``) or bring it back.

        Senders to an offline endpoint get a retryable :class:`DeliveryError`.
        """
        self.endpoint(address).online = online

    # -- fault plane / observability --------------------------------------------

    def attach_audit_log(self, audit_log) -> None:
        """Route transport-level events (breaker transitions, shedding) to
        ``audit_log`` under the ``"transport"`` category."""
        self.audit_log = audit_log

    def attach_circuit_breaker(self, breaker: CircuitBreaker) -> None:
        """Install a per-peer breaker; channels over this network consult it.

        The breaker is bound to this network's clock and its transitions are
        appended to the attached audit log (attach the log first if both are
        wanted).
        """
        breaker.bind(clock=self.clock, on_event=self._on_breaker_event)
        self.circuit_breaker = breaker

    def record_circuit_refusal(self, destination: str) -> None:
        """Count one locally-refused attempt (open circuit) for statistics."""
        with self._lock:
            self.statistics.circuit_open_refusals += 1

    def _on_breaker_event(
        self, destination: str, old_state: str, new_state: str, reason: str
    ) -> None:
        self._audit(
            destination,
            {
                "event": "circuit-breaker-transition",
                "from": old_state,
                "to": new_state,
                "reason": reason,
            },
        )

    def _audit(self, subject: str, details: Dict[str, Any]) -> None:
        log = self.audit_log
        if log is None:
            return
        try:
            log.append(
                category=AUDIT_CATEGORY_TRANSPORT, subject=subject, details=details
            )
        except Exception:  # noqa: BLE001 - observability must not break delivery
            pass

    # -- admission ----------------------------------------------------------------

    def _route_locked(self, message: Message) -> Any:
        """Resolve ``message``'s destination; caller holds the lock.

        The default resolves through the local endpoint table.  Raises
        :class:`UnknownEndpointError` (permanent) or :class:`DeliveryError`
        (retryable, e.g. an offline endpoint); transports override this to
        add their own destinations, or return :data:`ROUTE_OUTSIDE_LOCK` to
        finish resolution in :meth:`_route_outside_lock`.
        """
        endpoint = self._endpoints.get(message.destination)
        if endpoint is None:
            raise UnknownEndpointError(
                f"no endpoint registered at {message.destination!r}"
            )
        if not endpoint.online:
            raise DeliveryError(f"endpoint {message.destination!r} is offline")
        return endpoint

    def _route_outside_lock(self, message: Message) -> Any:
        """Finish a resolution deferred by :meth:`_route_locked` (may block)."""
        raise NotImplementedError

    def _admit_locked(self, message: Message) -> Any:
        """Count one send attempt and resolve its route; caller holds the lock.

        A failed resolution counts as a drop and raises.
        """
        stats = self.statistics
        stats.messages_sent += 1
        stats.per_operation[message.operation] = (
            stats.per_operation.get(message.operation, 0) + 1
        )
        stats.attempts_per_destination[message.destination] = (
            stats.attempts_per_destination.get(message.destination, 0) + 1
        )
        if self.trace_enabled:
            self._recorder.record(message)
        try:
            return self._route_locked(message)
        except (DeliveryError, UnknownEndpointError):
            stats.messages_dropped += 1
            raise

    def _decide_locked(self, message: Message, route: Any) -> FaultDecision:
        """Draw the fault decision for a resolved message and account it.

        Injected drops and partition windows destroy the message here.
        Corrupt frames and resets do too for a local endpoint; a remote leg
        performs them on its real connection instead.  The decision's
        latency is *paid* by the delivery leg, outside the lock, so the
        deliveries of a parallel batch overlap their link latency.
        """
        injector = self.fault_injector
        if injector is None:
            decision = CLEAN_DECISION
        else:
            decision = injector.decide(
                message.sender, message.destination, message.operation
            )
        local = isinstance(route, Endpoint)
        stats = self.statistics
        if decision.drop or decision.partitioned or (local and decision.lost):
            stats.messages_dropped += 1
            raise self._loss_error(message, decision)
        if decision is not CLEAN_DECISION:
            stats.total_latency += decision.latency
            if decision.duplicate:
                stats.messages_duplicated += 1
            if decision.reorder:
                stats.messages_reordered += 1
        if local:
            self._account_delivered_locked(message)
        return decision

    @staticmethod
    def _loss_error(message: Message, decision: FaultDecision) -> DeliveryError:
        if decision.partitioned:
            return DeliveryError(
                f"link {message.sender!r} -> {message.destination!r} severed "
                f"by fault plan: {decision.reason}"
            )
        return DeliveryError(
            f"message {message.message_id} from {message.sender!r} to "
            f"{message.destination!r} was lost ({decision.reason})"
        )

    def _account_delivered_locked(self, message: Message) -> None:
        stats = self.statistics
        stats.messages_delivered += 1
        stats.deliveries_per_destination[message.destination] = (
            stats.deliveries_per_destination.get(message.destination, 0) + 1
        )
        stats.bytes_delivered += message.encoded_size()
        if message.sizing == SIZING_REPR:
            stats.messages_sized_by_repr += 1

    def _admit(
        self,
        sender: str,
        entries: List[Tuple[str, str, Any]],
        results: List[BatchResult],
    ) -> List[Admitted]:
        """Admit a wave of ``(destination, operation, payload)`` entries.

        Attempts are counted and resolved in entry order under one lock
        pass; deferred resolutions then run outside the lock, and the fault
        draws happen afterwards in entry order, so the draw sequence does
        not depend on how destinations resolve.  Failed entries get their
        error in ``results``.
        """
        trace_ctx = _tracing.current_ctx() if _OBS.tracing is not None else None
        staged = []
        with self._lock:
            for index, (destination, operation, payload) in enumerate(entries):
                message = Message(
                    sender=sender,
                    destination=destination,
                    operation=operation,
                    payload=payload,
                    message_id=self._message_counter.next(),
                    trace=trace_ctx,
                )
                try:
                    staged.append((index, message, self._admit_locked(message)))
                except (DeliveryError, UnknownEndpointError) as error:
                    results[index].error = error
            if all(route is not ROUTE_OUTSIDE_LOCK for _, _, route in staged):
                return self._decide_staged_locked(staged, results)
        resolved = []
        for index, message, route in staged:
            if route is ROUTE_OUTSIDE_LOCK:
                try:
                    route = self._route_outside_lock(message)
                except (DeliveryError, UnknownEndpointError) as error:
                    with self._lock:
                        self.statistics.messages_dropped += 1
                    results[index].error = error
                    continue
            resolved.append((index, message, route))
        with self._lock:
            return self._decide_staged_locked(resolved, results)

    def _decide_staged_locked(
        self, staged: List[Tuple[int, Message, Any]], results: List[BatchResult]
    ) -> List[Admitted]:
        admitted = []
        for index, message, route in staged:
            try:
                decision = self._decide_locked(message, route)
            except DeliveryError as error:
                results[index].error = error
                continue
            admitted.append((index, message, route, decision))
        return admitted

    # -- delivery -----------------------------------------------------------------

    def _deliver(self, route: Any, message: Message, decision: FaultDecision) -> Any:
        """Run one admitted delivery and return the handler's reply."""
        if not isinstance(route, Endpoint):
            return self._deliver_remote(route, message, decision)
        if decision.latency:
            self.clock.sleep(decision.latency)
        # Batch dispatch may hop threads: restore the sender's span context
        # around the handler so responder spans stay parented to the run.
        if decision.duplicate:
            _tracing.call_in_ctx(message.trace, route.handler, message)
        return _tracing.call_in_ctx(message.trace, route.handler, message)

    def _deliver_remote(
        self, route: Any, message: Message, decision: FaultDecision
    ) -> Any:
        """The transport's delivery leg for a non-local route."""
        raise NotImplementedError

    def _send(self, sender: str, destination: str, operation: str, payload: Any) -> Any:
        result = BatchResult()
        admitted = self._admit(sender, [(destination, operation, payload)], [result])
        if not admitted:
            raise result.error
        _, message, route, decision = admitted[0]
        return self._deliver(route, message, decision)

    def _send_batch(
        self, sender: str, entries: List[Tuple[str, str, Any]]
    ) -> List[BatchResult]:
        results = [BatchResult() for _ in entries]
        admitted = self._admit(sender, entries, results)
        # Injected reordering: flagged entries are deferred behind the rest
        # of the wave (a stable shuffle, so the fault sequence stays
        # deterministic).  Statistics were taken at admission in entry order
        # and are unaffected.
        if any(entry[3].reorder for entry in admitted):
            admitted = [e for e in admitted if not e[3].reorder] + [
                e for e in admitted if e[3].reorder
            ]

        def make_unit(
            index: int, message: Message, route: Any, decision: FaultDecision
        ) -> Callable[[], None]:
            def unit() -> None:
                try:
                    results[index].result = self._deliver(route, message, decision)
                except Exception as error:  # per-entry isolation, mirrors
                    results[index].error = error  # callers' per-peer semantics

            return unit

        self.dispatch.run([make_unit(*entry) for entry in admitted])
        return results

    # -- introspection -----------------------------------------------------------

    @property
    def trace(self) -> List[Message]:
        """Originated messages (only populated when ``trace_enabled`` is set)."""
        return self._recorder.messages()

    def clear_trace(self) -> None:
        self._recorder.clear()

    def set_trace_capacity(self, cap: int) -> None:
        """Re-bound the message recorder (existing entries are kept FIFO)."""
        self._recorder.set_cap(cap)

    def reset_statistics(self) -> None:
        self.statistics = NetworkStatistics()


class SimulatedNetwork(NetworkCore):
    """The in-process message fabric connecting organisations, TTPs and services.

    Destinations resolve through the endpoint table, subject to the manual
    :attr:`partition`; every delivery is an in-process handler call.
    """

    def __init__(
        self,
        clock: Optional[Clock] = None,
        dispatch: Optional[DispatchStrategy] = None,
        retry_scheduler: Optional[RetryScheduler] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        super().__init__(clock or SimulatedClock(), dispatch, retry_scheduler, fault_plan)
        self.partition = NetworkPartition()

    def _route_locked(self, message: Message) -> Endpoint:
        if self.partition.is_severed(message.sender, message.destination):
            raise DeliveryError(
                f"link {message.sender!r} -> {message.destination!r} is partitioned"
            )
        return super()._route_locked(message)

    def send(self, sender: str, destination: str, operation: str, payload: Any) -> Any:
        """Deliver a message and return the destination handler's reply.

        Raises :class:`DeliveryError` when the message is lost (injected
        fault, partitioned link or offline destination) and
        :class:`UnknownEndpointError` for an unregistered destination.
        Callers needing guaranteed delivery wrap sends in a
        :class:`repro.transport.delivery.ReliableChannel`.
        """
        return self._send(sender, destination, operation, payload)

    def send_batch(
        self, sender: str, entries: List[Tuple[str, str, Any]]
    ) -> List[BatchResult]:
        """Deliver a fan-out of messages, accounting each exactly like ``send``.

        ``entries`` is a list of ``(destination, operation, payload)``
        triples.  Payloads that share pre-canonicalised content (tokens,
        proposal bodies) are sized from their cached encodings, so the shared
        body is never re-encoded per recipient; per-message statistics are
        identical to an equivalent sequence of individual sends.  The
        admitted handlers run through the configured
        :class:`DispatchStrategy`.  Failures are returned per entry
        (:class:`BatchResult`) rather than raised, so one lost link never
        masks the remaining deliveries.
        """
        return self._send_batch(sender, entries)
