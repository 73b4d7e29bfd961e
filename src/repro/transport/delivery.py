"""Reliable delivery on top of the lossy simulated network.

The trusted-interceptor assumptions only require *eventual* delivery under a
bounded number of temporary failures.  :class:`ReliableChannel` provides that
guarantee by retrying sends according to a :class:`RetryPolicy`; the retry
count and backoff are accounted against the simulated clock so liveness
benchmarks can report time-to-completion under injected faults.

Two retry execution modes share one policy:

* **Blocking** (no scheduler): the classic loop -- attempt, sleep the
  backoff on the calling thread, reattempt.  This is the reference
  behaviour; its statistics are the baseline every other mode is
  property-tested against.
* **Scheduled** (a :class:`repro.transport.scheduler.RetryScheduler` is
  attached to the channel or its network): each failed attempt registers a
  deferred reattempt with the scheduler and returns a
  :class:`~repro.transport.scheduler.DeliveryFuture` instead of sleeping.
  The state machine per send is attempt -> outcome -> either complete the
  future (success, permanent failure, exhausted budget) or schedule the next
  attempt at ``now + backoff``.  Waiting on the future drives the scheduler,
  so concurrent runs interleave their retry backoffs instead of summing
  them.  The blocking entry points (``send`` / ``send_batch``) transparently
  delegate to the scheduled machinery when a scheduler is present, which
  keeps every caller working unchanged.
"""

from __future__ import annotations

import hashlib
import hmac as hmac_module
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.clock import Clock
from repro.errors import DeliveryError, UnknownEndpointError
from repro.transport.network import BatchResult, SimulatedNetwork
from repro.transport.scheduler import DeliveryFuture, RetryScheduler, TimerHandle

#: ``RetryPolicy.jitter`` values.
JITTER_NONE = "none"
JITTER_FULL = "full"


@dataclass(frozen=True)
class RetryPolicy:
    """Retry behaviour for a reliable channel.

    ``jitter="full"`` opts into full-jitter backoff: each retry sleeps a
    deterministic pseudo-random fraction of the exponential delay, spreading
    the retry storms of many channels that tripped at the same instant.  The
    fraction is a pure function of ``(jitter_seed, attempt)`` -- no mutable
    RNG state -- so blocking and scheduled execution of the same policy stay
    byte-identical and a seeded test reproduces its exact timings.  The
    default (``jitter="none"``) preserves the historical fixed schedule.
    """

    max_attempts: int = 10
    backoff_seconds: float = 0.05
    backoff_multiplier: float = 2.0
    max_backoff_seconds: float = 2.0
    jitter: str = JITTER_NONE
    jitter_seed: bytes = b""

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_seconds < 0 or self.max_backoff_seconds < 0:
            raise ValueError("backoff values must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1.0")
        if self.jitter not in (JITTER_NONE, JITTER_FULL):
            raise ValueError(
                f"jitter must be {JITTER_NONE!r} or {JITTER_FULL!r}, "
                f"got {self.jitter!r}"
            )

    def backoff_for_attempt(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        delay = self.backoff_seconds * (self.backoff_multiplier ** attempt)
        delay = min(delay, self.max_backoff_seconds)
        if self.jitter == JITTER_FULL and delay > 0:
            digest = hmac_module.new(
                self.jitter_seed or b"repro-retry-jitter",
                attempt.to_bytes(8, "big"),
                hashlib.sha256,
            ).digest()
            fraction = int.from_bytes(digest[:8], "big") / 2**64
            delay *= fraction
        return delay


class ReliableChannel:
    """Retrying sender bound to one source address on a network."""

    def __init__(
        self,
        network: SimulatedNetwork,
        source: str,
        policy: Optional[RetryPolicy] = None,
        clock: Optional[Clock] = None,
        scheduler: Optional[RetryScheduler] = None,
        run_id: Optional[str] = None,
    ) -> None:
        self._network = network
        self._source = source
        self._policy = policy or RetryPolicy()
        self._clock = clock or network.clock
        self._scheduler = (
            scheduler if scheduler is not None else network.retry_scheduler
        )
        #: Protocol run this channel's deliveries belong to; scheduled retry
        #: timers carry the tag so ``RetryScheduler.cancel_run`` can withdraw
        #: them when the run is aborted (their futures then resolve through
        #: the same cancellation path ``close`` uses).
        self._run_id = run_id
        self._counter_lock = threading.Lock()
        self._pending: Dict[TimerHandle, Callable[[], None]] = {}
        self._closed = False
        self.attempts_made = 0
        self.retries_made = 0

    @property
    def source(self) -> str:
        return self._source

    @property
    def policy(self) -> RetryPolicy:
        return self._policy

    @property
    def scheduler(self) -> Optional[RetryScheduler]:
        return self._scheduler

    def _count(self, attempts: int, retries: int) -> None:
        """Update the retry accounting; scheduled reattempts fire on any thread."""
        with self._counter_lock:
            self.attempts_made += attempts
            self.retries_made += retries

    # -- circuit breaker ---------------------------------------------------------
    #
    # When the network carries a per-peer CircuitBreaker (see
    # ``NetworkCore.attach_circuit_breaker``), every attempt consults it
    # first: an open circuit turns the attempt into a local, retryable
    # refusal -- the retry budget still burns (so exhaustion semantics are
    # unchanged) but no socket is touched and no network attempt counter
    # moves.  The breaker is read at attempt time, so attaching one to a
    # network immediately covers its live channels.  Without a breaker the
    # behaviour is byte-identical to earlier releases.

    def _refused_by_breaker(self, destination: str) -> Optional[DeliveryError]:
        breaker = self._network.circuit_breaker
        if breaker is None or breaker.allow(destination):
            return None
        self._network.record_circuit_refusal(destination)
        return DeliveryError(
            f"circuit for {destination!r} is open; attempt refused locally"
        )

    def _record_outcome(self, destination: str, error: Optional[Exception]) -> None:
        """Feed a network attempt's outcome to the breaker (if any).

        Only :class:`DeliveryError` counts as a failure -- permanent
        :class:`UnknownEndpointError` and handler-raised exceptions say
        nothing about link health.
        """
        breaker = self._network.circuit_breaker
        if breaker is None:
            return
        if error is None:
            breaker.record_success(destination)
        elif isinstance(error, DeliveryError):
            breaker.record_failure(destination)

    # -- blocking entry points --------------------------------------------------

    def send(self, destination: str, operation: str, payload: Any) -> Any:
        """Send with retries; raise :class:`DeliveryError` when the budget is spent.

        Unknown endpoints fail immediately (retrying cannot help), matching
        the distinction between temporary and permanent failures.  With a
        retry scheduler attached the wait is event-driven: this thread
        drives other runs' pending retries while its own backoffs elapse.
        """
        if self._scheduler is not None:
            return self.send_scheduled(destination, operation, payload).result()
        last_error: Optional[Exception] = None
        for attempt in range(self._policy.max_attempts):
            self._count(attempts=1, retries=1 if attempt > 0 else 0)
            if attempt > 0:
                self._clock.sleep(self._policy.backoff_for_attempt(attempt - 1))
            refused = self._refused_by_breaker(destination)
            if refused is not None:
                last_error = refused
                continue
            try:
                reply = self._network.send(
                    self._source, destination, operation, payload
                )
            except UnknownEndpointError:
                raise
            except DeliveryError as error:
                self._record_outcome(destination, error)
                last_error = error
                continue
            self._record_outcome(destination, None)
            return reply
        raise DeliveryError(
            f"delivery from {self._source!r} to {destination!r} failed after "
            f"{self._policy.max_attempts} attempts: {last_error}"
        )

    def send_batch(
        self, entries: List[Tuple[str, str, Any]]
    ) -> List[BatchResult]:
        """Send a fan-out of ``(destination, operation, payload)`` entries.

        Each entry gets the same retry guarantee as :meth:`send`, but all
        still-pending entries of one attempt go through a single
        :meth:`SimulatedNetwork.send_batch` call, and the backoff between
        attempts is paid once for the whole batch rather than once per
        destination.  Per-entry failures are reported in the returned
        :class:`BatchResult` list instead of being raised, so one unreachable
        peer never masks the other deliveries.

        Under a parallel network dispatch strategy the entries of one
        attempt are delivered concurrently; with a retry scheduler the
        backoff between attempts is a timer rather than a sleep, so the
        calling thread's wait overlaps with every other run's retries.
        """
        if self._scheduler is not None:
            futures = self.send_batch_scheduled(entries)
            return [future.outcome() for future in futures]
        results: List[BatchResult] = [BatchResult() for _ in entries]
        pending = list(range(len(entries)))
        for attempt in range(self._policy.max_attempts):
            if attempt > 0:
                self._count(attempts=0, retries=len(pending))
                self._clock.sleep(self._policy.backoff_for_attempt(attempt - 1))
            self._count(attempts=len(pending), retries=0)
            to_send: List[int] = []
            still_pending: List[int] = []
            for index in pending:
                refused = self._refused_by_breaker(entries[index][0])
                if refused is None:
                    to_send.append(index)
                else:
                    results[index] = BatchResult(error=refused)
                    still_pending.append(index)
            batch = (
                self._network.send_batch(
                    self._source, [entries[index] for index in to_send]
                )
                if to_send
                else []
            )
            for index, outcome in zip(to_send, batch):
                if outcome.error is None:
                    self._record_outcome(entries[index][0], None)
                    results[index] = outcome
                elif isinstance(outcome.error, UnknownEndpointError):
                    results[index] = outcome  # permanent: retrying cannot help
                elif isinstance(outcome.error, DeliveryError):
                    self._record_outcome(entries[index][0], outcome.error)
                    results[index] = outcome
                    still_pending.append(index)
                else:
                    results[index] = outcome  # handler-raised failure
            still_pending.sort()
            pending = still_pending
            if not pending:
                break
        for index in pending:
            results[index] = BatchResult(error=self._exhausted(entries[index][0], results[index].error))
        return results

    def _exhausted(self, destination: str, last_error: Optional[Exception]) -> DeliveryError:
        return DeliveryError(
            f"delivery from {self._source!r} to {destination!r} failed after "
            f"{self._policy.max_attempts} attempts: {last_error}"
        )

    def _closed_in_flight(
        self, destination: str, last_error: Optional[Exception]
    ) -> DeliveryError:
        return DeliveryError(
            f"channel at {self._source!r} closed with delivery "
            f"to {destination!r} in flight: {last_error}"
        )

    # -- scheduled state machines -----------------------------------------------

    def _require_scheduler(self) -> RetryScheduler:
        if self._scheduler is None:
            raise DeliveryError(
                f"channel at {self._source!r} has no retry scheduler attached"
            )
        return self._scheduler

    def _schedule_retry(
        self, delay: float, reattempt: Callable[[], None], on_cancel: Callable[[], None]
    ) -> None:
        """Register a deferred reattempt, tracked for cancellation.

        The timer carries the channel's run tag and its cancellation hook, so
        both :meth:`close` and a run-level ``RetryScheduler.cancel_run`` tear
        the reattempt down the same way: the timer leaves the heap and the
        affected futures resolve through ``on_cancel``.
        """
        scheduler = self._require_scheduler()
        cell: Dict[str, TimerHandle] = {}

        def fire() -> None:
            with self._counter_lock:
                self._pending.pop(cell.get("handle"), None)
                closed = self._closed
            if closed:
                on_cancel()
                return
            reattempt()

        def cancelled() -> None:
            with self._counter_lock:
                self._pending.pop(cell.get("handle"), None)
            on_cancel()

        with self._counter_lock:
            if self._closed:
                on_cancel()
                return
            handle = scheduler.schedule(
                delay, fire, run_id=self._run_id, on_cancel=cancelled
            )
            cell["handle"] = handle
            self._pending[handle] = on_cancel

    def send_scheduled(
        self, destination: str, operation: str, payload: Any
    ) -> DeliveryFuture:
        """Start the retrying send as a state machine; returns its future.

        The first attempt runs on the calling thread (so a healthy link is
        exactly as fast as a blocking send); failed attempts schedule their
        reattempt and return, leaving the thread free.  The future resolves
        to the destination handler's reply or fails with the same errors
        :meth:`send` raises.
        """
        scheduler = self._require_scheduler()
        future = DeliveryFuture(scheduler)

        def retry_or_exhaust(attempt_no: int, error: Exception) -> None:
            next_attempt = attempt_no + 1
            if next_attempt >= self._policy.max_attempts:
                future.fail(self._exhausted(destination, error))
                return
            self._schedule_retry(
                self._policy.backoff_for_attempt(attempt_no),
                lambda: attempt(next_attempt),
                on_cancel=lambda: future.fail(
                    self._closed_in_flight(destination, error)
                ),
            )

        def attempt(attempt_no: int) -> None:
            self._count(attempts=1, retries=1 if attempt_no > 0 else 0)
            refused = self._refused_by_breaker(destination)
            if refused is not None:
                retry_or_exhaust(attempt_no, refused)
                return
            try:
                reply = self._network.send(
                    self._source, destination, operation, payload
                )
            except UnknownEndpointError as error:
                future.fail(error)  # permanent: no reattempt is scheduled
                return
            except DeliveryError as error:
                self._record_outcome(destination, error)
                retry_or_exhaust(attempt_no, error)
                return
            except Exception as error:  # handler-raised: propagate, no retry
                future.fail(error)
                return
            self._record_outcome(destination, None)
            future.complete(reply)

        attempt(0)
        return future

    def send_batch_scheduled(
        self, entries: List[Tuple[str, str, Any]]
    ) -> List[DeliveryFuture]:
        """Start a retrying fan-out; returns one future per entry.

        Retry grouping matches :meth:`send_batch` exactly -- all
        still-pending entries of one attempt go through a single network
        batch and share one backoff timer -- so attempt accounting, network
        statistics and fault-plan draws are identical to the blocking path.
        Entry futures resolve individually (to the entry's
        :class:`BatchResult`) as soon as their outcome is decided; only the
        still-failing remainder stays in the state machine.
        """
        scheduler = self._require_scheduler()
        futures = [DeliveryFuture(scheduler) for _ in entries]

        def attempt(attempt_no: int, pending: List[int], last: Dict[int, Exception]) -> None:
            self._count(
                attempts=len(pending),
                retries=len(pending) if attempt_no > 0 else 0,
            )
            to_send: List[int] = []
            still_pending: List[int] = []
            for index in pending:
                refused = self._refused_by_breaker(entries[index][0])
                if refused is None:
                    to_send.append(index)
                else:
                    last[index] = refused
                    still_pending.append(index)
            try:
                batch = (
                    self._network.send_batch(
                        self._source, [entries[index] for index in to_send]
                    )
                    if to_send
                    else []
                )
            except Exception as error:  # noqa: BLE001 - must resolve the wave
                # The first attempt runs on the calling thread: propagate,
                # exactly like the blocking loop would (programming errors
                # stay loud).  Deferred reattempts fire on arbitrary driving
                # threads, where an escaping exception would leave every
                # pending future unresolved (and its waiters spinning) -- so
                # there infrastructure failures resolve the wave instead.
                if attempt_no == 0:
                    raise
                for index in pending:
                    futures[index].complete(BatchResult(error=error))
                return
            for index, outcome in zip(to_send, batch):
                if outcome.error is None or isinstance(
                    outcome.error, UnknownEndpointError
                ):
                    if outcome.error is None:
                        self._record_outcome(entries[index][0], None)
                    futures[index].complete(outcome)
                elif isinstance(outcome.error, DeliveryError):
                    self._record_outcome(entries[index][0], outcome.error)
                    last[index] = outcome.error
                    still_pending.append(index)
                else:
                    futures[index].complete(outcome)  # handler-raised failure
            still_pending.sort()
            if not still_pending:
                return
            next_attempt = attempt_no + 1
            if next_attempt >= self._policy.max_attempts:
                for index in still_pending:
                    futures[index].complete(
                        BatchResult(
                            error=self._exhausted(entries[index][0], last.get(index))
                        )
                    )
                return

            def cancel_pending() -> None:
                for index in still_pending:
                    futures[index].complete(
                        BatchResult(
                            error=self._closed_in_flight(
                                entries[index][0], last.get(index)
                            )
                        )
                    )

            self._schedule_retry(
                self._policy.backoff_for_attempt(attempt_no),
                lambda: attempt(next_attempt, still_pending, last),
                on_cancel=cancel_pending,
            )

        if entries:
            attempt(0, list(range(len(entries))), {})
        return futures

    # -- teardown ---------------------------------------------------------------

    def pending_retries(self) -> int:
        """Number of reattempts currently parked on the scheduler."""
        with self._counter_lock:
            return len(self._pending)

    def close(self) -> None:
        """Cancel in-flight retries; their futures fail as 'channel closed'.

        Idempotent.  Every cancelled timer is removed from the scheduler (no
        leaked timers) and every affected future completes, so no waiter is
        left hanging.  Attempts already executing on another thread complete
        their current network call but schedule no further reattempt.
        """
        with self._counter_lock:
            if self._closed:
                return
            self._closed = True
            pending = list(self._pending)
            self._pending.clear()
        for handle in pending:
            # The timer's on_cancel hook (registered at schedule time) fails
            # the affected futures; a handle that already fired resolved (or
            # will resolve) its future through the fire path instead.
            handle.cancel()
