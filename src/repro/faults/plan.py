"""Seeded, deterministic fault plans shared by both transports.

A :class:`FaultPlan` is a declarative schedule of faults -- message loss,
delay with jitter, duplication, reordering, frame corruption, connection
resets, partition windows and crash-at-failpoint -- and the only fault
engine in the package.  Both transports admit messages through the shared
:class:`~repro.transport.network.NetworkCore`, which draws one
:class:`FaultInjector` decision per resolved message:

* the :class:`~repro.transport.network.SimulatedNetwork` realises the
  decision in process (a lost message never reaches its handler, a
  duplicate invokes it twice);
* the :class:`~repro.transport.wire.network.WireNetwork` maps it onto
  *real* socket faults for remote destinations (a corrupt frame written to
  the peer, a reset connection, a skipped round trip), so injected
  failures flow through the genuine :class:`~repro.errors.DeliveryError`
  taxonomy and the genuine recovery machinery.

Determinism: every probabilistic decision is drawn from one
:class:`~repro.crypto.rng.SecureRandom` seeded by the plan, in admission
order, so a seed reproduces the exact fault sequence.  Partition windows
and crash failpoints are *counter*-based (message index / failpoint hit
count) and involve no draws at all.  The paper's bounded-failure assumption
is enforced across all loss faults: after ``max_consecutive_failures``
consecutive injected losses on one link the next message passes, which is
what keeps retrying senders live under arbitrarily aggressive plans.

The schedule DSL (:meth:`FaultPlan.to_schedule` /
:meth:`FaultPlan.from_schedule`) is plain JSON-serialisable data, so a
failing chaos run can dump its exact plan as an artifact and a developer
can replay it verbatim.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.crypto.rng import SecureRandom

__all__ = [
    "FAULT_KINDS",
    "LOSS_FAULTS",
    "FaultDecision",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
]

#: Every fault kind a rule may inject.
FAULT_KINDS = (
    "drop",
    "delay",
    "duplicate",
    "reorder",
    "corrupt",
    "reset",
    "partition",
    "crash",
)

#: Kinds that destroy the message in transit; they share the consecutive-loss
#: bound that guarantees eventual delivery for retrying senders.
LOSS_FAULTS = ("drop", "corrupt", "reset")

#: Kinds whose triggering is deterministic (window / hit-count based); their
#: rules carry no probability draw.
_DETERMINISTIC_FAULTS = ("partition", "crash")


@dataclass(frozen=True)
class FaultRule:
    """One scheduled fault.

    ``sender`` / ``destination`` / ``operation`` filter which messages the
    rule applies to (``None`` matches everything).  ``after_message`` /
    ``until_message`` bound the rule to a half-open window
    ``[after_message, until_message)`` of the injector's global message
    index -- for ``crash`` rules the window counts *failpoint hits* of
    ``failpoint`` instead.  ``max_shots`` caps how many times the rule may
    trigger over the plan's lifetime.

    ``partition`` and ``crash`` rules are deterministic (no probability
    draw); the other kinds roll ``probability`` per matching message.
    """

    fault: str
    probability: float = 1.0
    sender: Optional[str] = None
    destination: Optional[str] = None
    operation: Optional[str] = None
    after_message: int = 0
    until_message: Optional[int] = None
    latency_seconds: float = 0.0
    jitter_seconds: float = 0.0
    failpoint: Optional[str] = None
    max_shots: Optional[int] = None

    def __post_init__(self) -> None:
        if self.fault not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.fault!r}; expected one of {FAULT_KINDS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be within [0, 1], got {self.probability}"
            )
        if self.fault in _DETERMINISTIC_FAULTS and self.probability != 1.0:
            raise ValueError(
                f"{self.fault} rules are deterministic (window-based); "
                "probability must stay 1.0"
            )
        if self.latency_seconds < 0 or self.jitter_seconds < 0:
            raise ValueError("latency and jitter must be non-negative")
        if self.after_message < 0:
            raise ValueError("after_message must be non-negative")
        if self.until_message is not None and self.until_message <= self.after_message:
            raise ValueError("until_message must exceed after_message")
        if self.fault == "crash" and not self.failpoint:
            raise ValueError("crash rules need a failpoint= name to trigger at")
        if self.max_shots is not None and self.max_shots < 1:
            raise ValueError("max_shots must be at least 1")

    def matches(
        self, sender: str, destination: str, operation: str, index: int
    ) -> bool:
        """Does this rule apply to the message at global ``index``?"""
        if self.sender is not None and self.sender != sender:
            return False
        if self.destination is not None and self.destination != destination:
            return False
        if self.operation is not None and self.operation != operation:
            return False
        return self.in_window(index)

    def in_window(self, index: int) -> bool:
        if index < self.after_message:
            return False
        return self.until_message is None or index < self.until_message

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form; omits fields left at their defaults."""
        out: Dict[str, Any] = {"fault": self.fault}
        if self.probability != 1.0:
            out["probability"] = self.probability
        for name in ("sender", "destination", "operation", "failpoint"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        if self.after_message:
            out["after_message"] = self.after_message
        if self.until_message is not None:
            out["until_message"] = self.until_message
        if self.latency_seconds:
            out["latency_seconds"] = self.latency_seconds
        if self.jitter_seconds:
            out["jitter_seconds"] = self.jitter_seconds
        if self.max_shots is not None:
            out["max_shots"] = self.max_shots
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultRule":
        allowed = {
            "fault",
            "probability",
            "sender",
            "destination",
            "operation",
            "after_message",
            "until_message",
            "latency_seconds",
            "jitter_seconds",
            "failpoint",
            "max_shots",
        }
        unknown = set(data) - allowed
        if unknown:
            raise ValueError(f"unknown fault-rule fields: {sorted(unknown)}")
        return cls(**data)


def _coerce_seed(seed: Any) -> bytes:
    if isinstance(seed, bytes):
        return seed
    if isinstance(seed, int):
        return seed.to_bytes(8, "big", signed=True)
    if isinstance(seed, str):
        return seed.encode("utf-8")
    raise ValueError(f"seed must be bytes, int or str, got {type(seed).__name__}")


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded schedule of :class:`FaultRule` entries."""

    rules: Tuple[FaultRule, ...] = ()
    seed: bytes = b"fault-plan"
    max_consecutive_failures: int = 5
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        object.__setattr__(self, "seed", _coerce_seed(self.seed))
        if self.max_consecutive_failures < 0:
            raise ValueError("max_consecutive_failures must be non-negative")

    def rules_for(self, kind: str) -> List[Tuple[int, FaultRule]]:
        """``(rule index, rule)`` pairs of one kind, in declaration order."""
        return [
            (index, rule)
            for index, rule in enumerate(self.rules)
            if rule.fault == kind
        ]

    def injector(self) -> "FaultInjector":
        """A fresh injector drawing from this plan's seed."""
        return FaultInjector(plan=self)

    # -- schedule DSL -----------------------------------------------------------

    def to_schedule(self) -> Dict[str, Any]:
        """The plan as JSON-serialisable data (the chaos artifact format)."""
        return {
            "name": self.name,
            "seed": self.seed.hex(),
            "max_consecutive_failures": self.max_consecutive_failures,
            "rules": [rule.to_dict() for rule in self.rules],
        }

    @classmethod
    def from_schedule(cls, schedule: Dict[str, Any]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_schedule` data.

        ``seed`` may be a hex string (the serialised form), an int or a
        plain string; rules are :meth:`FaultRule.from_dict` dictionaries.
        """
        seed: Any = schedule.get("seed", b"fault-plan")
        if isinstance(seed, str):
            try:
                seed = bytes.fromhex(seed)
            except ValueError:
                pass  # a human-written schedule may use a plain-text seed
        return cls(
            rules=tuple(
                FaultRule.from_dict(rule) for rule in schedule.get("rules", [])
            ),
            seed=seed,
            max_consecutive_failures=schedule.get("max_consecutive_failures", 5),
            name=schedule.get("name", ""),
        )


@dataclass(frozen=True)
class FaultDecision:
    """The injector's verdict for one admitted message."""

    drop: bool = False
    duplicate: bool = False
    reorder: bool = False
    corrupt: bool = False
    reset: bool = False
    partitioned: bool = False
    latency: float = 0.0
    reason: str = ""

    @property
    def lost(self) -> bool:
        """True when the message never reaches its destination handler."""
        return self.drop or self.corrupt or self.reset or self.partitioned


#: The no-fault verdict, shared to keep the clean path allocation-free.
CLEAN_DECISION = FaultDecision()


@dataclass
class _RuleState:
    shots: int = 0


class FaultInjector:
    """Per-transport fault decision engine for one :class:`FaultPlan`.

    Evaluates the plan's rules in a fixed kind order -- partition (no
    draw), then the bounded loss kinds (drop, corrupt, reset), then delay,
    duplicate and reorder -- drawing one roll per matching rule whose
    probability is below 1.

    Thread-safe; networks call :meth:`decide` under their admission lock,
    server threads may call :meth:`should_trigger` concurrently.
    """

    def __init__(self, plan: FaultPlan, rng: Optional[SecureRandom] = None) -> None:
        self.plan = plan
        self._rng = rng if rng is not None else SecureRandom(plan.seed)
        self._lock = threading.Lock()
        self._consecutive: Dict[Tuple[str, str], int] = {}
        self._message_index = 0
        self._rule_state: Dict[int, _RuleState] = {}
        self._failpoint_hits: Dict[str, int] = {}
        self._by_kind = {kind: plan.rules_for(kind) for kind in FAULT_KINDS}
        self._has_loss_rules = any(self._by_kind[kind] for kind in LOSS_FAULTS)

    @property
    def message_index(self) -> int:
        """Messages decided so far (the next message's window index)."""
        with self._lock:
            return self._message_index

    def _roll(self) -> float:
        return self._rng.random_int_below(1_000_000) / 1_000_000.0

    # -- admission decisions -----------------------------------------------------

    def decide(self, sender: str, destination: str, operation: str) -> FaultDecision:
        """Decide the faults for one admitted message (in admission order)."""
        with self._lock:
            return self._decide_locked(sender, destination, operation)

    def _decide_locked(
        self, sender: str, destination: str, operation: str
    ) -> FaultDecision:
        index = self._message_index
        self._message_index += 1
        link = (sender, destination)

        # Partition windows: deterministic message-index intervals, no draws.
        for rule_index, rule in self._by_kind["partition"]:
            if not rule.matches(sender, destination, operation, index):
                continue
            if self._shots_exhausted(rule_index, rule):
                continue
            self._spend_shot(rule_index)
            return FaultDecision(
                partitioned=True,
                reason=(
                    f"partition window [{rule.after_message}, "
                    f"{rule.until_message}) at message {index}"
                ),
            )

        # Loss kinds share the bounded-failure counter: after
        # max_consecutive_failures consecutive losses on a link the next
        # message is admitted without any loss draw, guaranteeing eventual
        # delivery for retrying senders (the paper's bounded temporary
        # failures).  The reset happens BEFORE any draw, so a bounded-out
        # message spends no roll.
        if self._has_loss_rules:
            consecutive = self._consecutive.get(link, 0)
            if consecutive >= self.plan.max_consecutive_failures:
                self._consecutive[link] = 0
            else:
                for kind in LOSS_FAULTS:
                    for rule_index, rule in self._by_kind[kind]:
                        if not rule.matches(sender, destination, operation, index):
                            continue
                        if self._shots_exhausted(rule_index, rule):
                            continue
                        if rule.probability < 1.0 and self._roll() >= rule.probability:
                            continue
                        self._spend_shot(rule_index)
                        self._consecutive[link] = consecutive + 1
                        return FaultDecision(
                            **{kind: True},
                            reason=f"injected {kind} at message {index}",
                        )
                self._consecutive[link] = 0

        latency = 0.0
        for rule_index, rule in self._by_kind["delay"]:
            if not rule.matches(sender, destination, operation, index):
                continue
            if self._shots_exhausted(rule_index, rule):
                continue
            if rule.probability < 1.0 and self._roll() >= rule.probability:
                continue
            self._spend_shot(rule_index)
            extra = rule.latency_seconds
            if rule.jitter_seconds > 0:
                extra += self._roll() * rule.jitter_seconds
            latency += extra

        duplicate = self._roll_simple("duplicate", sender, destination, operation, index)
        reorder = self._roll_simple("reorder", sender, destination, operation, index)
        if not duplicate and not reorder and latency == 0.0:
            return CLEAN_DECISION
        return FaultDecision(duplicate=duplicate, reorder=reorder, latency=latency)

    def _roll_simple(
        self, kind: str, sender: str, destination: str, operation: str, index: int
    ) -> bool:
        for rule_index, rule in self._by_kind[kind]:
            if not rule.matches(sender, destination, operation, index):
                continue
            if self._shots_exhausted(rule_index, rule):
                continue
            if rule.probability < 1.0 and self._roll() >= rule.probability:
                continue
            self._spend_shot(rule_index)
            return True
        return False

    def _shots_exhausted(self, rule_index: int, rule: FaultRule) -> bool:
        if rule.max_shots is None:
            return False
        return self._rule_state.setdefault(rule_index, _RuleState()).shots >= rule.max_shots

    def _spend_shot(self, rule_index: int) -> None:
        self._rule_state.setdefault(rule_index, _RuleState()).shots += 1

    # -- failpoints ----------------------------------------------------------------

    def should_trigger(self, failpoint: str) -> bool:
        """Consult the plan's crash rules for one failpoint hit.

        Deterministic: crash rules fire by *hit count* (``after_message`` /
        ``until_message`` bound the hit window), never by probability draw,
        so concurrent server threads cannot perturb the admission RNG.
        """
        with self._lock:
            hits = self._failpoint_hits.get(failpoint, 0)
            self._failpoint_hits[failpoint] = hits + 1
            for rule_index, rule in self._by_kind["crash"]:
                if rule.failpoint != failpoint:
                    continue
                if not rule.in_window(hits):
                    continue
                if self._shots_exhausted(rule_index, rule):
                    continue
                self._spend_shot(rule_index)
                return True
        return False
