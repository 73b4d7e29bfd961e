"""Outside-in layer ledger: spans recorded around the public calls of each layer.

Nothing under ``src/`` is edited.  :class:`Ledger` replaces a layer's public
function (a module attribute or a class attribute) with a wrapper that
records one span per call -- its name, start, end and parent, the parent
being the innermost wrapped call still open on the same thread -- and
restores the original on :meth:`Ledger.uninstall`.  Spans are folded into
per-name aggregates as they close, so a long run keeps a bounded amount of
memory: a span's *self time* is its duration minus the time covered by the
wrapped spans it caused on its thread.

A few spans feed distributions instead of totals: the wire round trip
(``ConnectionPool.request``), the executor hop (``parallel.submit`` to the
moment the submitted thunk starts) and the per-call time of
``StateStore.record_version`` (for its age ratio).
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from typing import Any, Callable, Dict, List, Tuple

#: (module path, attribute path, span name) of every wrapped call.  The span
#: name's first dotted part is the layer; ``BENCHMARK.json`` derives its
#: per-layer metric names from these.
TRACE_POINTS: List[Tuple[str, str, str]] = [
    ("repro.codec", "canonicalize", "codec.canonicalize"),
    ("repro.codec", "encode", "codec.encode"),
    ("repro.crypto.signature", "SignatureScheme.sign", "crypto.sign"),
    ("repro.crypto.signature", "SignatureScheme.verify", "crypto.verify"),
    ("repro.core.evidence", "EvidenceBuilder.build", "evidence.build"),
    ("repro.core.evidence", "EvidenceVerifier.require_valid", "evidence.require_valid"),
    ("repro.persistence.evidence_store", "EvidenceStore.store", "evidence_store.store"),
    (
        "repro.persistence.evidence_store",
        "EvidenceStore.evidence_for_run",
        "evidence_store.evidence_for_run",
    ),
    ("repro.persistence.state_store", "StateStore.record_version", "state_store.record_version"),
    ("repro.persistence.run_journal", "RunJournal.record_proposed", "run_journal.record_proposed"),
    (
        "repro.persistence.run_journal",
        "RunJournal.record_committed",
        "run_journal.record_committed",
    ),
    ("repro.persistence.run_journal", "RunJournal.record_settled", "run_journal.record_settled"),
    ("repro.persistence.audit_log", "AuditLog.append", "audit_log.append"),
    ("repro.transport.network", "SimulatedNetwork.send", "network.send"),
    ("repro.transport.network", "SimulatedNetwork.send_batch", "network.send_batch"),
    ("repro.transport.wire.network", "WireNetwork.send", "network.send"),
    ("repro.transport.wire.network", "WireNetwork.send_batch", "network.send_batch"),
    ("repro.transport.network", "Message.encoded_size", "network.encoded_size"),
    ("repro.core.coordinator", "B2BCoordinator.deliver_request", "coordinator.deliver_request"),
    ("repro.core.nr_interceptors", "ClientNRInterceptor.invoke", "nr_interceptors.client_invoke"),
    ("repro.core.nr_interceptors", "ServerNRInterceptor.invoke", "nr_interceptors.server_invoke"),
    ("repro.transport.scheduler", "RetryScheduler.schedule", "scheduler.schedule"),
    ("repro.parallel", "submit", "parallel.submit"),
    ("repro.transport.wire.connection", "ConnectionPool.request", "wire.request"),
    ("repro.transport.wire.wirecodec", "encode_body", "wirecodec.encode_body"),
    ("repro.transport.wire.wirecodec", "decode_body", "wirecodec.decode_body"),
]

#: Span names whose every duration is kept (not only summed).
_DISTRIBUTIONS = ("wire.request", "state_store.record_version")


def span_names() -> List[str]:
    """Distinct span names, in ``TRACE_POINTS`` order."""
    return list(dict.fromkeys(name for _, _, name in TRACE_POINTS))


class Ledger:
    """Per-process span aggregates for the wrapped layer calls."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: List[Tuple[Any, str, Any]] = []
        self.reset()

    def reset(self) -> None:
        """Forget every recorded span (wrappers stay installed)."""
        with self._lock:
            #: span name -> [calls, self ns]
            self.totals: Dict[str, List[int]] = {name: [0, 0] for name in span_names()}
            #: span name -> inclusive durations in ns, in completion order
            self.durations: Dict[str, List[int]] = {name: [] for name in _DISTRIBUTIONS}
            #: submit-to-start waits of executor hops, in ns
            self.hop_waits: List[int] = []

    # -- recording ---------------------------------------------------------------

    def _stack(self) -> List[List[int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, name: str, frame: List[int], end: int) -> None:
        duration = end - frame[0]
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][1] += duration  # the parent's time covered by children
        with self._lock:
            totals = self.totals[name]
            totals[0] += 1
            totals[1] += duration - frame[1]
            if name in self.durations:
                self.durations[name].append(duration)

    def _wrap(self, original: Callable, name: str) -> Callable:
        clock = time.perf_counter_ns
        ledger = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            frame = [clock(), 0]  # start, time covered by child spans
            ledger._stack().append(frame)
            try:
                return original(*args, **kwargs)
            finally:
                ledger._close(name, frame, clock())

        return traced

    def _wrap_submit(self, original: Callable) -> Callable:
        """``parallel.submit`` also times the hop until its thunk starts."""
        clock = time.perf_counter_ns
        ledger = self

        def submit(thunk, *args, **kwargs):
            submitted = clock()

            def hop():
                waited = clock() - submitted
                with ledger._lock:
                    ledger.hop_waits.append(waited)
                thunk()

            return original(hop, *args, **kwargs)

        return self._wrap(submit, "parallel.submit")

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every trace point, importing the layers as needed."""
        if self._installed:
            raise RuntimeError("ledger already installed")
        for module_name, attribute, name in TRACE_POINTS:
            owner: Any = importlib.import_module(module_name)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            # The raw attribute (a plain function on both modules and classes):
            # restoring it must not leave a bound or inherited copy behind.
            original = owner.__dict__[leaf]
            if name == "parallel.submit":
                replacement = self._wrap_submit(original)
            else:
                replacement = self._wrap(original, name)
            setattr(owner, leaf, replacement)
            self._installed.append((owner, leaf, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._installed:
            owner, leaf, original = self._installed.pop()
            setattr(owner, leaf, original)

    # -- export -------------------------------------------------------------------

    def export(self) -> Dict[str, Any]:
        """A JSON-ready copy of the aggregates (for shipping across processes)."""
        with self._lock:
            return {
                "totals": {name: list(value) for name, value in self.totals.items()},
                "durations": {name: list(value) for name, value in self.durations.items()},
                "hop_waits": list(self.hop_waits),
            }


def merge(exports: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum the exports of several processes into one."""
    merged: Dict[str, Any] = {
        "totals": {name: [0, 0] for name in span_names()},
        "durations": {name: [] for name in _DISTRIBUTIONS},
        "hop_waits": [],
    }
    for export in exports:
        for name, (calls, self_ns) in export["totals"].items():
            merged["totals"][name][0] += calls
            merged["totals"][name][1] += self_ns
        for name, values in export["durations"].items():
            merged["durations"][name].extend(values)
        merged["hop_waits"].extend(export["hop_waits"])
    return merged
