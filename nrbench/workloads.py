"""The benchmark's workloads: seeded operation streams and the systems they drive.

Every workload builds its system from generated inputs only, through the
package's public API, and checks what the system returns.  Three workloads
stress different layers:

``share-fanout-8p``
    Closed loop, one client, 8 parties on the simulator (zero link delay, so
    latency is CPU time), in-memory stores, default RSA.  Three in five
    operations are updates spread over 256 objects with a seeded mix of
    ~100 B and ~10 KB payloads, so no object ages; the rest are NR
    invocations, which cost a fraction of an update.  *Why:* each update takes the (n-1)^2 forwarded-decision
    path, so codec, evidence verification/storage and network sizing do most
    of the work while the state history does little.
``b2b-mix-hot``
    Closed loop, 3 parties on the simulator over one SQLite file with
    durable runs and durable state.  A seeded interleaving of NR invocations
    of a quote service (45%), updates to ONE hot shared object (45%) and
    audit reads of an earlier run (10%: ``evidence_for_run`` plus verifying
    every token).  The hot object's history grows through the whole run and
    is never reset.  *Why:* state history (``record_version`` is
    O(history)), the run journal, the SQLite backend and the sign-heavy
    invocation path, with reads beside writes and little forwarding.
``wire-open-3p``
    Open loop, Poisson arrivals at a fixed rate.  This process proposes with
    ``propose_update_async`` under a deadline; a spawned peer process hosts
    the 2 responders behind ``WireTransport`` on 127.0.0.1 (HMAC scheme, so
    the wire stack and not the cryptography dominates).  Updates alternate
    with NR invocations, which run on one extra load thread.  Latency is timed
    from each request's due time.  *Why:* the only workload that crosses
    the wire codec, framing, connection pool, server threads and the
    scheduler/executor hops; an open loop shows the queueing a closed loop
    hides.
"""

from __future__ import annotations

import bisect
import concurrent.futures
import gc
import itertools
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import types
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Working directory for SQLite files; removed when the system closes.
WORK_ROOT = ROOT / ".nrbench-work"

FANOUT_PARTIES = 8
FANOUT_OBJECTS = 256
B2B_PARTIES = 3
WIRE_OBJECTS = 256
#: Arrivals per second of the wire workload's open loop, half updates and
#: half NR invocations: a third of what one proposer and one peer process
#: sustain on a 2-core host (~57 updates/s with one run in flight, ~125
#: invocations/s), so a neighbour's load on a shared host does not push the
#: queue towards saturation.  A 25 s run holds 250 samples of each kind.
WIRE_RATE = 20.0
WIRE_DEADLINE_SECONDS = 10.0
#: The open loop times a host-speed reference this long before an arrival is
#: due, if nothing is pending then, so that the reference delays no
#: operation.
IDLE_PROBE_SECONDS = 0.01
#: Operations per requested second of each closed loop.  A run performs
#: ``rate * seconds`` operations, a count fixed by the arguments alone, so
#: the history and evidence a run builds up depend on the seed and not on
#: the host's or the program's speed.  The rates are about what a 2-vCPU
#: host completes, so a run takes roughly the requested time there.
CLOSED_LOOP_RATE = {"share-fanout-8p": 100.0, "b2b-mix-hot": 135.0}
#: Operations run after set-up and before the timed phase.
WARMUP_OPERATIONS = 20

SMALL_PAYLOAD = 100
LARGE_PAYLOAD = 10_000


class QuoteService:
    """The provider's NR-protected business component."""

    def quote(self, part, quantity=1):
        return {"part": part, "quantity": quantity, "price": 100 * quantity}


def expected_quote(part: str, quantity: int) -> Dict[str, Any]:
    return {"part": part, "quantity": quantity, "price": 100 * quantity}


# -- operation streams ---------------------------------------------------------


@dataclass(frozen=True)
class Operation:
    """One generated request.  ``arg`` is the object index, the audit pick or
    the quote quantity; ``size`` the payload size of an update; ``gap`` the
    seconds since the previous arrival (open loop only)."""

    kind: str  # "update" | "invoke" | "audit"
    arg: float
    size: int = 0
    gap: float = 0.0


def operations(workload: str, seed: int) -> Iterator[Operation]:
    """The endless, seed-determined operation stream of ``workload``."""
    rng = random.Random(f"{workload}:{seed}")
    updates = 0  # an audit read needs an earlier run to read
    for index in itertools.count():
        roll = rng.random()
        size = LARGE_PAYLOAD if rng.random() < 0.3 else SMALL_PAYLOAD
        if workload == "share-fanout-8p":
            if roll < 0.4:
                yield Operation("invoke", rng.randrange(1, 100))
            else:
                yield Operation("update", rng.randrange(FANOUT_OBJECTS), size)
        elif workload == "b2b-mix-hot":
            if roll < 0.45:
                yield Operation("invoke", rng.randrange(1, 100))
            elif roll < 0.90 or not updates:
                updates += 1
                yield Operation("update", 0, SMALL_PAYLOAD)
            else:
                yield Operation("audit", rng.random())
        elif workload == "wire-open-3p":
            # Alternating kinds: a run holds as many invocations as updates,
            # and the updates visit the objects round-robin.
            gap = rng.expovariate(WIRE_RATE)
            if index % 2:
                yield Operation("invoke", rng.randrange(1, 100), gap=gap)
            else:
                yield Operation("update", index // 2 % WIRE_OBJECTS, size, gap=gap)
        else:
            raise ValueError(f"unknown workload {workload!r}")


def update_state(sequence: int, size: int) -> Dict[str, Any]:
    return {"seq": sequence, "blob": chr(97 + sequence % 26) * size}


# -- results -------------------------------------------------------------------


@dataclass
class Sample:
    kind: str
    seconds: float
    ok: bool
    #: Seconds :func:`hostspeed.reference` took right after the operation;
    #: 0 where the loop ran no reference.
    reference: float = 0.0


@dataclass
class Phase:
    """What one measured phase produced."""

    samples: List[Sample] = field(default_factory=list)
    seconds: float = 0.0
    #: Duration of each set-up, and the host-speed reference around each
    #: (empty where set-ups were not bracketed).
    setup_seconds: List[float] = field(default_factory=list)
    setup_references: List[float] = field(default_factory=list)
    lateness: List[float] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    #: Whether the end-of-run checks (replica digests, audit chains) held.
    checks_ok: bool = True
    #: Deltas of :func:`counters` over the phase, summed over processes.
    counts: Dict[str, int] = field(default_factory=dict)
    cpu_seconds: Dict[str, float] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    peer_ledger: Optional[Dict[str, Any]] = None

    def fail(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    def check(self, holds: bool, message: str) -> None:
        """Record an end-of-run check; one that does not hold fails the run."""
        if not holds:
            self.checks_ok = False
            self.fail(message)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- shared checks and counters ------------------------------------------------


def counters(statistics, organisations, objects) -> Dict[str, int]:
    """Program-side counters of this process, readable with or without the ledger.

    The signature-verification cache is process-wide; everything else sums
    over ``organisations`` (and, for state versions, over ``objects``).
    """
    from repro.crypto.signature import verification_cache_stats

    cache = verification_cache_stats()
    return {
        "messages": statistics.messages_sent,
        "bytes": statistics.bytes_delivered,
        "retries": sum(statistics.failed_attempts_per_destination().values()),
        "evidence_records": sum(org.evidence_store.total_records() for org in organisations),
        "evidence_bytes": sum(org.evidence_store.storage_bytes() for org in organisations),
        "audit_records": sum(len(org.audit_log) for org in organisations),
        "state_versions": sum(
            org.state_store.version_count(object_id)
            for org in organisations
            for object_id in objects
        ),
        "journaled_runs": sum(
            len(org.run_journal.all_runs())
            for org in organisations
            if org.run_journal is not None
        ),
        "cache_hits": cache["hits"],
        "verify_lookups": cache["hits"] + cache["misses"],
    }


def delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {key: after[key] - before.get(key, 0) for key in after}


def verify_run_evidence(organisation, run_id: str) -> None:
    """Re-verify every token ``organisation`` holds for ``run_id``."""
    from repro.core.evidence import EvidenceToken

    records = organisation.evidence_for_run(run_id)
    if not records:
        raise AssertionError(f"no evidence held for run {run_id}")
    for record in records:
        token = EvidenceToken.from_dict(record.token)
        organisation.evidence_verifier.require_valid(token, expected_run_id=run_id)


# -- systems -------------------------------------------------------------------


class Client:
    """Issues generated operations as the proposer and checks each result.

    A system sets ``proposer``, ``proxy`` (to the quote service) and
    ``objects``, and says in :meth:`propose` how an update is proposed and
    awaited.
    """

    def __init__(self) -> None:
        self.sequence = 0
        self.run_ids: List[str] = []
        self.touched = set()

    def propose(self, object_id: str, state: Dict[str, Any]):
        raise NotImplementedError

    def next_update(self, op: Operation) -> Tuple[str, Dict[str, Any]]:
        self.sequence += 1
        object_id = self.objects[int(op.arg)]
        self.touched.add(object_id)
        return object_id, update_state(self.sequence, op.size)

    def settle(self, outcome) -> None:
        if not outcome.agreed:
            raise AssertionError(f"update not agreed: {outcome.reason}")
        self.run_ids.append(outcome.run_id)

    def invoke(self, op: Operation) -> None:
        part = f"part-{int(op.arg)}"
        value = self.proxy.quote(part, int(op.arg))
        if value != expected_quote(part, int(op.arg)):
            raise AssertionError(f"wrong quote {value!r}")

    def execute(self, op: Operation) -> None:
        """Run one operation to completion; raise on any wrong result."""
        if op.kind == "update":
            self.settle(self.propose(*self.next_update(op)))
        elif op.kind == "invoke":
            self.invoke(op)
        else:
            if not self.run_ids:
                raise AssertionError("audit read before any run")
            run_id = self.run_ids[int(op.arg * len(self.run_ids))]
            verify_run_evidence(self.proposer, run_id)


def seeded_keypairs(label: str) -> Callable[[str], Any]:
    """A key-pair factory whose RSA keys follow from ``label`` and the party.

    Key generation searches for primes, and how long that takes depends on
    the random numbers drawn.  Fixed generator seeds give every run the same
    key-generation work, so ``setup_s`` moves only with the program and the
    host.  The keys are still generated by the program, inside the set-up.
    """
    from repro.crypto.rng import SecureRandom
    from repro.crypto.signature import get_scheme

    def factory(uri: str):
        rng = SecureRandom(seed=f"nrbench:{label}:{uri}".encode())
        return get_scheme("rsa").generate_keypair(rng=rng)

    return factory


class SimSystem(Client):
    """A simulated trust domain with one proposer/client and a quote provider.

    ``keys`` labels the seeded key pairs (see :func:`seeded_keypairs`).
    """

    def __init__(self, workload: str, keys: str = "0") -> None:
        from repro import ComponentDescriptor, TrustDomain

        super().__init__()
        self.workdir: Optional[str] = None
        keypair_factory = seeded_keypairs(keys)
        if workload == "share-fanout-8p":
            uris = [f"urn:nrbench:party{i}" for i in range(FANOUT_PARTIES)]
            self.domain = TrustDomain.create(uris, keypair_factory=keypair_factory)
            self.objects = [f"doc-{i:03d}" for i in range(FANOUT_OBJECTS)]
        else:
            WORK_ROOT.mkdir(exist_ok=True)
            self.workdir = tempfile.mkdtemp(prefix="b2b-", dir=WORK_ROOT)
            uris = [f"urn:nrbench:party{i}" for i in range(B2B_PARTIES)]
            self.domain = TrustDomain.create(
                uris,
                storage=f"sqlite:{Path(self.workdir) / 'store.db'}",
                durable_runs=True,
                durable_state=True,
                keypair_factory=keypair_factory,
            )
            self.objects = ["hot-object"]
        for object_id in self.objects:
            self.domain.share_object(object_id, update_state(0, 0))
        self.organisations = [self.domain.organisation(uri) for uri in uris]
        self.proposer = self.organisations[0]
        provider = self.organisations[-1]
        provider.deploy(
            QuoteService(), ComponentDescriptor(name="QuoteService", non_repudiation=True)
        )
        self.proxy = self.proposer.nr_proxy(provider, "QuoteService")

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            try:
                WORK_ROOT.rmdir()
            except OSError:
                pass  # another system still uses it

    def propose(self, object_id: str, state: Dict[str, Any]):
        return self.proposer.propose_update(object_id, state)

    def check(self, phase: Phase) -> None:
        """Replicas agree on every touched object; every audit chain holds."""
        for object_id in sorted(self.touched):
            digests = {org.controller.state_digest(object_id) for org in self.organisations}
            phase.check(len(digests) == 1, f"replicas of {object_id} disagree")
        for org in self.organisations:
            phase.check(org.audit_log.verify_integrity(), f"audit log of {org.uri} is broken")

    def counts(self) -> Dict[str, int]:
        return counters(self.domain.network.statistics, self.organisations, self.objects)

    def digests(self) -> List[str]:
        return [
            org.controller.state_digest(object_id).hex()
            for org in self.organisations
            for object_id in self.objects
        ]


def run_closed(system: Client, stream: Iterator[Operation], phase: Phase, count: int,
               probe: bool = False) -> None:
    """Closed loop: ``count`` operations, each starting when the previous returns.

    With ``probe``, each operation is followed by a timed host-speed
    reference, outside the operation's own time.
    """
    clock = time.perf_counter
    started = clock()
    for op in itertools.islice(stream, count):
        begin = clock()
        ok = True
        try:
            system.execute(op)
        except Exception as error:  # noqa: BLE001 - a failed operation is a sample
            ok = False
            phase.fail(f"{op.kind}: {type(error).__name__}: {error}")
        seconds = clock() - begin
        reference = hostspeed.timed_reference() if probe else 0.0
        phase.samples.append(Sample(op.kind, seconds, ok, reference))
    phase.seconds = clock() - started


# -- the wire workload ---------------------------------------------------------

WIRE_PARTIES = ["urn:nrbench:wire0", "urn:nrbench:wire1", "urn:nrbench:wire2"]


def wire_object(index: int) -> str:
    return f"wire-doc-{index:03d}"


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH", "")) if part
    )
    return env


class WireSystem(Client):
    """This process proposes; a spawned peer process hosts the responders."""

    def __init__(self, trace: bool) -> None:
        from repro import TrustDomain
        from repro.transport.wire import WireTransport

        super().__init__()
        arguments = [sys.executable, str(BENCH_DIR / "peer.py")]
        if trace:
            arguments.append("--trace")
        self.peer = subprocess.Popen(
            arguments,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=child_env(),
            cwd=str(ROOT),
        )
        self.transport = None
        try:
            hello = self.receive()
            address = ("127.0.0.1", hello["port"])
            self.transport = WireTransport(
                local_parties=WIRE_PARTIES[:1],
                peers={uri: address for uri in WIRE_PARTIES[1:]},
            )
            self.domain = TrustDomain.create(
                WIRE_PARTIES, transport=self.transport, scheme="hmac", async_runs=True
            )
            self.objects = [wire_object(i) for i in range(WIRE_OBJECTS)]
            for object_id in self.objects:
                self.domain.share_object(object_id, update_state(0, 0))
            self.proposer = self.domain.organisation(WIRE_PARTIES[0])
            # The provider lives in the peer process: the proxy needs only its URI.
            self.proxy = self.proposer.nr_proxy(
                types.SimpleNamespace(uri=WIRE_PARTIES[2]), "QuoteService"
            )
        except BaseException:
            self.close()
            raise

    def send(self, message: Dict[str, Any]) -> None:
        self.peer.stdin.write(json.dumps(message) + "\n")
        self.peer.stdin.flush()

    def receive(self) -> Dict[str, Any]:
        line = self.peer.stdout.readline()
        if not line:
            raise RuntimeError(f"peer process ended (exit {self.peer.wait(timeout=30)})")
        return json.loads(line)

    def close(self) -> None:
        if self.transport is not None:
            self.transport.close()
            self.transport = None
        if self.peer.poll() is None:
            try:
                self.send({"cmd": "stop"})
                self.peer.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.peer.kill()
                self.peer.wait(timeout=30)
        for stream in (self.peer.stdin, self.peer.stdout):
            try:
                stream.close()
            except OSError:
                pass

    def propose_async(self, object_id: str, state: Dict[str, Any]):
        return self.proposer.propose_update_async(
            object_id, state, deadline=WIRE_DEADLINE_SECONDS
        )

    def propose(self, object_id: str, state: Dict[str, Any]):
        return self.propose_async(object_id, state).result(timeout=WIRE_DEADLINE_SECONDS * 2)

    def counts(self) -> Dict[str, int]:
        return counters(self.domain.network.statistics, [self.proposer], self.objects)

    def run_open(self, stream: Iterator[Operation], seconds: float, phase: Phase,
                 probe: bool = False) -> None:
        """Open loop: send each operation at its due time, whatever is pending.

        Only the kind and due time of each outstanding operation are kept,
        not its future, so finished runs' outcomes are garbage at once instead
        of growing the heap that the collector scans during the timed phase.

        With ``probe``, the generator times a host-speed reference in idle
        gaps (see ``IDLE_PROBE_SECONDS``), and each sample gets the reference
        taken nearest its due time.
        """
        clock = time.perf_counter
        settled = threading.Condition()
        pending: Dict[int, Tuple[str, float]] = {}  # key -> (kind, due)
        dues: List[float] = []  # the due time of each sample, in sample order
        probes: List[Tuple[float, float]] = []  # (when, reference seconds)
        invokers = concurrent.futures.ThreadPoolExecutor(max_workers=1)

        def record(key: int, error: str = "") -> None:
            finished = clock()
            with settled:
                entry = pending.pop(key, None)
                if entry is None:
                    return  # already recorded as never completed
                kind, due = entry
                phase.samples.append(Sample(kind, finished - due, not error))
                dues.append(due)
                if error:
                    phase.fail(f"{kind}: {error}")
                settled.notify_all()

        def attempt(key: int, action: Callable[[], None]) -> None:
            try:
                action()
            except Exception as error:  # noqa: BLE001 - a failed operation is a sample
                record(key, f"{type(error).__name__}: {error}")
            else:
                record(key)

        schedule = arrival_schedule(stream, seconds)
        started = clock()
        try:
            for key, (offset, op) in enumerate(schedule):
                due = started + offset
                lead = due - IDLE_PROBE_SECONDS - clock()
                if probe and lead > 0:
                    # Probe as late in the gap as leaves the reference time to
                    # finish, when the last operation's tail work is done too.
                    time.sleep(lead)
                    with settled:
                        idle = not pending
                    if idle:
                        probes.append((clock(), hostspeed.timed_reference()))
                wait = due - clock()
                if wait > 0:
                    time.sleep(wait)
                phase.lateness.append(clock() - due)
                with settled:
                    pending[key] = (op.kind, due)
                if op.kind == "update":
                    try:
                        future = self.propose_async(*self.next_update(op))
                    except Exception as error:  # noqa: BLE001
                        record(key, f"{type(error).__name__}: {error}")
                        continue
                    future.add_done_callback(
                        lambda done, key=key: attempt(
                            key, lambda: self.settle(done.result(timeout=0))
                        )
                    )
                else:
                    invokers.submit(attempt, key, lambda op=op: self.invoke(op))
            with settled:
                if not settled.wait_for(lambda: not pending, timeout=WIRE_DEADLINE_SECONDS * 3):
                    # Never answered: failures of their own kind, timed from due.
                    now = clock()
                    for kind, due in pending.values():
                        phase.samples.append(Sample(kind, now - due, False))
                        dues.append(due)
                    phase.fail(f"{len(pending)} operations never completed")
                    pending.clear()
        finally:
            invokers.shutdown(wait=True)
        with settled:
            phase.seconds = clock() - started
        if probes:
            times = [when for when, _ in probes]
            for sample, due in zip(phase.samples, dues):
                index = bisect.bisect_left(times, due)
                nearest = min(probes[max(0, index - 1): index + 1],
                              key=lambda entry: abs(entry[0] - due))
                sample.reference = nearest[1]


def arrival_schedule(stream: Iterator[Operation], seconds: float) -> List[Tuple[float, Operation]]:
    """Due offsets of a Poisson process at ``WIRE_RATE`` conditioned on holding
    exactly ``WIRE_RATE * seconds`` arrivals in ``seconds``.

    Scaling the cumulative exponential gaps of ``n + 1`` draws to the window
    gives the order statistics of ``n`` uniform arrivals, which is that
    conditioned process: bursts stay seed-dependent, the offered load does not.
    """
    count = max(1, round(WIRE_RATE * seconds))
    ops = [next(stream) for _ in range(count + 1)]
    scale = seconds / sum(op.gap for op in ops)
    offsets = itertools.accumulate(op.gap * scale for op in ops[:count])
    return list(zip(offsets, ops))


def wire_check(system: WireSystem, phase: Phase, report: Dict[str, Any]) -> None:
    """The peer's replicas match ours; both processes' audit chains hold."""
    for object_id in sorted(system.touched):
        mine = system.proposer.controller.state_digest(object_id).hex()
        theirs = report["digests"].get(object_id, [])
        phase.check(
            bool(theirs) and all(digest == mine for digest in theirs),
            f"replicas of {object_id} disagree across processes",
        )
    phase.check(
        system.proposer.audit_log.verify_integrity() and report["audit_ok"],
        "an audit log is broken",
    )


# -- measured runs ---------------------------------------------------------------


def timed_setups(build: Callable[[int], Any], repeats: int,
                 probe: bool = False) -> Tuple[Any, List[float], List[float]]:
    """Build the system ``repeats`` times, passing the set-up's index; keep
    the last, close the others.

    Returns the system, each set-up's seconds and, with ``probe``, the mean
    of the host-speed references taken just before and just after each.
    """
    times: List[float] = []
    references: List[float] = []
    system = None
    for index in range(repeats):
        before = hostspeed.bracket() if probe else 0.0
        begin = time.perf_counter()
        candidate = build(index)
        times.append(time.perf_counter() - begin)
        if probe:
            references.append((before + hostspeed.bracket()) / 2)
        if index + 1 < repeats:
            candidate.close()
        else:
            system = candidate
    return system, times, references


def warm_up(system: Client, stream: Iterator[Operation]) -> Phase:
    """Run the warm-up operations; return the timed phase, which inherits
    any warm-up failure."""
    warm = Phase()
    run_closed(system, stream, warm, WARMUP_OPERATIONS)
    # The throwaway set-ups are garbage now: collect them here so that the
    # timed phase never pays for the harness's own leftovers.
    gc.collect()
    return Phase(errors=warm.errors, checks_ok=not warm.errors)


def closed_loop_count(workload: str, seconds: float) -> int:
    return max(1, round(CLOSED_LOOP_RATE[workload] * seconds))


def run_sim(workload: str, seed: int, seconds: float, setups: int, ledger=None) -> Phase:
    """Set up, warm up, then measure a simulator workload's fixed operation count.

    Untraced, the set-ups and timed operations are probed with the host-speed
    reference; with a ``ledger`` the wrappers are installed for the timed
    phase only, and nothing is probed.
    """
    probe = ledger is None
    system, setup_times, setup_references = timed_setups(
        lambda index: SimSystem(workload, keys=str(index)), setups, probe
    )
    try:
        stream = operations(workload, seed)
        phase = warm_up(system, stream)
        phase.setup_seconds, phase.setup_references = setup_times, setup_references
        before = system.counts()
        cpu_before = time.process_time()
        if ledger is not None:
            ledger.reset()
            ledger.install()
        try:
            run_closed(system, stream, phase, closed_loop_count(workload, seconds), probe)
        finally:
            if ledger is not None:
                ledger.uninstall()
        phase.cpu_seconds["bench"] = time.process_time() - cpu_before
        phase.counts = delta(system.counts(), before)
        system.check(phase)
        phase.peak_rss_mb = peak_rss_mb()
        return phase
    finally:
        system.close()


def run_wire(seed: int, seconds: float, setups: int, ledger=None) -> Phase:
    """Set up (peer spawn and first connections included), warm up, measure.

    Untraced, the set-ups and the open loop's idle gaps are probed with the
    host-speed reference.
    """
    probe = ledger is None
    system, setup_times, setup_references = timed_setups(
        lambda index: WireSystem(trace=not probe), setups, probe
    )
    try:
        stream = operations("wire-open-3p", seed)
        phase = warm_up(system, stream)
        phase.setup_seconds, phase.setup_references = setup_times, setup_references
        before = system.counts()
        system.send({"cmd": "mark"})  # the peer collects and snapshots too
        system.receive()
        cpu_before = time.process_time()
        if ledger is not None:
            ledger.reset()
            ledger.install()
        try:
            system.run_open(stream, seconds, phase, probe)
            scheduler = system.domain.retry_scheduler
            phase.check(
                scheduler is None or scheduler.wait_quiescent(timeout=30),
                "scheduler never went quiescent",
            )
        finally:
            if ledger is not None:
                ledger.uninstall()
        phase.cpu_seconds["bench"] = time.process_time() - cpu_before
        system.send({"cmd": "report", "objects": sorted(system.touched)})
        report = system.receive()
        phase.cpu_seconds["peer"] = report["cpu_seconds"]
        mine = delta(system.counts(), before)
        phase.counts = {key: mine[key] + report["counts"][key] for key in mine}
        phase.peer_ledger = report.get("ledger")
        wire_check(system, phase, report)
        phase.peak_rss_mb = peak_rss_mb() + report["peak_rss_mb"]
        return phase
    finally:
        system.close()
