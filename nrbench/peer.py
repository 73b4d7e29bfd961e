"""Peer process of the ``wire-open-3p`` workload: hosts the two responders.

Started by the benchmark with ``PYTHONPATH`` pointing at ``src``.  It builds
its half of the wire trust domain (responder ``wire1`` and the quote
provider ``wire2``), shares the same objects as the proposer, then prints
one JSON line with its port.  Afterwards it answers JSON-line commands on
stdin:

``mark``    start of the timed phase: snapshot counters, reset the ledger;
``report``  replica digests of the named objects, audit-chain verdict,
            ``workloads.counters`` deltas since ``mark``, CPU seconds, peak RSS and (when
            started with ``--trace``) the ledger export;
``stop``    close the transport and exit.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from ledger import Ledger  # noqa: E402


def main() -> None:
    # Replies travel on the real stdout; anything else printed goes to stderr.
    replies = sys.stdout
    sys.stdout = sys.stderr

    def reply(message) -> None:
        replies.write(json.dumps(message) + "\n")
        replies.flush()

    from repro import ComponentDescriptor, TrustDomain
    from repro.transport.wire import WireTransport

    parties = workloads.WIRE_PARTIES
    transport = WireTransport(local_parties=parties[1:], await_remote_credentials=False)
    ledger = Ledger() if "--trace" in sys.argv[1:] else None
    objects = [workloads.wire_object(i) for i in range(workloads.WIRE_OBJECTS)]
    try:
        domain = TrustDomain.create(parties, transport=transport, scheme="hmac")
        for object_id in objects:
            domain.share_object(object_id, workloads.update_state(0, 0))
        organisations = [domain.organisation(uri) for uri in parties[1:]]
        organisations[-1].deploy(
            workloads.QuoteService(),
            ComponentDescriptor(name="QuoteService", non_repudiation=True),
        )
        reply({"port": transport.port})

        def counters():
            return workloads.counters(transport.network.statistics, organisations, objects)

        marked = counters()
        cpu_marked = time.process_time()
        for line in sys.stdin:
            command = json.loads(line)
            if command["cmd"] == "mark":
                gc.collect()  # start the timed phase without set-up garbage
                marked = counters()
                cpu_marked = time.process_time()
                if ledger is not None:
                    ledger.reset()
                    ledger.install()
                reply({"ok": True})
            elif command["cmd"] == "report":
                if ledger is not None:
                    ledger.uninstall()
                cpu = time.process_time() - cpu_marked
                reply(
                    {
                        "digests": {
                            object_id: [
                                org.controller.state_digest(object_id).hex()
                                for org in organisations
                            ]
                            for object_id in command["objects"]
                        },
                        "audit_ok": all(
                            org.audit_log.verify_integrity() for org in organisations
                        ),
                        "counts": workloads.delta(counters(), marked),
                        "cpu_seconds": cpu,
                        "peak_rss_mb": workloads.peak_rss_mb(),
                        "ledger": ledger.export() if ledger is not None else None,
                    }
                )
            elif command["cmd"] == "stop":
                break
    finally:
        transport.close()


if __name__ == "__main__":
    main()
