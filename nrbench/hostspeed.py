"""Host-speed reference: report CPU-bound timings at one nominal host speed.

On a shared host the speed of a core moves by up to 2x, over seconds and
over minutes, with no steal time to show for it: a neighbour on the same
physical core or a clock change slows every instruction this process runs.
A workload's latency is mostly CPU time (on the simulator, zero link delay
makes it CPU time only), so it moves with the host as much as with the
program, and a set of runs that
straddles such a change spreads far past any useful bound.

The remedy measures the host at the same moments as the program.  After each
timed operation a closed loop runs :func:`reference`, a fixed computation
of this file's own, and records its duration; the open loop runs it in the
gaps of its schedule and gives each operation the one nearest in time.  The
operation's latency is rescaled by ``NOMINAL_SECONDS / local``, where ``local`` is the median
reference time over the nearest ``WINDOW`` operations on either side: a
latency "at the nominal host speed".  The reference never changes with the
program, so a faster program still reads faster; only the host's drift
cancels.  The raw wall-clock figures stay in the run's report line.

The reference does the kinds of work the program does -- dict and string
building, JSON encoding, SHA-256, a 1024-bit modular exponentiation -- and
then follows random links through a 10 MB table.  The walk matters: under a
neighbour's load the program, with its large heap, slowed more than compute
alone did.  Over 20 s windows of two noisy 4-minute runs, in which the
wall-clock update p50 spread by 21% and 27% between quartiles, rescaling by
the compute part alone left 4.5% and 9.9%, and by the whole reference 2.9%
and 3.3%.  It runs with the garbage collector paused, so it neither pays for
nor hides the program's collections.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import random
import statistics
import time
from typing import List, Sequence

#: Median duration of :func:`reference` on the 2-vCPU host the benchmark was
#: tuned on; rescaled timings are expressed at that speed.
NOMINAL_SECONDS = 0.4e-3
#: Operations on either side whose reference times form an operation's local
#: median: a few tens of milliseconds of a closed loop.  The host's speed
#: changes within a second, so the nearest references track it best; the
#: median of five smooths the reference's own jitter.  (Over 20 s windows
#: of one noisy run, widening this to 10, 50 and 200 widened the update p50's
#: quartile spread from 4.3% to 5.0%, 5.6% and 7.5%.)
WINDOW = 2
#: Reference calls timed before and after each set-up.
BRACKET_CALLS = 9

#: Entries of the walked table, about 10 MB of list slots and int objects,
#: and the links followed per reference.
WALK_ENTRIES = 1 << 18
WALK_STEPS = 1500

_MODULUS = (1 << 1023) | 0x9E3779B97F4A7C15
_EXPONENT = (1 << 64) | 0x10001


@functools.lru_cache(maxsize=None)
def walk_table() -> List[int]:
    """One random cycle through all ``WALK_ENTRIES`` slots, the same every run.

    Built once per process, on first use.
    """
    order = list(range(WALK_ENTRIES))
    random.Random(0).shuffle(order)
    table = [0] * WALK_ENTRIES
    for here, there in zip(order, order[1:] + order[:1]):
        table[here] = there
    return table


def reference() -> None:
    """The fixed computation whose duration stands for the host's speed."""
    table = {f"key-{index}": index * 7 for index in range(200)}
    text = json.dumps(table, sort_keys=True)
    digest = hashlib.sha256(text.encode()).digest()
    pow(int.from_bytes(digest, "big"), _EXPONENT, _MODULUS)
    links, index = walk_table(), 0
    for _ in range(WALK_STEPS):
        index = links[index]


def timed_reference() -> float:
    """Seconds one :func:`reference` call takes now, collector paused.

    An untimed call first brings the reference's code and data back into the
    caches the operation just used, so the timed call does not depend on what
    the operation left there.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        reference()
        begin = time.perf_counter()
        reference()
        return time.perf_counter() - begin
    finally:
        if enabled:
            gc.enable()


def bracket() -> float:
    """Median of a few reference calls: the host's speed at this moment."""
    return statistics.median(timed_reference() for _ in range(BRACKET_CALLS))


def local_medians(references: Sequence[float]) -> List[float]:
    """Each position's median over the ``WINDOW`` positions on either side."""
    return [
        statistics.median(references[max(0, index - WINDOW): index + WINDOW + 1])
        for index in range(len(references))
    ]


def rescale(seconds: Sequence[float], references: Sequence[float]) -> List[float]:
    """``seconds[i]`` at the nominal speed, given the reference time after each."""
    return [
        value * NOMINAL_SECONDS / local
        for value, local in zip(seconds, local_medians(references))
    ]
