"""The reference loop that end-to-end times are scaled by.

The machine this benchmark runs on changes speed by tens of percent
over seconds to minutes, as neighbours come and go.  A fixed piece of
pure-Python work -- building nested tuples and frozensets and interning
them in a dict, the kind of work the engine does, importing nothing
from ``repro`` -- is timed just before and just after each operation.
A round's scale factor is ``NOMINAL_REF_S`` over the median of all its
reference times, and every time the round measured is multiplied by
it.  The median over the round, not the pair around one operation, is
used because a single reference measurement is itself noisy while the
drift it corrects is slow.
"""

import gc
import statistics
import time

#: Reference time, in seconds, that scaled times are normalised to: the
#: median of :func:`reference_seconds` on a 2-core x86-64 VM at
#: 2.1 GHz.  Changing it rescales every end-to-end time.
NOMINAL_REF_S = 0.040

#: Chunks per reference measurement, and configurations per chunk.
CHUNKS = 4
CONFIGURATIONS = 5_000

#: Process-state-like values the chunks combine.
_STATES = [(i, (i * 7) % 13, ("s", i % 5)) for i in range(64)]


def _chunk(salt):
    """Intern configuration-like keys -- a pair of states plus a
    frozenset buffer -- into a dict: the allocation, hashing and probing
    the engine and the legacy explorer spend their time on."""
    index = {}
    for i in range(CONFIGURATIONS):
        a = _STATES[(i + salt) % 64]
        b = _STATES[(i * 31) % 64]
        buffer = frozenset({(a[1], i % 3), (b[1], i % 7), ("m", i % 11)})
        key = (a, b, buffer)
        if index.get(key) is None:
            index[key] = {"id": i, "states": (a, b)}
    return len(index)


def reference_seconds():
    """Wall time of the reference work (``CHUNKS`` chunks, summed).

    The cyclic collector is off while it runs: the chunks allocate
    enough containers to start collections, whose cost grows with
    whatever the round holds in memory (a 100k-configuration graph in
    ``deep`` nearly doubled it), and the reference must measure the
    machine, not the round's heap.
    """
    gc.collect()
    gc.disable()
    try:
        total = 0.0
        for salt in range(CHUNKS):
            started = time.perf_counter()
            _chunk(salt)
            total += time.perf_counter() - started
    finally:
        gc.enable()
    return total


#: Metrics in seconds or milliseconds, and metrics per second.
TIMES = {"setup_s", "round_s", "check_s", "save_s", "resume_s", "attack_s",
         "reduced_attack_s", "cold_s", "hit_ms"}
RATES = {"explore_nodes_per_s"}


def factor(references):
    """The scale factor of a round that took these reference times."""
    return NOMINAL_REF_S / statistics.median(references)


def scale(metrics, factor):
    """Reference-scaled copies of a round's raw metrics."""
    return {
        name: (value * factor if name in TIMES
               else value / factor if name in RATES else value)
        for name, value in metrics.items()
    }
