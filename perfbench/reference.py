"""The reference work that puts timings on a common clock.

The machine this benchmark was written on (a 2-vCPU VM shared with other
tenants) changes speed by 20-35% for minutes at a time, and the program's
own timings follow.  A run therefore interleaves fixed reference work with
its measurements and rescales each pass's times by ``nominal / median
reference time``: a timing reads as on this machine when it does the
reference work in the nominal time.  Two kinds of reference work match
the two kinds of operation:

- in-process operations: ``chunk()``, a loop of the interpreter work
  afftrans does (tuple keys, dict updates, Fraction arithmetic);
- operations that are whole processes (the CLI): ``START_ARGV``, the start
  and exit of a bare interpreter.

Neither touches afftrans, so no change to the program can move them.

The in-process operations slow down less than ``chunk()`` does: over
passes of identical work on that machine, log(loop time) against
log(chunk time) has a slope of 0.64 on translate-sweep and 0.69 on
tensor-sweep (correlation 0.95 and 0.91), and other loops of tuples,
sets and Fractions tracked no better.  Their rescaling factor is
therefore raised to ``CHUNK_EXPONENT``.  The bare interpreter start tracks
a CLI process in full, so its exponent is 1.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from time import perf_counter

#: Median ``chunk()`` time on the machine the benchmark was written on.
NOMINAL_S = 0.0022
#: How far in-process operation times follow the chunk time (log-log slope).
CHUNK_EXPONENT = 2 / 3
#: A bare interpreter, and its median wall time on that machine.
START_ARGV = [sys.executable, "-c", "pass"]
START_NOMINAL_S = 0.06


def chunk() -> float:
    """Run the fixed loop once and return its wall time in seconds."""
    start = perf_counter()
    table: dict = {}
    for i in range(600):
        key = (i % 7, i % 11, i % 13)
        table[key] = table.get(key, 0) + Fraction(i % 5, 3)
    return perf_counter() - start


def scale(samples: list[float], nominal: float, exponent: float) -> float:
    """Factor that rescales a pass's times to the nominal machine speed."""
    ordered = sorted(samples)
    return (nominal / ordered[len(ordered) // 2]) ** exponent
