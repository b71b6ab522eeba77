"""A speed probe, and the scaling of measured times to a fixed machine speed.

On a shared host a virtual CPU's speed drifts from second to second as other
tenants load its core: the same interpreted code takes anywhere from 1x to
about 2x as long.  A median over a whole run then follows the host's load, not
the program.  So the measuring process runs `probe` -- a fixed ~1 ms mix of
interpreted work like the library's (complex logarithms, small frozen
dataclasses, lgamma, a dict and a sort) -- between calls, at least every
PROBE_INTERVAL_NS.  The library's time tracks the probe's closely (a fitted
log-log slope of 0.9 on the 2-vCPU machine the benchmark was defined on,
against 1.2 to 1.6 for a bare arithmetic loop).

Each stretch between two probes is a segment.  Its wall time, and the latency
of every call in it, are multiplied by REFERENCE_NS / (mean of its two
probes): times as they would read with the probe at REFERENCE_NS, the probe's
duration at full speed on that machine.  A spawned process tracks the probe
less closely -- starting an interpreter is partly kernel and page-cache work;
its time against the probe's fitted log-log slopes of 0.35 to 0.65 -- so a
spawn is scaled by that ratio to the power SPAWN_EXPONENT.  Raw times are kept
beside the scaled ones.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass

PROBE_INTERVAL_NS = 100_000_000
REFERENCE_NS = 1_000_000
SPAWN_EXPONENT = 0.5


@dataclass(frozen=True)
class _Polar:
    log_mag: float
    arg: float

    def __mul__(self, other):
        return _Polar(self.log_mag + other.log_mag, math.fmod(self.arg + other.arg, 2 * math.pi))


def probe() -> int:
    """Duration in ns of a fixed piece of interpreted work."""
    t0 = time.perf_counter_ns()
    acc = _Polar(0.0, 0.0)
    total = 0j
    values = []
    for k in range(1, 330):
        w = complex(0.3 * k, 0.7)
        lw = cmath.log(w) + cmath.exp(-0.01 * w)
        acc = acc * _Polar(lw.real, lw.imag)
        total += lw / (k + 0.5)
        values.append(math.lgamma(1.0 + 0.01 * k))
    table = {i: values[i] for i in range(0, len(values), 3)}
    sorted(table.values(), reverse=True)
    return time.perf_counter_ns() - t0


def scale(before: int, after: int, exponent: float = 1.0) -> float:
    """Factor from raw to reference-speed time for a segment."""
    return (REFERENCE_NS / (0.5 * (before + after))) ** exponent
