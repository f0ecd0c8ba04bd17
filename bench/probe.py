"""Host speed probe: the CPU time of a fixed reference computation, sampled
all through a round.

On a shared virtual machine the same round's CPU time moves by 15-30% within
minutes, because other guests on the host share the physical cores and
caches.  Every INTERVAL_S of wall time a SIGALRM handler times one slice of
a fixed pure-Python computation (tuple keys, dict updates, a sort: the kind
of work catlog's kernel does) in the round's own process.  The median slice
time tracks the host's speed at the moments the round runs, and

    scaled = cpu_s * REFERENCE_SLICE_S / median slice

is the round's CPU time at the reference speed.  Slices are timed with
`process_time`, which leaves out time the hypervisor gives to other guests;
their own CPU time is subtracted from whatever they interrupted.
"""

from __future__ import annotations

import gc
import signal
import statistics
from array import array
from time import process_time

INTERVAL_S = 0.05
SLICE_ITEMS = 1500
# a typical median slice time on a 2-core x86-64 virtual machine with
# Python 3.11 (rounds saw 1.0 to 1.9 ms); it only fixes the scale: a round
# whose slices take this long is reported at its raw CPU time
REFERENCE_SLICE_S = 1.2e-3


def reference_slice() -> float:
    """CPU seconds of one slice of the reference computation, garbage
    collection held off so that the slice never collects the round's heap."""
    enabled = gc.isenabled()
    gc.disable()
    start = process_time()
    table: dict[tuple, tuple] = {}
    for i in range(SLICE_ITEMS):
        key = (i % 97, (i * 7) % 13)
        table[key] = table.get(key, ()) + (i,)
    sorted(table.items())
    spent = process_time() - start
    if enabled:
        gc.enable()
    return spent


class SpeedProbe:
    """Context manager that samples reference slices while it is open."""

    def __init__(self):
        self.samples = array("d")
        self._busy = False

    def spent(self) -> float:
        """CPU seconds taken by the slices so far."""
        return sum(self.samples)

    def scale(self) -> float:
        """REFERENCE_SLICE_S over the median slice time."""
        return REFERENCE_SLICE_S / statistics.median(self.samples)

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self.samples.append(reference_slice())
        finally:
            self._busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False
