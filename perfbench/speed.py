"""Reference-speed sampling: hardware-normalized timings.

The benchmark's host shares its cores with other tenants, and the speed
at which it runs the same Python code drifts by tens of percent over
minutes.  :class:`SpeedSampler` measures that drift *during* a timed
interval: a ``SIGALRM`` timer interrupts the main thread every
``INTERVAL_S`` seconds and times :func:`probe`, a fixed pure-Python
computation shaped like the program's hot path (tokenize, count n-grams
in a dict).  :meth:`SpeedSampler.normalize` turns a measured wall time
into *reference seconds*: the probe time is taken out, and the rest is
scaled by the mean of ``NOMINAL_PROBE_S / probe_time`` over the
interval, which is how much faster (>1) or slower (<1) than nominal the
core ran.  This is the same-run reference normalization the repository's
micro-benchmarks use, sampled densely enough to follow the drift.

The probe uses nothing from ``src/``, so no change to the program moves
it.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.01
# probe() on an uncontended core of the reference box (2-core VM):
# reference seconds equal wall seconds when the core runs at this speed
NOMINAL_PROBE_S = 0.00025

_WORDS = ("model", "config", "producer", "consumer", "0.5", "{", "}", "=",
          "nprocs", "workflow", "task", "inport", "outport", "args", "(", ")")
_TEXT = " ".join(_WORDS[(i * 7) % len(_WORDS)] for i in range(160))


def probe() -> float:
    """Seconds to tokenize a fixed text and count its 1- to 4-grams."""
    started = time.perf_counter()
    tokens = _TEXT.split()
    counts: dict = {}
    for n in range(1, 5):
        for i in range(len(tokens) - n + 1):
            gram = tuple(tokens[i:i + n])
            counts[gram] = counts.get(gram, 0) + 1
    return time.perf_counter() - started


class SpeedSampler:
    """Samples :func:`probe` on a timer between :meth:`start` and :meth:`stop`."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _on_alarm(self, _signum, _frame) -> None:
        self.samples.append(probe())

    def start(self) -> None:
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalize(self, wall_s: float) -> float:
        """Reference seconds for ``wall_s`` measured since :meth:`start`."""
        if not self.samples:
            return wall_s
        speed = sum(NOMINAL_PROBE_S / s for s in self.samples) / len(self.samples)
        return (wall_s - sum(self.samples)) * speed
