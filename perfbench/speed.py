"""Machine-speed probe.

The CPU speed of a shared machine drifts, up to 2x over minutes for the same
work, and that drift swamps any change to the program.  While a worker
runs its tasks, a SIGALRM interval timer times a fixed loop that does not
use slackkit.  ``run.py`` reports times at the reference speed:
``seconds * REFERENCE_S / median probe time of the run``.  At constant
machine speed this is the measured time times a constant, so a program
change moves it exactly as it moves the measured time.
"""

import signal
import time

REFERENCE_S = 0.001  # probe_loop() at the reference speed
PROBE_EVERY_S = 0.1

_KEYS = [tuple((i * k) % 11 for k in range(8)) for i in range(11)]
_TABLE = {key: i for i, key in enumerate(_KEYS)}


def probe_loop():
    """Fixed work in the style of slackkit's inner loops: integer arithmetic
    and dict lookups keyed by exponent tuples."""
    r = s = 0
    for _ in range(3000):
        r = (r * 1103515245 + 12345) & 0x7FFFFFFF
        s += _TABLE[_KEYS[r % 11]]
    return s


class Sampler:
    """Times probe_loop() every PROBE_EVERY_S seconds.  ``busy_s`` is the
    time spent probing, which the worker takes out of its task times."""

    def __init__(self):
        self.samples = []
        self.busy_s = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        probe_loop()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.busy_s += time.perf_counter() - start

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(None, None)  # at least one sample, however short the pass
