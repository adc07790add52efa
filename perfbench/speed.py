"""Reference probe that scales measured times to one machine speed.

The benchmark runs on shared virtual machines whose CPU speed can switch
between states up to 1.7 times apart, each lasting from seconds to more than
a minute.  A raw time then says more about the state the run fell in than
about the program.  So a fixed piece of reference work, which calls nothing
from emgpr, is timed between requests and, inside long requests, every
TICK_S seconds from a timer signal.  A measured interval is cut at the
probes inside it (their time is left out), and each piece is multiplied by

    REFERENCE_PROBE_S / (mean of the probe just before and just after it)

A change to the program moves a scaled time in the same proportion as the
raw one, because the probe runs no program code;
a swing in host speed moves the probe too and largely cancels.  Run records
keep the raw times beside the scaled ones.
"""

from __future__ import annotations

import bisect
import signal
import time
from contextlib import contextmanager

import numpy as np
from scipy.signal import butter, sosfilt

#: A typical probe time on the machine the benchmark was built on (a 2-vCPU
#: x86_64 virtual machine, Python 3.11, numpy 2.4, scipy 1.17), where the
#: median of a run's probes ranged from 3.5 to 4 ms.  Scaled times read as
#: times at that speed.
REFERENCE_PROBE_S = 0.0035
#: Seconds between two probes inside a long request.
TICK_S = 0.1

_RNG = np.random.default_rng(12345)
_WINDOW = _RNG.standard_normal((2, 1000))
_SIGNAL = _RNG.standard_normal((2, 4000))
_SOS = butter(4, [20.0, 450.0], btype="band", fs=4000.0, output="sos")
_GRAM = _RNG.standard_normal((30, 30))
_GRAM = _GRAM @ _GRAM.T + 30.0 * np.eye(30)


def reference_work():
    """About 3 ms of the kinds of work the pipeline does: an interpreter
    loop, numpy reductions on small windows, IIR filtering, small solves."""
    acc = 0
    for i in range(6000):
        acc += i * i
    for _ in range(60):
        acc += float(np.abs(np.diff(_WINDOW, axis=1)).mean())
        acc += float(np.sqrt((_WINDOW * _WINDOW).mean()))
    for _ in range(6):
        sosfilt(_SOS, _SIGNAL, axis=1)
    for _ in range(30):
        np.linalg.solve(_GRAM, _WINDOW[:, :30].T)
    return acc


class Meter:
    """Probe times, taken between and inside requests, and the scaling
    they give.

    A disabled meter probes nothing; the traced run and the reference
    recorder use one.
    """

    def __init__(self, enabled=True):
        self.enabled = enabled
        # start, end and duration of each probe, in time order
        self.starts, self.ends, self.probes = [], [], []
        self.probing = False
        if enabled:
            reference_work()  # warm-up, not recorded

    def probe(self):
        if not self.enabled or self.probing:
            return
        self.probing = True  # a timer signal during a probe does not nest
        t0 = time.perf_counter()
        reference_work()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.probes.append(t1 - t0)
        self.probing = False

    @contextmanager
    def ticking(self):
        """Probe every TICK_S seconds while the body runs.

        The probe runs from a SIGALRM handler, so it lands between two
        Python bytecodes of the program, never inside a numpy call.
        """
        if not self.enabled:
            yield
            return
        previous = signal.signal(signal.SIGALRM, lambda *_: self.probe())
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, start, end):
        """Seconds of [start, end], less the probes in it, at the reference
        speed: each piece between probes is scaled by the probes around it."""
        after = bisect.bisect_right(self.ends, start)  # first probe after start
        if after == 0 and after == len(self.starts):
            raise RuntimeError("no probe was taken around a timed interval")
        total, piece_start = 0.0, start
        while True:
            piece_end = (self.starts[after] if after < len(self.starts)
                         and self.starts[after] < end else end)
            near = self.probes[max(after - 1, 0):after + 1]
            total += (piece_end - piece_start) * REFERENCE_PROBE_S / (sum(near) / len(near))
            if piece_end == end:
                return total
            piece_start = self.ends[after]
            after += 1
