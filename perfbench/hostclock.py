"""A clock that runs at the speed of the reference host.

The benchmark's host is a few cores of a shared machine.  Its speed for
pure-Python work switches between about 0.6x and 1x for seconds to minutes
at a time, whatever the program does, so raw wall-clock times of the same
work on the same input spread by half between runs.  This clock takes the
host's speed out.

While it runs, a timer signal every `PERIOD_S` seconds (a signal handler in
the one thread, not a second thread) times a fixed probe: a sparse
polynomial product over `Fraction`, in the benchmark's own code and none of
heis7's, of the same kind of interpreter work heis7 does.  Between two
ticks the clock advances by the elapsed wall time times
`PROBE_REF_S / (the probe's last time)`; time spent in the probe is not
counted.  A time read on this clock is therefore the time the same work
would take on the reference machine, where the probe takes `PROBE_REF_S`.
When the clock is not running, `now()` is `perf_counter()`.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from itertools import product
from time import perf_counter

PERIOD_S = 0.2
# the probe's time on the 2-core reference machine at its faster speed
PROBE_REF_S = 0.003


def _poly(shift):
    return {
        e: Fraction(sum(x * (i + shift) for i, x in enumerate(e)) % 11 - 5, 1 + (e[0] + shift) % 4)
        for e in product(range(3), repeat=4)
        if sum(e) <= 3
    }


_P, _Q = _poly(1), _poly(2)

# (clock value at wall time t, wall time t, clock seconds per wall second);
# replaced whole by the tick, so a reader never sees half an update
_state = (0.0, 0.0, 1.0)
_running = False
probe_times = []


def probe_s():
    """Seconds of one run of the probe."""
    t0 = perf_counter()
    out = {}
    for e1, c1 in _P.items():
        for e2, c2 in _Q.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
            out[e] = out.get(e, 0) + c1 * c2
    return perf_counter() - t0


def _rescale(clock_value):
    global _state
    p = probe_s()
    probe_times.append(p)
    _state = (clock_value, perf_counter(), PROBE_REF_S / p)


def _tick(signum, frame):
    t = perf_counter()
    acc, t_last, scale = _state
    _rescale(acc + (t - t_last) * scale)


def start(period_s=PERIOD_S):
    """Start the clock at 0 and the timer signal."""
    global _running
    for _ in range(10):  # warm up
        probe_s()
    probe_times.clear()
    _rescale(0.0)
    _running = True
    signal.signal(signal.SIGALRM, _tick)
    signal.setitimer(signal.ITIMER_REAL, period_s, period_s)


def stop():
    """Stop the timer signal; `now()` is wall time again."""
    global _running
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)
    _running = False


def now():
    """Seconds on this clock while it runs, else `perf_counter()`."""
    if not _running:
        return perf_counter()
    while True:  # a tick between the two reads replaces _state: read again
        state = _state
        t = perf_counter()
        if state is _state:
            break
    acc, t_last, scale = state
    return acc + (t - t_last) * scale
