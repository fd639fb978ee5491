"""Time one cold set-up of heis7 in this fresh process and print the seconds.

Set-up is importing the package and building its module-level caches: the
G7 and SL2(F7) character tables and the 16 wedge composition matrices.  The
last line printed is its time on the host-speed clock (`hostclock`, ticking
every 0.05 s, as set-up lasts well under a second) and in wall time.

    python3 perfbench/setup_once.py
"""

import os
import sys
from time import perf_counter

import hostclock


def main():
    hostclock.start(period_s=0.05)
    try:
        t0, w0 = hostclock.now(), perf_counter()
        here = os.path.dirname(os.path.abspath(__file__))
        sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
        from probes import build_caches

        build_caches()
        seconds, wall = hostclock.now() - t0, perf_counter() - w0
    finally:
        hostclock.stop()
    print(repr(seconds), repr(wall))


if __name__ == "__main__":
    main()
