"""CPU speed probe that runs beside the benchmark's jobs.

    python3 bench/calibrate.py COUNTERS_FILE PARENT_PID

The machines this benchmark runs on are shared: the speed of one CPU swings
by up to 1.5x over phases of several seconds, as other tenants load the
same physical core.  Raw job times therefore spread by 15-20 % between runs
while the program does identical work.

This probe repeats one fixed pure-Python work unit (dict, tuple and
``Fraction`` operations, like the package's own inner loops) at the lowest
priority, on the same CPU as the jobs.  The scheduler then gives it short
slices interleaved with the running job all through the job's life, so its
units per CPU second follow the speed that the job itself sees.  After every
unit it publishes (units done, its own CPU nanoseconds) in COUNTERS_FILE,
which the benchmark reads before and after each job.

It exits when its parent is gone or after an hour, whichever comes first.
"""

from __future__ import annotations

import mmap
import os
import struct
import sys
import time
from fractions import Fraction

COUNTERS = struct.Struct("<QQ")
MAX_LIFETIME_S = 3600


def unit() -> int:
    d = {}
    for i in range(48):
        d[(i & 7, i >> 3)] = d.get((i & 7, i >> 3), 0) + i
    return len(d) + (Fraction(len(d), 7) + Fraction(1, 3)).numerator


def main() -> int:
    path, parent = sys.argv[1], int(sys.argv[2])
    os.setpriority(os.PRIO_PROCESS, 0, 19)
    deadline = time.monotonic() + MAX_LIFETIME_S
    with open(path, "r+b") as fh:
        mm = mmap.mmap(fh.fileno(), COUNTERS.size)
    units = 0
    while True:
        unit()
        units += 1
        mm[:COUNTERS.size] = COUNTERS.pack(units, time.thread_time_ns())
        if units % 4096 == 0 and (os.getppid() != parent
                                  or time.monotonic() > deadline):
            return 0


if __name__ == "__main__":
    sys.exit(main())
