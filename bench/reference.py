"""A fixed reference kernel: how fast is this machine *right now*?

The sandboxes this benchmark runs on change speed under the program's
feet: the same pure-Python loop takes 1.0x, 1.3x or 2x as long in
phases that last from milliseconds to a minute (measured in
``bench/README.md``), and a whole 12-second run can sit inside one
phase.  No estimator over wall-clock times alone repeats on such a box —
ten identical runs of ``sim_fig8`` spread over 36 % of their median.

So every timed slice of a workload is bracketed by slices of this
kernel, which never changes: a fixed mix of interpreter work and
``socketpair`` system calls, the two things the serving stack spends its
time on.  The kernel's rate in those slices, relative to
:data:`NOMINAL_TICKS_PER_S`, is the machine's speed factor for the slice
between them, and a time measured in that slice is reported in
**reference seconds**: ``wall seconds x speed factor`` — what the slice
would have taken on a machine that runs the kernel at the nominal rate.
Raw wall-clock values are printed beside them.

The kernel imports nothing outside the standard library, so it can
bracket the imports too.
"""

from __future__ import annotations

import socket
import time

#: ticks per second that define one reference second.  A constant of the
#: benchmark (roughly this kernel's rate on the box the benchmark was
#: written on, in its most common phase); changing it rescales every
#: timing, so it never changes.
NOMINAL_TICKS_PER_S = 100_000.0

SLICE_S = 0.05


class Reference:
    """The kernel plus the socket pair it talks over."""

    def __init__(self) -> None:
        self._a, self._b = socket.socketpair()
        self._payload = b"r" * 64

    def close(self) -> None:
        self._a.close()
        self._b.close()

    def tick(self) -> None:
        """One unit of reference work (a few tens of microseconds)."""
        table: dict[int, int] = {}
        total = 0
        for i in range(40):
            key = (i * 7) & 15
            table[key] = table.get(key, 0) + i
            total += len(str(i))
        a, b, payload = self._a, self._b, self._payload
        for _ in range(2):
            a.send(payload)
            total += len(b.recv(64))

    def speed(self, seconds: float = SLICE_S) -> float:
        """Run the kernel for ``seconds``; returns the speed factor
        (1.0 = the nominal machine, 0.5 = half as fast)."""
        tick = self.tick
        clock = time.perf_counter
        ticks = 0
        started = clock()
        stop_at = started + seconds
        while True:
            for _ in range(16):
                tick()
            ticks += 16
            now = clock()
            if now >= stop_at:
                return ticks / (now - started) / NOMINAL_TICKS_PER_S


class Yardstick:
    """Speed factors for consecutive timed slices.

    ``factor()`` is called right after a slice ends: it measures the
    machine again and returns the mean of the measurements on both sides
    of the slice.  After a pause that was not timed, ``mark()`` takes a
    fresh "before" measurement.
    """

    def __init__(self) -> None:
        self.reference = Reference()
        self.factors: list[float] = []
        self.mark()

    def close(self) -> None:
        self.reference.close()

    def mark(self) -> None:
        self._before = self.reference.speed()

    def factor(self) -> float:
        before, self._before = self._before, self.reference.speed()
        self.factors.append((before + self._before) / 2)
        return self.factors[-1]

    def time(self, fn) -> float:
        """Reference seconds one call of ``fn`` takes (``mark()`` first
        if the previous slice did not end just now)."""
        started = time.perf_counter()
        fn()
        wall = time.perf_counter() - started
        return wall * self.factor()
