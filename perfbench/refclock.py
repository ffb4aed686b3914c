"""Timing rescaled to the host's speed, measured by a reference kernel.

On a host shared with other tenants the speed of a core changes by up to
2.3x, in episodes from seconds to minutes, and the same pass of a workload
slows with it.  A Clock therefore interleaves a fixed reference kernel with
the code it times: while a ``with clock:`` window is open, a SIGALRM every
PERIOD_S seconds runs one chunk of the kernel between two bytecodes of the
timed code.  The chunks' own time is taken out of the window, and the mean
chunk time over a pass gives the host's speed during that pass.  A time is
reported as

    seconds * REF_S / mean chunk time

that is, in seconds at the speed at which one chunk takes REF_S seconds: its
median time, run alone, on a 2-core Xeon (Sapphire Rapids) VM.  A program
change that does more or less work moves this figure as it moves the wall
time; a host that slows everything by the same share does not.  The kernel
shares the core's caches with the program, so a large change in the
program's memory footprint can move the chunk time a little too.

The kernel mixes what the program does: interpreted loops over small lists
and dicts, a BFS, small numpy eigensolves and matrix products.  Over twenty
runs per workload, the mean chunk time of a pass followed the pass's wall
time with correlation 0.99 (sweep7), 0.96 (verify_ladder) and 0.89
(corpus_mixed), and log-log slopes of 0.72, 1.18 and 1.23, where 1 cancels a
slowdown exactly.  In a trial on corpus_mixed, a plain integer loop or a
large eigensolve alone followed with slopes of 1.5 to 1.8.
"""

import json
import re
import signal
import time

import numpy as np

PERIOD_S = 0.1
MIN_CHUNKS = 8  # per timed pass; a short window gets the rest just after it
REF_S = 0.0010


class Reference:
    """One chunk of the reference kernel on fixed inputs: 0.6 to 1.5 ms."""

    def __init__(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((24, 24))
        self.sym = m + m.T
        a = np.triu((rng.random((60, 60)) < 0.1).astype(np.int64), 1)
        self.adj = a + a.T
        self.ring = [[(v + 1) % 120, (v - 1) % 120, (v * 7) % 120] for v in range(120)]
        self.obj = {"k%d" % i: [i, str(i), {"x": i * 0.5}] for i in range(30)}
        self.pattern = re.compile(r"(\d+)-(\w+)")
        self.text = " ".join("%d-ab%d" % (i, i) for i in range(100))

    def run(self):
        json.loads(json.dumps(self.obj))
        sorted(((i * 7919) % 101, str(i)) for i in range(150))
        self.pattern.findall(self.text)
        for src in (0, 1):
            dist = [-1] * 120
            dist[src] = 0
            frontier = [src]
            while frontier:
                nxt = []
                for u in frontier:
                    for x in self.ring[u]:
                        if dist[x] < 0:
                            dist[x] = dist[u] + 1
                            nxt.append(x)
                frontier = nxt
        np.linalg.eigvalsh(self.sym)
        reach = self.adj.copy()
        for _ in range(3):
            reach = np.minimum(reach @ self.adj + reach, 1)
        np.unique(reach.sum(axis=0))


class Clock:
    """Accumulates timed windows into one pass; ``take()`` ends the pass.

    With ``sample=False`` no kernel runs and times are plain wall seconds.
    """

    def __init__(self, sample=True):
        self.sample = sample
        self.ref = Reference()
        self.ref.run()  # first call pays numpy's lazy set-up
        self.wall = 0.0
        self.busy = 0.0  # kernel time inside the current window
        self.chunks = []
        self._t0 = None

    def chunk(self):
        t0 = time.perf_counter()
        self.ref.run()
        dt = time.perf_counter() - t0
        self.chunks.append(dt)
        return dt

    def _tick(self, signum, frame):
        self.busy += self.chunk()

    def __enter__(self):
        if self.sample:
            self._prev = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S / 2, PERIOD_S)
        self.busy = 0.0
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._prev)
        # read after disarming, so every chunk in ``busy`` lies inside the window
        self.wall += time.perf_counter() - self._t0 - self.busy
        return False

    def take(self):
        """(wall seconds, rescaled seconds) of the pass so far; starts the next pass."""
        while self.sample and len(self.chunks) < MIN_CHUNKS:
            self.chunk()
        wall = self.wall
        scaled = wall * REF_S / float(np.mean(self.chunks)) if self.sample else wall
        self.wall, self.chunks = 0.0, []
        return wall, scaled

    def measure(self, fn):
        """Rescaled time of ``fn()``, timed by itself, with the speed from chunks around it.

        For code in another process, where no window can be opened.
        """
        for _ in range(MIN_CHUNKS // 2):
            self.chunk()
        seconds = fn()
        for _ in range(MIN_CHUNKS // 2):
            self.chunk()
        speed = float(np.mean(self.chunks))
        self.chunks = []
        return seconds * REF_S / speed
