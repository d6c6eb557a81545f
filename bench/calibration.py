"""A fixed pure-Python kernel that measures how fast the host runs right now.

The benchmark runs on a few cores of a shared host.  On a 2-vCPU Intel Xeon
virtual machine, a fixed pure-Python loop's median time moved by up to 50%
between 5-second windows of one minute, and CPU time moved with wall time,
so the drift is contention from neighbours rather than time stolen from the
process.  The same op of a workload moved by up to 2x within one run.  To
keep that drift out of the gated time, ``run.py`` runs this kernel right
after every op and divides each op's time by the mean of the kernel times
just before and just after it.  The quotient, summed over an op list, is
the op list's time in kernel runs (unit ``cal``).

The kernel is breadth-first search from fixed sources over a fixed sparse
graph held in Python lists and dicts.  On that machine its time tracked
every op of every workload, the numpy- and BLAS-heavy ops as well as the
pure-Python ones (correlation of log times 0.7-0.9), better than dense
matrix products did.  It calls nothing in ggmlearn and uses no numpy, so no
change to the program or its dependencies can move it.  Keep it frozen:
``wall_cal`` figures taken with different kernels are not comparable.
"""

from __future__ import annotations

import time

NODES = 3000
EDGES = 3 * NODES
SOURCES = range(0, NODES, 200)


def _graph() -> list[list[int]]:
    """Random sparse multigraph from a fixed linear congruential stream, so
    it is the same on every Python version."""
    adj: list[list[int]] = [[] for _ in range(NODES)]
    state = 12345
    for _ in range(EDGES):
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        u = (state >> 33) % NODES
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        v = (state >> 33) % NODES
        if u != v:
            adj[u].append(v)
            adj[v].append(u)
    return adj


class Kernel:
    def __init__(self, warmup: int = 3):
        self._adj = _graph()
        for _ in range(warmup):
            self.run()

    def run(self) -> float:
        """Seconds taken by one fixed round of searches."""
        adj = self._adj
        start = time.perf_counter()
        total = 0
        for src in SOURCES:
            depth = {src: 0}
            queue = [src]
            for u in queue:
                d = depth[u] + 1
                for w in adj[u]:
                    if w not in depth:
                        depth[w] = d
                        queue.append(w)
            total += sum(depth.values())
        elapsed = time.perf_counter() - start
        if total <= 0:
            raise AssertionError("calibration search visited nothing")
        return elapsed
