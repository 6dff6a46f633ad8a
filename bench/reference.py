"""A fixed pure-Python reference kernel, timed between chunks of work.

A shared virtual machine can change speed by tens of percent from second
to second (other tenants on the same cores).  Timing this kernel before
and after every chunk of program work measures the host's speed at that
moment; `items_per_ref` divides it out.  The kernel does the same kind
of interpreter work as the program (small graphs, dicts, sets, deques) and
shares no code with it.

Never change the kernel, its graphs or its size: every `items_per_ref`
figure is measured in its units.
"""

from __future__ import annotations

from collections import deque
from time import perf_counter


def _graphs() -> list[dict[int, set[int]]]:
    state = 12345
    graphs = []
    for _ in range(40):
        adj: dict[int, set[int]] = {v: set() for v in range(12)}
        for a in range(12):
            for b in range(a + 1, 12):
                state = (state * 6364136223846793005 + 1442695040888963407) & (2**64 - 1)
                if state >> 61 < 3:
                    adj[a].add(b)
                    adj[b].add(a)
        graphs.append(adj)
    return graphs


GRAPHS = _graphs()

# The kernel's time on a reference host.  `setup_s` is reported in seconds
# at that speed: import time * NOMINAL_S / the kernel's time in the worker.
NOMINAL_S = 0.004


def kernel() -> int:
    """Sum of all-pairs BFS eccentricities over the fixed graphs."""
    total = 0
    for adj in GRAPHS:
        for src in adj:
            dist = {src: 0}
            queue = deque([src])
            while queue:
                u = queue.popleft()
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        queue.append(v)
            total += max(dist.values())
    return total


def seconds() -> float:
    """Wall time of one kernel run."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0
