"""The host's speed of the moment, read from a fixed pure-Python kernel.

On a host whose cores are shared with other tenants, the same interpreter
work runs at one of several speeds (on the host that sized this benchmark,
2 shared vCPUs, about 1.5x apart), switching every 0.1-1.5 s. A call timed
in a slow stretch reads slow for reasons outside the program. The benchmark
therefore times this kernel next to every timed call and scales the call's
wall time to the speed at which the kernel takes REFERENCE_S: the result is
the call's wall time on the host at that speed.

The kernel is the benchmark's own code, so a change to planlab never moves
it. It does the interpreter work planlab's hot loops do, in three parts of
about equal time: dict and set lookups with small-list sorting, building
small lists, tuples and dicts, and a generator feeding arithmetic. How much
a slow stretch slows code depends on the code: on that host, planlab calls
of every workload ran 1.3-1.7x slower in slow stretches than in fast ones,
the lookup part alone 1.7x and each of the other two 1.45x; together they
slow 1.55x, close to the middle of planlab's range.
"""

from __future__ import annotations

import time

# The kernel's best time on the host that sized the benchmark (2 shared
# vCPUs, Python 3.11.7). Any fixed value would do: scaled times compare
# between commits on one host, whatever the constant.
REFERENCE_S = 0.0002

# The kernel runs this often per reading and the fastest run counts, so that
# a preemption during one run does not pass for a slow host.
RUNS = 3


def _lookups() -> int:
    state: dict = {}
    seen = set()
    for i in range(150):
        key = (i % 13, i % 7)
        state[key] = state.get(key, 0) + 1
        if key not in seen:
            seen.add(key)
        row = [i % 5, i % 3, i % 11, i % 2]
        row.sort()
    return len(seen) + len(state)


def _allocations() -> int:
    rows = [[i, (i, i + 1), {"k": i}] for i in range(300)]
    return sum(len(row[2]) for row in rows)


def _generators() -> int:
    return sum(x * y for x, y in zip(range(700),
                                     (i % 7 for i in range(700))))


def kernel() -> int:
    return _lookups() + _allocations() + _generators()


def factor() -> float:
    """How much slower than the reference speed the host runs now: the
    kernel's best of RUNS timings over REFERENCE_S."""
    best = float("inf")
    for _ in range(RUNS):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best / REFERENCE_S


def scale(seconds: float, before: float, after: float) -> float:
    """Seconds timed between the readings `before` and `after` of factor(),
    at the reference speed."""
    return seconds * 2 / (before + after)
