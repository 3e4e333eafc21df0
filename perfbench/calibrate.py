"""Reference kernel that measures how fast the host runs right now.

On a shared host the same verdict runs 20-30 % faster or slower from one
minute to the next, and the speed changes within a run too.  Before the
first verdict and after every verdict, outside the timed region, the worker
times this fixed kernel.  ``run.py`` scales each verdict's wall time by
``REF_S`` over the mean of the kernel times just before and just after it,
so the verdict times are seconds at the host speed at which the kernel
takes ``REF_S``.

The kernel has two parts, each about half its time.  One closes a fixed
subset of A^4 under a fixed binary operation on four elements with small
numpy calls, as the package's closure engine does; the other streams two
float64 buffers of 4 MB, about a last-level cache, through numpy adds.  In
probes on the shared host, the host's speed for the first part moved two
to three times as much as the verdicts did, and for the second part less;
their sum moved most nearly in step with all three workloads.  The kernel
shares no code with ``algraph``, so a change to the package does not move
it.  It runs in the worker's own thread, on the processor the verdicts run
on.  Its closure allocates only arrays of a few KB, and its buffers are
allocated once and never freed, so it leaves alone the allocator state that
the package's large arrays depend on; ``BUFFER_MB`` of resident memory is
the buffers'.
"""

from __future__ import annotations

import random
import statistics
import time

import numpy as np

REF_S = 0.0045  # kernel time, in seconds, at the reference speed
SHARE = 0.05  # kernel time per second of verdict time
MIN_RUNS = 3

SIZE, POWER = 4, 4
_rng = random.Random(0)
TABLE = np.array(
    [x if x == y else _rng.randrange(SIZE) for x in range(SIZE) for y in range(SIZE)],
    dtype=np.int64,
)
GENS = np.array([[0, 1, 1, 2], [1, 0, 2, 2]], dtype=np.int64)
WEIGHTS = SIZE ** np.arange(POWER, dtype=np.int64)

FLOATS = 512_000  # per buffer
PASSES = 3
BUFFER_MB = 2 * FLOATS * 8 / 2**20
_buffers: list = []


def closure() -> int:
    """Size of the subuniverse of A^4 that GENS generate (45)."""
    rows = np.zeros((SIZE**POWER, POWER), dtype=np.int64)
    seen = np.zeros(SIZE**POWER, dtype=bool)
    codes = np.unique(GENS @ WEIGHTS, return_index=True)[1]
    n = len(codes)
    rows[:n] = GENS[codes]
    seen[GENS @ WEIGHTS] = True
    i = 0
    while i < n:
        r = rows[i]
        for out in (TABLE[r * SIZE + rows[:n]], TABLE[rows[:n] * SIZE + r]):
            new, first = np.unique(out @ WEIGHTS, return_index=True)
            fresh = ~seen[new]
            k = int(fresh.sum())
            if k:
                seen[new[fresh]] = True
                rows[n : n + k] = out[first[fresh]]
                n += k
        i += 1
    return n


def stream() -> None:
    if not _buffers:
        _buffers.extend(np.zeros(FLOATS) for _ in range(2))
    a, c = _buffers
    for _ in range(PASSES):
        np.add(a, 1.0, out=c)
        np.subtract(c, 1.0, out=a)


def sample(after_s: float = 0.0) -> float:
    """Median kernel time in seconds, taken after ``after_s`` seconds of
    verdicts: enough runs to fill SHARE of that time, at least MIN_RUNS."""
    times = []
    for _ in range(max(MIN_RUNS, round(SHARE * after_s / REF_S))):
        t0 = time.perf_counter()
        closure()
        stream()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
