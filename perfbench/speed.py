"""Host speed reference: a fixed loop timed beside the program's calls.

The benchmark runs on shared hosts whose speed drifts by 20-30 % within
a minute (other tenants, frequency changes). Every timed call is
therefore accompanied by runs of a reference loop that does not touch
photonthin: interpreter-level integer arithmetic and numpy vector
math over a fixed array, the two kinds of work the program does. A call
measured while the reference loop takes t_ref seconds is reported as

    duration * REFERENCE_S / t_ref,

its time at the reference speed, where the loop takes REFERENCE_S. Work
the program adds or removes changes the call's duration and not t_ref,
so it shows in full; a slowdown of the whole host changes both and
cancels.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Time of one reference loop at the reference speed: a round figure near
# its median on a 2-vCPU x86-64 cloud host with Python 3.11 and numpy 2.4.
REFERENCE_S = 0.003

# Reference samples within this many seconds of a call set its scale. A
# single 3-ms sample is itself noisy; the median of those within a few
# seconds follows the host's drift and not that noise.
HALF_WINDOW_S = 1.5

_GRID = np.linspace(1.0, 1000.0, 100_000)


def reference_loop() -> float:
    """Run the reference loop once; returns its wall time in seconds."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(30_000):
        acc += i * i
    float(np.log(_GRID).sum() + np.exp(-_GRID / 1000.0).sum())
    return time.perf_counter() - t0


def scales(samples: list[tuple[float, float]]) -> list[float]:
    """Per (time, duration) sample, REFERENCE_S over the median duration of
    the samples taken within HALF_WINDOW_S of it."""
    times = [t for t, _ in samples]
    out = []
    for t, _ in samples:
        lo = bisect.bisect_left(times, t - HALF_WINDOW_S)
        hi = bisect.bisect_right(times, t + HALF_WINDOW_S)
        out.append(REFERENCE_S / statistics.median(d for _, d in samples[lo:hi]))
    return out


class Sampler:
    """Reference samples taken between the parent's child processes.

    A child runs in another process, often on another CPU, so one scale
    for a group of children that spans about ten seconds (a CLI session,
    the set-up probes) follows the host's speed better than samples next
    to each child.
    """

    PER_TAKE = 3

    def __init__(self) -> None:
        self.samples: list[float] = []

    def take(self) -> None:
        self.samples += [reference_loop() for _ in range(self.PER_TAKE)]

    def scale(self) -> float:
        return REFERENCE_S / statistics.median(self.samples)
