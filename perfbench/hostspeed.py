"""Host-speed calibration: a fixed pure-Python kernel timed while the work runs.

On a shared host, other tenants slow a core by up to half, in bursts
from a fraction of a second to tens of seconds, so wall times of
identical runs differ by 20-40%.  ``Sampler`` times a short kernel every
``PERIOD_S`` of wall time from a SIGALRM handler, in the measured process
itself, so the samples cover every part of the work, a long step as much
as a short one.  The kernel does the kind of work surfreal spends its
time on (tuple and string keys in dicts, small frozensets, sorting by a
key function), so it slows down about as much.  With samples uniform in
wall time, the mean of ``1 / kernel time`` is the mean speed, and

    scaled time = wall time * REFERENCE_S * mean(1 / kernel time)

over the samples taken during a stretch of work is the wall time that
stretch would have taken on a host where the kernel always takes
REFERENCE_S.  The kernel is part of the benchmark, not of surfreal, and runs
with the garbage collector off, so surfreal's objects never slow a
sample; surfreal can still change the CPU cache state a sample starts
from.  Sampling costs about 2% of the run
and is subtracted from measured times; the timer is not inherited by
forked workers.
"""

import gc
import signal
import time

PERIOD_S = 0.025
# fixed; near the kernel's time inside the handler on the host it was tuned
# on (it runs with cold caches there), so scaled times read close to wall times
REFERENCE_S = 0.0005


def kernel(iterations: int = 500) -> int:
    """A fixed mix of dict, tuple, string, frozenset and sort work."""
    counts: dict[tuple[int, str], int] = {}
    sets = []
    for i in range(iterations):
        key = (i % 97, "w%d" % (i % 31))
        counts[key] = counts.get(key, 0) + 1
        if i % 20 == 0:
            sets.append(frozenset(range(i % 7)))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return len(ranked) + len(sets)


class Sampler:
    """Context manager collecting kernel times, one every PERIOD_S of wall time."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self.spent = 0.0  # seconds inside the handler, to subtract from wall times

    def _tick(self, signum, frame) -> None:
        # with the collector off, the kernel's allocations never trigger a
        # collection of the measured program's objects inside the sample
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            kernel()
            seconds = time.perf_counter() - start
        finally:
            if was_enabled:
                gc.enable()
        self.samples.append((start, seconds))
        self.spent += seconds

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


def scale(samples: list[float]) -> float:
    """Factor from wall time to time at the reference speed, from kernel times.

    Without samples (work shorter than PERIOD_S, or a run that failed at
    once) the wall time is kept.
    """
    if not samples:
        return 1.0
    return REFERENCE_S * sum(1.0 / s for s in samples) / len(samples)


def scale_between(samples: list[tuple[float, float]], start: float, end: float) -> float | None:
    """``scale`` over the samples taken between ``start`` and ``end``, if any."""
    inside = [s for t, s in samples if start <= t < end]
    return scale(inside) if inside else None
