"""The one process fan-out: ``parallel_map(fn, items, jobs)``, behind
``sr realize --jobs``, its one caller.

It returns ``[fn(item) for item in items]``, in input order, for any
``jobs``.  ``jobs`` is first clamped to the CPUs this process may run on
(its affinity mask where the platform has one, else ``os.cpu_count()``);
output never depends on it.  Worker processes are used only when
``jobs > 1`` and there are at least two items per job.  Then all of the
input goes out at once, in chunks of ``ceil(n / (CHUNKS_PER_JOB * jobs))``
items: small chunks keep the workers evenly loaded when item costs differ.
``fn`` (for realize, a ``functools.partial`` holding a model and lexicon)
reaches each worker once, through the pool initializer, together with the
caller's cyclic garbage collector setting (``gc.isenabled()``), which each
worker takes on.  So forked, spawned and forkserver workers alike run with
the collector off under ``sr``, which pauses it (see ``cli``).  An
exception in a worker cancels the chunks not yet started and is raised to
the caller.

Where the platform has ``os.sched_setaffinity``, each worker runs on a CPU
of its own: one each of the first ``jobs`` CPUs of the caller's mask,
which is itself left as it was.  A kernel may otherwise keep forked
workers on their parent's CPU, and two CPU-bound workers sharing one CPU
are slower than one process.  Where a worker runs changes no output.

The pool modules (``concurrent.futures.process`` and ``multiprocessing``)
are imported only when workers start, so importing surfreal, a
``jobs=1`` run or an input below two items per job never loads them.
"""

from __future__ import annotations

import gc
import math
import os
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

CHUNKS_PER_JOB = 8

_worker_fn: Callable | None = None


def _usable_cpus() -> list[int]:
    """The ids of the CPUs this process may run on, ascending: its affinity mask
    (which ``taskset`` or a container's cpuset narrows) where the platform has
    one, else all of the machine's."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def _init_worker(fn: Callable, gc_enabled: bool, cpus) -> None:
    global _worker_fn
    _worker_fn = fn
    if gc_enabled:
        gc.enable()
    else:
        gc.disable()
    cpu = cpus.get()  # one per worker
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {cpu})


def _call(item):
    return _worker_fn(item)


def parallel_map(fn: Callable[[T], R], items: Sequence[T], jobs: int) -> list[R]:
    usable = _usable_cpus()
    jobs = min(jobs, len(usable))
    if jobs <= 1 or len(items) < 2 * jobs:
        return list(map(fn, items))
    import multiprocessing  # not at module level: see above
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context()
    cpus = context.SimpleQueue()  # from the pool's own context, so spawned workers reach it
    for cpu in usable[:jobs]:
        cpus.put(cpu)
    pool = ProcessPoolExecutor(max_workers=jobs, mp_context=context, initializer=_init_worker,
                               initargs=(fn, gc.isenabled(), cpus))
    try:
        chunksize = math.ceil(len(items) / (CHUNKS_PER_JOB * jobs))
        return list(pool.map(_call, items, chunksize=chunksize))
    finally:
        pool.shutdown(cancel_futures=True)
        cpus.close()
