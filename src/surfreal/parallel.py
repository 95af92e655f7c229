"""The one process fan-out: ``parallel_map(fn, items, jobs)``, behind
``sr realize --jobs``, its one caller.

It returns ``[fn(item) for item in items]``, in input order, for any
``jobs``.  ``jobs`` is first clamped to ``os.cpu_count()``; output never
depends on it.  Worker processes are used only when ``jobs > 1`` and
there are at least two items per job.  Then all of the input goes out
at once, in chunks of ``ceil(n / (CHUNKS_PER_JOB * jobs))`` items: small
chunks keep the workers evenly loaded when item costs differ.  ``fn``
(for realize, a ``functools.partial`` holding a model and lexicon)
reaches each worker once, through the pool initializer, together with
the caller's cyclic garbage collector setting (``gc.isenabled()``), which
each worker takes on.  So forked, spawned and forkserver workers alike run
with the collector off under ``sr``, which pauses it (see ``cli``).  An
exception in a worker cancels the chunks not yet started and is raised
to the caller.

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


def _init_worker(fn: Callable, gc_enabled: bool) -> None:
    global _worker_fn
    _worker_fn = fn
    if gc_enabled:
        gc.enable()
    else:
        gc.disable()


def _call(item):
    return _worker_fn(item)


def parallel_map(fn: Callable[[T], R], items: Sequence[T], jobs: int) -> list[R]:
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1 or len(items) < 2 * jobs:
        return list(map(fn, items))
    from concurrent.futures import ProcessPoolExecutor  # not at module level: see above

    pool = ProcessPoolExecutor(max_workers=jobs, initializer=_init_worker,
                               initargs=(fn, gc.isenabled()))
    try:
        chunksize = math.ceil(len(items) / (CHUNKS_PER_JOB * jobs))
        return list(pool.map(_call, items, chunksize=chunksize))
    finally:
        pool.shutdown(cancel_futures=True)
