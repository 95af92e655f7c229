"""The one process fan-out: ``parallel_map(fn, items, jobs)``, behind
``sr realize --jobs``, its one caller.

It yields ``fn(item)`` for each item, in input order, for any ``jobs``,
and as lazily as ``map``: callers that need a list call ``list()``.
``jobs`` is first clamped to ``os.cpu_count()``; output never depends
on it.  Worker processes are used only when ``jobs > 1`` and there are
at least two items per job.  The input is read through a read-ahead
window of ``READ_AHEAD_PER_JOB * jobs`` items and cut into chunks, at most
``CHUNKS_PER_JOB * jobs`` of them in flight, so memory does not grow
with the input.  An input that ends inside the window is cut into chunks
of ``ceil(n / (CHUNKS_PER_JOB * jobs))`` items; a longer one goes on in
chunks of the size a full window gets.  Small chunks keep the workers
evenly loaded when item costs differ.  ``fn`` (for realize, a
``functools.partial`` holding a model and lexicon) reaches each worker
once, through the pool initializer.  An exception in a worker is raised
to the consumer; it, an exception in the consumer, or closing the
iterator early cancels the chunks not yet started and shuts the pool
down.

The pool modules (``concurrent.futures.process`` and ``multiprocessing``)
are imported only when workers start, so importing surfreal, a
``jobs=1`` run or an input below two items per job never loads them.
"""

from __future__ import annotations

import math
import os
from collections import deque
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")
R = TypeVar("R")

READ_AHEAD_PER_JOB = 256
CHUNKS_PER_JOB = 8

_worker_fn: Callable | None = None


def _init_worker(fn: Callable) -> None:
    global _worker_fn
    _worker_fn = fn


def _call_chunk(chunk: list) -> list:
    return [_worker_fn(item) for item in chunk]


def parallel_map(fn: Callable[[T], R], items: Iterable[T], jobs: int) -> Iterator[R]:
    items = iter(items)
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1:
        yield from map(fn, items)
        return
    head = list(islice(items, READ_AHEAD_PER_JOB * jobs))
    if len(head) < 2 * jobs:
        yield from map(fn, head)
        return
    max_in_flight = CHUNKS_PER_JOB * jobs
    size = math.ceil(len(head) / max_in_flight)
    items = chain(head, items)
    chunks = iter(lambda: list(islice(items, size)), [])
    from concurrent.futures import ProcessPoolExecutor  # not at module level: see above

    pool = ProcessPoolExecutor(max_workers=jobs, initializer=_init_worker, initargs=(fn,))
    try:
        in_flight = deque()
        for chunk in chunks:
            in_flight.append(pool.submit(_call_chunk, chunk))
            if len(in_flight) == max_in_flight:
                yield from in_flight.popleft().result()
        while in_flight:
            yield from in_flight.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)
