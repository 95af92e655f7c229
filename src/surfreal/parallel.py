"""The one process fan-out: ``parallel_map(fn, items, jobs)``.

Results equal ``[fn(item) for item in items]``, in input order, for any
``jobs``.  Worker processes are used only when ``jobs > 1`` and there
are at least two items per job.  ``fn`` (typically a
``functools.partial`` holding a model, vocabulary or lemma table)
reaches each worker once, through the pool initializer; items go out in
small chunks so the workers stay evenly loaded when item costs differ.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")

_worker_fn: Callable | None = None


def _init_worker(fn: Callable) -> None:
    global _worker_fn
    _worker_fn = fn


def _call(item):
    return _worker_fn(item)


def parallel_map(fn: Callable[[T], R], items: Iterable[T], jobs: int) -> list[R]:
    items = list(items)
    if jobs <= 1 or len(items) < 2 * jobs:
        return [fn(item) for item in items]
    chunksize = math.ceil(len(items) / (8 * jobs))
    with ProcessPoolExecutor(max_workers=jobs, initializer=_init_worker,
                             initargs=(fn,)) as pool:
        return list(pool.map(_call, items, chunksize=chunksize))
