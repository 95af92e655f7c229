"""The one process fan-out: ``parallel_map(fn, items, jobs)``, behind
``sr realize --jobs``; it returns ``[fn(item) for item in items]``.

``jobs`` is first clamped to the CPUs this process may run on.  At one job,
or below two items per job, the caller maps ``fn`` alone.  Otherwise the
caller and ``jobs - 1`` worker processes claim chunks of
``ceil(n / (CHUNKS_PER_JOB * jobs))`` items from one queue, each process on a
CPU of its own where the platform can pin one: two CPU-bound processes on one
CPU are slower than one.  A worker takes on the caller's collector setting
(``sr`` pauses the collector) and sends its results once, over a pipe.  An
exception in any process stops further claims and reaches the caller; no
worker outlives the call.  Only ``multiprocessing`` is imported, and only
when workers start.
"""

from __future__ import annotations

import gc
import math
import os
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

CHUNKS_PER_JOB = 8


def _usable_cpus() -> list[int]:
    """The ids of the CPUs this process may run on, ascending: its affinity mask
    (which ``taskset`` or a container's cpuset narrows), else all of them."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def _pin(cpus) -> None:
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, cpus)


def _claim(fn: Callable, chunks: list, claims) -> list[tuple[int, list]] | Exception:
    """``(chunk number, results)`` for each chunk claimed up to a ``None``, or the
    exception ``fn`` raised, once no chunk is left for any process to claim."""
    done = []
    try:
        while (number := claims.get()) is not None:
            done.append((number, list(map(fn, chunks[number]))))
    except Exception as error:
        while claims.get() is not None:
            pass
        return error
    return done


def _checked(got):
    if isinstance(got, Exception):
        raise got
    return got


def _work(fn: Callable, chunks: list, claims, report, cpu: int, gc_enabled: bool) -> None:
    (gc.enable if gc_enabled else gc.disable)()
    _pin({cpu})
    report.send(_claim(fn, chunks, claims))


def parallel_map(fn: Callable[[T], R], items: Sequence[T], jobs: int) -> list[R]:
    usable = _usable_cpus()
    jobs = min(jobs, len(usable))
    if jobs <= 1 or len(items) < 2 * jobs:
        return list(map(fn, items))
    import multiprocessing  # not at module level: see above

    size = math.ceil(len(items) / (CHUNKS_PER_JOB * jobs))
    chunks = [items[start:start + size] for start in range(0, len(items), size)]
    context = multiprocessing.get_context()
    claims = context.SimpleQueue()
    workers = []  # (process, the receiving end of its pipe)
    mask = getattr(os, "sched_getaffinity", lambda pid: None)(0)
    try:
        for cpu in usable[1:jobs]:
            report, send = context.Pipe(duplex=False)
            worker = context.Process(target=_work,
                                     args=(fn, chunks, claims, send, cpu, gc.isenabled()))
            worker.start()
            workers.append((worker, report))
            send.close()  # the worker holds the only sending end, so its exit ends the pipe
        for number in [*range(len(chunks)), *[None] * jobs]:  # a None for each process
            claims.put(number)
        _pin({usable[0]})
        done = _checked(_claim(fn, chunks, claims))
        for worker, report in workers:
            try:
                got = report.recv()
            except EOFError:
                worker.join()
                got = RuntimeError(f"worker process {worker.pid} exited with code "
                                   f"{worker.exitcode} before reporting")
            done += _checked(got)
    except BaseException:
        for worker, _ in workers:
            worker.terminate()
        raise
    finally:
        _pin(mask)
        for worker, report in workers:
            worker.join()
            worker.close()
            report.close()
        claims.close()
    return [result for _, results in sorted(done) for result in results]
