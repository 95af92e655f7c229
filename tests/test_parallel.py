import concurrent.futures
import multiprocessing
import os
import time
from concurrent.futures import Future
from functools import partial
from pathlib import Path

import pytest

from surfreal import parallel
from surfreal.parallel import READ_AHEAD_PER_JOB, parallel_map


def _affine(x: int, scale: int, offset: int) -> tuple[int, int]:
    return x, scale * x + offset


def _pid(_item) -> int:
    return os.getpid()


def _touch(x: int, folder: Path) -> int:
    time.sleep(0.005)
    (folder / str(x)).touch()
    return x


def _fail_at(x: int, bad: int) -> int:
    if x == bad:
        raise KeyError(f"item {x}")
    return x


class CountingItems:
    """An input iterator that counts how many items were pulled from it."""

    def __init__(self, n: int):
        self.n = n
        self.pulled = 0

    def __iter__(self):
        return self

    def __next__(self) -> int:
        if self.pulled == self.n:
            raise StopIteration
        self.pulled += 1
        return self.pulled - 1


def _no_children_within(timeout_s: float) -> bool:
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_parallel_map_equals_list_comprehension(jobs):
    fn = partial(_affine, scale=3, offset=-7)
    for n in (0, 1, 2 * jobs - 1, 2 * jobs, 2 * jobs + 1, 50):
        items = [(i * 37) % 101 for i in range(n)]
        assert list(parallel_map(fn, items, jobs)) == [fn(item) for item in items], n
        # any iterable, consumed once
        assert list(parallel_map(fn, iter(items), jobs)) == [fn(item) for item in items], n


def test_inputs_longer_than_the_read_ahead_window():
    fn = partial(_affine, scale=2, offset=1)
    n = 3 * READ_AHEAD_PER_JOB * 2 + 5
    assert list(parallel_map(fn, iter(range(n)), 2)) == [fn(i) for i in range(n)]


@pytest.mark.parametrize("jobs", [1, 2])
def test_first_result_comes_within_the_read_ahead_window(jobs):
    fn = partial(_affine, scale=1, offset=0)
    items = CountingItems(10 * READ_AHEAD_PER_JOB * jobs)
    results = parallel_map(fn, items, jobs)
    try:
        assert next(results) == (0, 0)
        assert items.pulled <= READ_AHEAD_PER_JOB * jobs
    finally:
        results.close()


@pytest.mark.parametrize("jobs", [2, 3])
def test_workers_start_at_two_items_per_job(jobs, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)  # so jobs is not clamped
    below = list(parallel_map(_pid, range(2 * jobs - 1), jobs))
    assert set(below) == {os.getpid()}
    at = list(parallel_map(_pid, range(2 * jobs), jobs))
    assert os.getpid() not in at


class RecordingExecutor:
    """Stands in for ProcessPoolExecutor without starting a process: each
    chunk runs at submit, in this process; the pool sizes asked for are kept."""

    sizes: list[int] = []

    def __init__(self, max_workers, initializer, initargs):
        self.sizes.append(max_workers)
        initializer(*initargs)

    def submit(self, fn, *args) -> Future:
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, cancel_futures=False):
        pass


@pytest.mark.parametrize("cpus,workers", [(3, [3]), (1, []), (None, [])])
def test_jobs_are_clamped_to_the_cpu_count(cpus, workers, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    # parallel_map imports the pool class from concurrent.futures when it starts workers
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(parallel, "_worker_fn", None)
    monkeypatch.setattr(RecordingExecutor, "sizes", [])
    fn = partial(_affine, scale=5, offset=2)
    items = CountingItems(4 * READ_AHEAD_PER_JOB * 3)
    results = parallel_map(fn, items, 5000)
    assert next(results) == fn(0)
    # the read-ahead window is sized for the clamped count, not for 5000 jobs
    assert items.pulled <= READ_AHEAD_PER_JOB * 3
    assert list(results) == [fn(i) for i in range(1, items.n)]
    assert RecordingExecutor.sizes == workers


def test_closing_early_stops_the_workers(tmp_path):
    results = parallel_map(partial(_touch, folder=tmp_path), range(5000), 2)
    assert next(results) == 0
    results.close()
    assert _no_children_within(10.0)
    # the chunks no worker had started were cancelled, so far less than
    # the window of items in flight was worked on
    assert len(list(tmp_path.iterdir())) < READ_AHEAD_PER_JOB * 2


def test_consumer_exception_stops_the_workers():
    def consume():
        for _ in parallel_map(partial(_affine, scale=1, offset=0), range(5000), 2):
            raise RuntimeError("consumer gave up")

    with pytest.raises(RuntimeError, match="consumer gave up"):
        consume()
    assert _no_children_within(10.0)


@pytest.mark.parametrize("jobs", [1, 2])
def test_worker_exception_reaches_the_consumer(jobs):
    with pytest.raises(KeyError, match="item 700"):
        list(parallel_map(partial(_fail_at, bad=700), range(2000), jobs))
    assert _no_children_within(10.0)


def test_process_pool_is_created_only_by_parallel_map():
    package = Path(__file__).resolve().parent.parent / "src" / "surfreal"
    users = sorted(p.name for p in package.glob("*.py")
                   if "ProcessPoolExecutor" in p.read_text(encoding="utf-8"))
    assert users == ["parallel.py"]
