import concurrent.futures
import gc
import multiprocessing
import os
import time
from functools import partial
from pathlib import Path

import pytest

from surfreal import parallel
from surfreal.parallel import parallel_map


def _affine(x: int, scale: int, offset: int) -> tuple[int, int]:
    return x, scale * x + offset


def _pid(_item) -> int:
    return os.getpid()


def _pid_and_collector(_item) -> tuple[int, bool]:
    return os.getpid(), gc.isenabled()


def _touch_or_fail(x: int, folder: Path, bad: int) -> int:
    time.sleep(0.001)
    (folder / str(x)).touch()
    if x == bad:
        raise KeyError(f"item {x}")
    return x


def _fail_at(x: int, bad: int) -> int:
    if x == bad:
        raise KeyError(f"item {x}")
    return x


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
        assert parallel_map(fn, items, jobs) == [fn(item) for item in items], n


def test_large_input_equals_list_comprehension():
    fn = partial(_affine, scale=2, offset=1)
    n = 20_000
    assert parallel_map(fn, range(n), 2) == [fn(i) for i in range(n)]


@pytest.mark.parametrize("jobs", [2, 3])
def test_workers_start_at_two_items_per_job(jobs, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)  # so jobs is not clamped
    below = parallel_map(_pid, range(2 * jobs - 1), jobs)
    assert set(below) == {os.getpid()}
    at = parallel_map(_pid, range(2 * jobs), jobs)
    assert os.getpid() not in at


@pytest.mark.parametrize("enabled", [True, False])
def test_workers_take_on_the_callers_collector_setting(enabled, monkeypatch):
    """Spawned workers start with the collector on, like any fresh interpreter
    (and so do forkserver ones); each takes on the caller's setting, as a forked
    one inherits it."""
    monkeypatch.setattr(os, "cpu_count", lambda: 8)  # so jobs is not clamped
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        partial(concurrent.futures.ProcessPoolExecutor,
                                mp_context=multiprocessing.get_context("spawn")))
    caller = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        reports = parallel_map(_pid_and_collector, range(8), 2)
    finally:
        (gc.enable if caller else gc.disable)()
    assert os.getpid() not in {pid for pid, _ in reports}
    assert {state for _, state in reports} == {enabled}


class RecordingExecutor:
    """Stands in for ProcessPoolExecutor without starting a process: map
    runs in this process; the pool and chunk sizes asked for are kept."""

    sizes: list[int] = []
    chunksizes: list[int] = []

    def __init__(self, max_workers, initializer, initargs):
        self.sizes.append(max_workers)
        initializer(*initargs)

    def map(self, fn, items, chunksize):
        self.chunksizes.append(chunksize)
        return map(fn, items)

    def shutdown(self, cancel_futures=False):
        pass


@pytest.fixture
def recording_executor(monkeypatch):
    # parallel_map imports the pool class from concurrent.futures when it starts workers
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(parallel, "_worker_fn", None)
    monkeypatch.setattr(RecordingExecutor, "sizes", [])
    monkeypatch.setattr(RecordingExecutor, "chunksizes", [])
    return RecordingExecutor


@pytest.mark.parametrize("cpus,workers", [(3, [3]), (1, []), (None, [])])
def test_jobs_are_clamped_to_the_cpu_count(cpus, workers, recording_executor, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    fn = partial(_affine, scale=5, offset=2)
    assert parallel_map(fn, range(3000), 5000) == [fn(i) for i in range(3000)]
    assert recording_executor.sizes == workers
    # chunks are cut for the clamped count, not for 5000 jobs: 3000 / (8 * 3)
    assert recording_executor.chunksizes == ([125] if workers else [])


def test_chunks_hold_an_eighth_of_a_jobs_share(recording_executor, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)  # so jobs is not clamped
    fn = partial(_affine, scale=1, offset=0)
    # 200 sentences at --jobs 2 go out as 16 chunks of 13
    assert parallel_map(fn, range(200), 2) == [fn(i) for i in range(200)]
    assert recording_executor.chunksizes == [13]


@pytest.mark.parametrize("jobs", [1, 2])
def test_worker_exception_reaches_the_consumer(jobs):
    with pytest.raises(KeyError, match="item 700"):
        parallel_map(partial(_fail_at, bad=700), range(2000), jobs)
    assert _no_children_within(10.0)


def test_worker_exception_cancels_the_chunks_not_started(tmp_path):
    # 16 chunks of 313 items at jobs=2; the first chunk fails at its eleventh item
    with pytest.raises(KeyError, match="item 10"):
        parallel_map(partial(_touch_or_fail, folder=tmp_path, bad=10), range(5000), 2)
    assert _no_children_within(10.0)
    # only the chunks the workers had already taken were worked on
    assert len(list(tmp_path.iterdir())) < 5000 // 2


def test_process_pool_is_created_only_by_parallel_map():
    package = Path(__file__).resolve().parent.parent / "src" / "surfreal"
    users = sorted(p.name for p in package.glob("*.py")
                   if "ProcessPoolExecutor" in p.read_text(encoding="utf-8"))
    assert users == ["parallel.py"]
