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


def _pid_and_cpus_once_two_workers_run(_item, folder: Path, until: float) -> tuple:
    """This worker's pid and CPUs, once two workers have started (or at ``until``):
    spawned workers start on demand, and the first could do all the work alone."""
    (folder / str(os.getpid())).touch()
    while len(list(folder.iterdir())) < 2 and time.monotonic() < until:
        time.sleep(0.01)
    return os.getpid(), tuple(sorted(os.sched_getaffinity(0)))


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
def test_workers_start_at_two_items_per_job(jobs, usable_cpus):
    usable_cpus(8)  # so jobs is not clamped
    below = parallel_map(_pid, range(2 * jobs - 1), jobs)
    assert set(below) == {os.getpid()}
    at = parallel_map(_pid, range(2 * jobs), jobs)
    assert os.getpid() not in at


@pytest.mark.parametrize("enabled", [True, False])
def test_workers_take_on_the_callers_collector_setting(enabled, usable_cpus, monkeypatch):
    """Spawned workers start with the collector on, like any fresh interpreter
    (and so do forkserver ones); each takes on the caller's setting, as a forked
    one inherits it."""
    usable_cpus(8)  # so jobs is not clamped
    use_context(monkeypatch, "spawn")
    caller = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        reports = parallel_map(_pid_and_collector, range(8), 2)
    finally:
        (gc.enable if caller else gc.disable)()
    assert os.getpid() not in {pid for pid, _ in reports}
    assert {state for _, state in reports} == {enabled}


def use_context(monkeypatch, method: str) -> None:
    """Have parallel_map start its workers by ``method``."""
    context = multiprocessing.get_context(method)
    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: context)


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                    reason="needs a CPU affinity mask of two CPUs or more")
@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_each_worker_runs_on_a_cpu_of_its_own(method, tmp_path, monkeypatch):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method here")
    use_context(monkeypatch, method)
    caller = os.sched_getaffinity(0)
    fn = partial(_pid_and_cpus_once_two_workers_run, folder=tmp_path,
                 until=time.monotonic() + 60)
    workers = set(parallel_map(fn, range(8), 2))
    assert os.sched_getaffinity(0) == caller
    pids = {pid for pid, _ in workers}
    assert len(pids) == 2 and os.getpid() not in pids
    assert all(len(cpus) == 1 for _, cpus in workers)
    placed = {cpu for _, cpus in workers for cpu in cpus}
    assert len(placed) == 2 and placed <= caller


class RecordingExecutor:
    """Stands in for ProcessPoolExecutor without starting a process: map
    runs in this process, as does the initializer, once per worker asked
    for; the pool and chunk sizes asked for are kept."""

    sizes: list[int] = []
    chunksizes: list[int] = []
    pins: list[tuple[int, set[int]]] = []

    def __init__(self, max_workers, mp_context, initializer, initargs):
        self.sizes.append(max_workers)
        for _ in range(max_workers):
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
    # the initializer runs in this process: the CPUs it would pin it to are kept instead
    monkeypatch.setattr(RecordingExecutor, "pins", [])
    monkeypatch.setattr(os, "sched_setaffinity",
                        lambda pid, cpus: RecordingExecutor.pins.append((pid, cpus)),
                        raising=False)
    return RecordingExecutor


def test_usable_cpus_are_the_affinity_mask_else_the_cpu_count(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert parallel._usable_cpus() == sorted(os.sched_getaffinity(0))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5, 2, 7})
        assert parallel._usable_cpus() == [2, 5, 7]
        monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert parallel._usable_cpus() == [0, 1, 2]
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # undetermined: one
    assert parallel._usable_cpus() == [0]


def test_workers_are_handed_the_first_usable_cpus(recording_executor, monkeypatch):
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: [2, 3, 5, 7, 11])
    fn = partial(_affine, scale=1, offset=0)
    assert parallel_map(fn, range(100), 3) == [fn(i) for i in range(100)]
    assert recording_executor.pins == [(0, {2}), (0, {3}), (0, {5})]


@pytest.mark.parametrize("cpus,workers", [(3, [3]), (1, [])])
def test_jobs_are_clamped_to_the_cpu_count(cpus, workers, recording_executor, monkeypatch):
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: list(range(cpus)))
    fn = partial(_affine, scale=5, offset=2)
    assert parallel_map(fn, range(3000), 5000) == [fn(i) for i in range(3000)]
    assert recording_executor.sizes == workers
    # chunks are cut for the clamped count, not for 5000 jobs: 3000 / (8 * 3)
    assert recording_executor.chunksizes == ([125] if workers else [])


def test_chunks_hold_an_eighth_of_a_jobs_share(recording_executor, usable_cpus):
    usable_cpus(8)  # so jobs is not clamped
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
