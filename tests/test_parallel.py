import gc
import multiprocessing
import os
import re
import signal
import time
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import pytest

from surfreal import parallel
from surfreal.parallel import parallel_map

METHODS = ["fork", "spawn", "forkserver"]  # forkserver is Linux's default from Python 3.14


def _affine(x: int, scale: int, offset: int) -> tuple[int, int]:
    return x, scale * x + offset


def _pid(_item) -> int:
    return os.getpid()


def _meet(folder: Path, processes: int, until: float) -> None:
    """Return once ``processes`` processes have called this (or at ``until``): the
    caller could otherwise claim every chunk before a worker has started."""
    (folder / str(os.getpid())).touch()
    while len(list(folder.iterdir())) < processes and time.monotonic() < until:
        time.sleep(0.01)


def _whereabouts(_item, folder: Path, processes: int, until: float) -> tuple:
    """This process's pid, collector setting and CPUs, once ``processes`` have met."""
    _meet(folder, processes, until)
    cpus = getattr(os, "sched_getaffinity", lambda pid: None)(0)
    return os.getpid(), gc.isenabled(), cpus and tuple(sorted(cpus))


def _touch_or_fail(x: int, folder: Path, caller: int, failing: str, until: float) -> int:
    """Touch ``items/x`` once two processes have met; the ``failing`` one (the
    "caller" or a "worker") raises at its first item."""
    _meet(folder / "pids", 2, until)
    time.sleep(0.001)
    (folder / "items" / str(x)).touch()
    if (os.getpid() == caller) == (failing == "caller"):
        raise KeyError(f"item {x}")
    return x


def _exit_in_worker(x: int, folder: Path, caller: int, until: float) -> int:
    _meet(folder, 2, until)
    if os.getpid() != caller:
        os._exit(3)
    return x


def _fail_in_caller(x: int, folder: Path, caller: int, until: float) -> int:
    """Raise in the caller once two processes have met; a worker sleeps until ``until``."""
    _meet(folder, 2, until)
    if os.getpid() == caller:
        raise KeyError(f"item {x}")
    time.sleep(max(0.0, until - time.monotonic()))
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


@contextmanager
def _deadline(seconds: float):
    """Raise TimeoutError in this process if the block runs longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def use_context(monkeypatch, method: str) -> None:
    """Have parallel_map start its workers by ``method``."""
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method here")
    context = multiprocessing.get_context(method)
    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: context)


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
def test_workers_start_at_two_items_per_job(jobs, usable_cpus, tmp_path):
    usable_cpus(8)  # so jobs is not clamped
    below = parallel_map(_pid, range(2 * jobs - 1), jobs)
    assert set(below) == {os.getpid()}
    fn = partial(_whereabouts, folder=tmp_path, processes=jobs, until=time.monotonic() + 60)
    at = {pid for pid, _, _ in parallel_map(fn, range(2 * jobs), jobs)}
    # the caller works too, as one of the jobs processes
    assert len(at) == jobs and os.getpid() in at


@pytest.mark.parametrize("enabled", [True, False])
def test_workers_take_on_the_callers_collector_setting(enabled, usable_cpus, monkeypatch,
                                                        tmp_path):
    """Spawned workers start with the collector on, like any fresh interpreter
    (and so do forkserver ones); each takes on the caller's setting, as a forked
    one inherits it."""
    usable_cpus(8)  # so jobs is not clamped
    use_context(monkeypatch, "spawn")
    fn = partial(_whereabouts, folder=tmp_path, processes=2, until=time.monotonic() + 60)
    caller = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        reports = parallel_map(fn, range(8), 2)
    finally:
        (gc.enable if caller else gc.disable)()
    assert len({pid for pid, _, _ in reports}) == 2
    assert {state for _, state, _ in reports} == {enabled}


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                    reason="needs a CPU affinity mask of two CPUs or more")
@pytest.mark.parametrize("method", METHODS)
def test_each_process_runs_on_a_cpu_of_its_own(method, tmp_path, monkeypatch):
    use_context(monkeypatch, method)
    caller = os.sched_getaffinity(0)
    fn = partial(_whereabouts, folder=tmp_path, processes=2, until=time.monotonic() + 60)
    processes = {(pid, cpus) for pid, _, cpus in parallel_map(fn, range(8), 2)}
    assert os.sched_getaffinity(0) == caller
    assert len({pid for pid, _ in processes}) == 2
    assert all(len(cpus) == 1 for _, cpus in processes)
    placed = {cpu for _, cpus in processes for cpu in cpus}
    assert len(placed) == 2 and placed <= caller


class RecordingContext:
    """The fork context, keeping the CPU and the chunks each worker process started
    from it is handed, and each affinity the caller sets (a forked worker inherits
    the recording stand-in for ``os.sched_setaffinity``, so it is never pinned)."""

    def __init__(self):
        self.context = multiprocessing.get_context("fork")
        self.cpus: list[int] = []
        self.chunks: list[list] = []
        self.pins: list[tuple[int, set[int]]] = []

    def __getattr__(self, name):
        return getattr(self.context, name)

    def Process(self, target, args):
        _fn, chunks, _claims, _report, cpu, _collector = args
        self.cpus.append(cpu)
        self.chunks.append(chunks)
        return self.context.Process(target=target, args=args)


@pytest.fixture
def recording(monkeypatch):
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork start method here")
    context = RecordingContext()
    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: context)
    monkeypatch.setattr(os, "sched_setaffinity",
                        lambda pid, cpus: context.pins.append((pid, cpus)), raising=False)
    return context


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


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity here")
def test_processes_are_handed_the_first_usable_cpus(recording, monkeypatch):
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: [2, 3, 5, 7, 11])
    fn = partial(_affine, scale=1, offset=0)
    assert parallel_map(fn, range(100), 3) == [fn(i) for i in range(100)]
    assert recording.cpus == [3, 5]
    # the caller works on the first and gets its own mask back
    assert recording.pins == [(0, {2}), (0, os.sched_getaffinity(0))]


@pytest.mark.parametrize("cpus,workers", [(3, 2), (1, 0)])
def test_jobs_are_clamped_to_the_cpu_count(cpus, workers, recording, monkeypatch):
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: list(range(cpus)))
    fn = partial(_affine, scale=5, offset=2)
    assert parallel_map(fn, range(3000), 5000) == [fn(i) for i in range(3000)]
    assert len(recording.cpus) == workers
    # chunks are cut for the clamped count, not for 5000 jobs: 3000 / (8 * 3)
    assert [list(map(len, chunks)) for chunks in recording.chunks] == [[125] * 24] * workers


def test_chunks_hold_an_eighth_of_a_jobs_share(recording, usable_cpus):
    usable_cpus(8)  # so jobs is not clamped
    fn = partial(_affine, scale=1, offset=0)
    # 200 sentences at --jobs 2 go out as 16 chunks: 15 of 13 and the last 5
    assert parallel_map(fn, range(200), 2) == [fn(i) for i in range(200)]
    assert [list(map(len, chunks)) for chunks in recording.chunks] == [[13] * 15 + [5]]


@pytest.mark.parametrize("jobs", [1, 2])
def test_worker_exception_reaches_the_consumer(jobs):
    with pytest.raises(KeyError, match="item 700"):
        parallel_map(partial(_fail_at, bad=700), range(2000), jobs)
    assert _no_children_within(10.0)


@pytest.mark.parametrize("failing", ["worker", "caller"])
@pytest.mark.parametrize("method", METHODS)
def test_an_exception_stops_further_claims(method, failing, tmp_path, usable_cpus,
                                           monkeypatch):
    """16 chunks of 313 items at jobs=2; the failing process raises at its first
    item.  A worker that fails takes the chunks not yet claimed off the queue; a
    caller that fails stops the worker."""
    usable_cpus(2)  # so jobs is not clamped
    use_context(monkeypatch, method)
    (tmp_path / "pids").mkdir()
    (tmp_path / "items").mkdir()
    fn = partial(_touch_or_fail, folder=tmp_path, caller=os.getpid(), failing=failing,
                 until=time.monotonic() + 60)
    with pytest.raises(KeyError):
        parallel_map(fn, range(5000), 2)
    assert _no_children_within(10.0)
    assert len(list((tmp_path / "pids").iterdir())) == 2
    # only the chunks the processes had already taken were worked on
    assert len(list((tmp_path / "items").iterdir())) < 5000 // 2


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="no interval timer here")
@pytest.mark.parametrize("method", METHODS)
def test_a_failing_caller_stops_a_worker_in_the_middle_of_a_chunk(method, tmp_path,
                                                                  usable_cpus, monkeypatch):
    """The worker's chunk would take a minute: the caller's exception ends it, and
    reaches the caller, well before that."""
    usable_cpus(2)  # so jobs is not clamped
    use_context(monkeypatch, method)
    fn = partial(_fail_in_caller, folder=tmp_path, caller=os.getpid(),
                 until=time.monotonic() + 60)
    with _deadline(30), pytest.raises(KeyError):
        parallel_map(fn, range(100), 2)
    assert _no_children_within(10.0)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="no interval timer here")
@pytest.mark.parametrize("method", METHODS)
def test_worker_that_exits_without_reporting_is_an_error(method, tmp_path, usable_cpus,
                                                         monkeypatch):
    usable_cpus(2)  # so jobs is not clamped
    use_context(monkeypatch, method)
    fn = partial(_exit_in_worker, folder=tmp_path, caller=os.getpid(),
                 until=time.monotonic() + 60)
    with _deadline(60), pytest.raises(RuntimeError, match="exited with code 3 before reporting"):
        parallel_map(fn, range(100), 2)
    assert _no_children_within(10.0)


def test_worker_processes_are_started_only_by_parallel_map():
    package = Path(__file__).resolve().parent.parent / "src" / "surfreal"

    def importers(module: str) -> list[str]:
        pattern = re.compile(rf"^\s*(import|from) {module}\b", re.MULTILINE)
        return sorted(p.name for p in package.glob("*.py")
                      if pattern.search(p.read_text(encoding="utf-8")))
    assert importers("multiprocessing") == ["parallel.py"]
    assert importers("concurrent") == []
