import os
from functools import partial
from pathlib import Path

import pytest

from surfreal.parallel import parallel_map


def _affine(x: int, scale: int, offset: int) -> tuple[int, int]:
    return x, scale * x + offset


def _pid(_item) -> int:
    return os.getpid()


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_parallel_map_equals_list_comprehension(jobs):
    fn = partial(_affine, scale=3, offset=-7)
    for n in (0, 1, 2 * jobs - 1, 2 * jobs, 2 * jobs + 1, 50):
        items = [(i * 37) % 101 for i in range(n)]
        assert parallel_map(fn, items, jobs) == [fn(item) for item in items], n
        # any iterable, consumed once
        assert parallel_map(fn, iter(items), jobs) == [fn(item) for item in items], n


@pytest.mark.parametrize("jobs", [2, 3])
def test_workers_start_at_two_items_per_job(jobs):
    below = parallel_map(_pid, range(2 * jobs - 1), jobs)
    assert set(below) == {os.getpid()}
    at = parallel_map(_pid, range(2 * jobs), jobs)
    assert os.getpid() not in at


def test_process_pool_is_created_only_by_parallel_map():
    package = Path(__file__).resolve().parent.parent / "src" / "surfreal"
    users = sorted(p.name for p in package.glob("*.py")
                   if "ProcessPoolExecutor" in p.read_text(encoding="utf-8"))
    assert users == ["parallel.py"]
