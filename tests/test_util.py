import concurrent.futures
import multiprocessing.context
import os
import threading

import pytest

from thermocc.util import fork_map


def _tag(x):
    return x, os.getpid()


def _usable_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


@pytest.fixture(autouse=True)
def _eight_cpus(monkeypatch):
    """fork_map caps its workers at the usable CPUs; the tests below fork
    up to 3 workers, and should on any host."""
    _usable_cpus(monkeypatch, 8)


@pytest.mark.parametrize("n, workers", [(31, 1), (31, 2), (31, 3), (3, 5)])
def test_fork_map_keeps_order_over_uneven_shares(n, workers):
    out = fork_map(_tag, list(range(n)), workers)
    assert [x for x, _ in out] == list(range(n))
    # one worker maps here; more map in forked processes
    assert all((pid == os.getpid()) == (workers == 1) for _, pid in out)


def test_fork_map_forks_before_any_thread_starts(monkeypatch):
    """fork copies only the calling thread, so the pool must fork every
    worker before it starts a thread of its own."""
    baseline = threading.active_count()
    seen = []
    start = multiprocessing.context.ForkProcess.start

    def counting_start(process):
        seen.append(threading.active_count())
        start(process)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start",
                        counting_start)
    assert fork_map(hex, list(range(6)), 3) == [hex(x) for x in range(6)]
    assert seen == [baseline] * 3


def test_fork_map_maps_here_in_a_threaded_caller():
    """fork copies only the calling thread, so while another thread lives
    fork_map maps in this process: the same results, every pid ours."""
    stop = threading.Event()
    helper = threading.Thread(target=stop.wait)
    helper.start()
    try:
        out = fork_map(_tag, list(range(7)), 3)
    finally:
        stop.set()
        helper.join(timeout=10)
    assert not helper.is_alive()
    assert out == [(x, os.getpid()) for x in range(7)]


@pytest.mark.parametrize("affinity, cpu_count, pool", [
    (2, None, [2]), (1, None, []),
    # without sched_getaffinity, os.cpu_count() or 1
    (None, 3, [3]), (None, None, [])],
    ids=["affinity-2", "affinity-1", "cpu_count-3", "cpu_count-none"])
def test_fork_map_caps_workers_at_usable_cpus(monkeypatch, affinity,
                                              cpu_count, pool):
    """pipeline --threads 100000 must not start one process per frame:
    the pool gets no more workers than the CPUs the process may use, and
    one usable CPU maps here. Checked with an in-process fake pool."""
    pools = []

    class RecordingPool:
        def __init__(self, max_workers, mp_context=None):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    else:
        _usable_cpus(monkeypatch, affinity)
    out = fork_map(_tag, list(range(50)), 100000)
    assert out == [(x, os.getpid()) for x in range(50)]
    assert pools == pool
