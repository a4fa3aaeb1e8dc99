import multiprocessing.context
import os
import threading

import pytest

from thermocc.util import fork_map


def _tag(x):
    return x, os.getpid()


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
