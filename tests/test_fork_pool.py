import multiprocessing
import os
import threading
import time

import pytest

from mcpca import fork_pool


@pytest.fixture(autouse=True)
def _no_process_left():
    yield
    assert multiprocessing.active_children() == []
    assert fork_pool._fn is None


@pytest.fixture
def forks(monkeypatch):
    """The ``os.fork`` calls of the test, recorded and then made."""
    calls = []
    real = os.fork

    def fork():
        calls.append(1)
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return calls


def _square_and_pid(x):
    # Later tasks finish first, so a map that returned results as they
    # came would put them out of order.
    time.sleep(0.002 * (8 - x))
    return x * x, os.getpid()


def test_results_come_back_in_task_order(forks):
    got = fork_pool.map_in_workers(_square_and_pid, range(8), 2)
    assert [v for v, _ in got] == [x * x for x in range(8)]
    assert os.getpid() not in {pid for _, pid in got}
    assert len(forks) == 2


def test_function_is_not_pickled():
    # The workers inherit the function; only the tasks are pickled.
    lock = threading.Lock()  # a closure over it cannot be pickled
    got = fork_pool.map_in_workers(lambda task: task + lock.locked(), range(4), 2)
    assert got == [0, 1, 2, 3]


@pytest.mark.parametrize("tasks, workers", [(range(5), 1), (range(1), 4), (range(5), 0), ([], 2)])
def test_fewer_than_two_workers_run_in_process(forks, tasks, workers):
    got = fork_pool.map_in_workers(_square_and_pid, tasks, workers)
    assert got == [(x * x, os.getpid()) for x in tasks]
    assert forks == []


def test_other_thread_runs_in_process(forks):
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        got = fork_pool.map_in_workers(_square_and_pid, range(5), 2)
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert got == [(x * x, os.getpid()) for x in range(5)]
    assert forks == []


def test_no_fork_runs_in_process(monkeypatch):
    monkeypatch.delattr(os, "fork")
    got = fork_pool.map_in_workers(_square_and_pid, range(5), 2)
    assert got == [(x * x, os.getpid()) for x in range(5)]


def test_exiting_workers_give_the_same_results(forks):
    # Every worker exits at its first task; this process runs them all.
    parent = os.getpid()

    def square_in_parent(x):
        if os.getpid() != parent:
            os._exit(1)
        return x * x

    assert fork_pool.map_in_workers(square_in_parent, range(6), 2) == [x * x for x in range(6)]
    assert forks


def test_task_error_propagates():
    def task(x):
        if x == 3:
            raise ValueError("task 3")
        return x

    with pytest.raises(ValueError, match="task 3"):
        fork_pool.map_in_workers(task, range(6), 2)


def test_map_inside_a_running_map_runs_in_process(forks):
    # Each task maps two tasks of its own, which run in the worker that
    # runs it: a pool there would overwrite the function and tasks the
    # worker inherited from the outer map, and fail its next task.
    def outer(x):
        inner = fork_pool.map_in_workers(_square_and_pid, [x, x + 1], 2)
        return [v for v, _ in inner], {pid for _, pid in inner}, os.getpid()

    got = fork_pool.map_in_workers(outer, range(6), 2)
    assert [values for values, _, _ in got] == [[x * x, (x + 1) ** 2] for x in range(6)]
    assert all(inner == {pid} for _, inner, pid in got)
    assert os.getpid() not in {pid for _, _, pid in got}
    assert len(forks) == 2


def _yielding(log, count):
    """The tasks 0 .. count - 1, each logged as it is yielded."""
    for x in range(count):
        log.append(x)
        yield x


@pytest.mark.parametrize("exits", [False, True])
def test_generator_is_read_once_in_task_order(forks, exits):
    # With ``exits`` every worker exits at its first task: the tasks read
    # so far run here again, and the rest are read here.
    parent = os.getpid()
    log = []

    def square(x):
        if exits and os.getpid() != parent:
            os._exit(1)
        return _square_and_pid(x)[0]

    got = fork_pool.map_in_workers(square, _yielding(log, 8), 2)
    assert got == [x * x for x in range(8)]
    assert log == list(range(8))
    assert len(forks) == 2


def test_generator_error_joins_the_workers(forks):
    def tasks():
        yield from range(4)
        raise ValueError("after 4 tasks")

    with pytest.raises(ValueError, match="after 4 tasks"):
        fork_pool.map_in_workers(_square_and_pid, tasks(), 2)
    assert len(forks) == 2


def test_map_inside_an_in_process_map_runs_in_process(forks):
    def outer(x):
        return fork_pool.map_in_workers(_square_and_pid, [x, x + 1], 2)

    got = fork_pool.map_in_workers(outer, range(3), 1)
    assert got == [[(x * x, os.getpid()), ((x + 1) ** 2, os.getpid())] for x in range(3)]
    assert forks == []
