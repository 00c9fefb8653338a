"""Independent tasks in forked worker processes.

``ingest`` (the byte ranges of its inputs) and ``model_select`` (the fits
of rank selection) map their tasks here.  This module imports
``multiprocessing`` and ``concurrent.futures`` only when it starts a
pool: about 27 ms that no small CLI call should pay.

The start method is ``fork``: a worker inherits the parent's memory, so
the function and its tasks reach it without being pickled, and it
imports nothing.  ``fork`` copies only the calling thread, so a process
running other Python threads, or one without ``fork``, runs its tasks
itself, as it does when a worker dies.  See docs/decisions.md, "Work in
forked processes".
"""

from __future__ import annotations

import os
import threading


def cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# The function and tasks of the map that is running, inherited by its
# workers: a task reaches a worker as its index.
_fn = None
_tasks = None


def _run(i: int):
    return _fn(_tasks[i])


def map_in_workers(fn, tasks, workers: int) -> list:
    """``[fn(t) for t in tasks]`` from at most ``workers`` forked processes.

    Every task is queued at once, a free worker takes the next, and the
    results come back in task order.  The tasks run in this process
    when fewer than two workers can start: ``workers`` or the number of
    tasks is below 2, there is no ``fork``, or other threads run.  They
    run here again, all of them, if a worker dies.  An exception a task
    raises propagates.  Every worker is joined before this returns.
    """
    global _fn, _tasks
    workers = min(workers, len(tasks))
    if workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [fn(t) for t in tasks]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    _fn, _tasks = fn, tasks
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            return list(pool.map(_run, range(len(tasks))))
    except BrokenProcessPool:
        pass
    finally:
        _fn = _tasks = None
    return [fn(t) for t in tasks]
