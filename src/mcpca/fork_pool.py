"""Independent tasks in forked worker processes.

``ingest_workers`` (the chunks of a large input) and ``model_select``
(the fits of rank selection) import this module only when they have work
for it, and it imports ``multiprocessing`` and ``concurrent.futures`` only
when it starts a pool: about 27 ms that no small CLI call should pay.

The start method is ``fork``: a worker inherits the parent's memory, so
a large read-only input reaches it without being pickled, and it imports
nothing.  ``fork`` copies only the calling thread, so a process running
other Python threads, or one without ``fork``, runs its tasks serially.
If a worker dies, the map returns None and the caller runs its serial
path.  See docs/decisions.md, "Work in forked processes".
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


def worker_count() -> int:
    """Worker processes to start; below 2, run serially.  ``fork``
    copies only the calling thread, so a process running other threads
    runs serially too."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return cpu_count()


def map_in_workers(fn, tasks, workers: int, group=None) -> list | None:
    """``[fn(t) for t in tasks]`` in ``workers`` forked processes, or None
    if a worker died.

    Tasks start in order, task i only once task i - ``workers`` has
    finished.  With ``group``, a task that returns None skips the tasks
    of its group (equal ``group(task)``) that have not started; each gives
    None.  So at most ``workers`` - 1 tasks of a group run after its first
    failing one.  Every worker is joined before this returns.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    results = [None] * len(tasks)
    running = {}
    failed = set()
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        try:
            for i, task in enumerate(tasks):
                wait([f for j, f in running.items() if j <= i - workers])
                for j in [j for j, f in running.items() if f.done()]:
                    results[j] = running.pop(j).result()
                    if group is not None and results[j] is None:
                        failed.add(group(tasks[j]))
                if group is None or group(task) not in failed:
                    running[i] = pool.submit(fn, task)
            for j, f in running.items():
                results[j] = f.result()
        except BrokenProcessPool:
            return None
    return results
