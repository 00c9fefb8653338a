"""Independent tasks in forked worker processes.

``ingest`` (the byte ranges of its inputs), ``model_select`` (the fits
of rank selection) and ``synth_bench`` (the trials of a benchmark) map
their tasks here; the last two size their pools by :func:`fit_workers`.
This module imports ``multiprocessing`` and ``concurrent.futures`` only
when it starts a pool: about 27 ms that no small CLI call should pay.

The start method is ``fork``: a worker inherits the parent's memory, so
the function and its tasks reach it without being pickled, and it
imports nothing.  ``fork`` copies only the calling thread, so a process
running other Python threads, or one without ``fork``, runs its tasks
itself, as it does when a worker dies, and so does a map called from a
task of a running map.  See docs/decisions.md, "Work in forked
processes".
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


# Maps whose tasks each fit a tensor of this many entries (p * p * k) or
# more run in worker processes: below it, the pool lost or broke even on
# 2 CPUs in nearly every measured shape of rank selection, and a
# benchmark trial costs at least one such fit (docs/decisions.md, "Rank
# selection in parallel").
PARALLEL_MIN_ENTRIES = 4_000


def _blas_threads(cpus: int) -> int:
    """Threads each BLAS call may run on: ``OPENBLAS_NUM_THREADS``, else
    ``OMP_NUM_THREADS``, else OpenBLAS's default of one per CPU.  A value
    that is not a positive integer counts as unset."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads
    return cpus


def fit_workers(entries: int) -> int:
    """Workers for a map whose tasks each fit a tensor of ``entries``
    entries: from ``PARALLEL_MIN_ENTRIES`` on, as many as the CPUs hold at
    the BLAS thread count, since each worker's BLAS runs its own threads;
    below it, one, so the tasks run in this process."""
    if entries < PARALLEL_MIN_ENTRIES:
        return 1
    cpus = cpu_count()
    return cpus // _blas_threads(cpus)


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
    tasks is below 2, there is no ``fork``, other threads run, or this is
    a worker of a running map, whose inherited function and tasks a
    nested pool would overwrite.  They run here again, all of them, if a
    worker dies.  An exception a task raises propagates.  Every worker
    is joined before this returns.
    """
    global _fn, _tasks
    workers = min(workers, len(tasks))
    if workers < 2 or _fn is not None or not hasattr(os, "fork") or threading.active_count() > 1:
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
