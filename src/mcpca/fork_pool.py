"""Independent tasks in forked worker processes.

``ingest`` (the byte ranges of its inputs), ``model_select`` (the fits
of rank selection), ``synth_bench`` (the trials of a benchmark) and
``decompose`` (the refinements of a fit, as its discovery yields them)
map their tasks here; the last three size their pools by
:func:`fit_workers`.  This module imports ``multiprocessing`` and
``concurrent.futures`` only when it starts a pool: about 27 ms that no
small CLI call should pay.

The start method is ``fork``: a worker inherits the parent's memory, so
the function reaches it without being pickled, and it imports nothing;
the tasks, which may be yielded after the fork, are pickled.  ``fork``
copies only the calling thread, so a process running other Python
threads, or one without ``fork``, runs its tasks itself, as it does when
a worker dies, and so does a map called while another map runs, in this
process or in a worker.  See docs/decisions.md, "Work in forked
processes".
"""

from __future__ import annotations

import itertools
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


def fit_workers(size: int, min_size: int | None = None) -> int:
    """Workers for a map whose tasks each cost in proportion to ``size``:
    from ``min_size`` on (by default ``PARALLEL_MIN_ENTRIES``, for tasks
    that each fit a tensor of ``size`` = p * p * k entries), as many as
    the CPUs hold at the BLAS thread count, since each worker's BLAS runs
    its own threads; below it, one, so the tasks run in this process."""
    if size < (PARALLEL_MIN_ENTRIES if min_size is None else min_size):
        return 1
    cpus = cpu_count()
    return cpus // _blas_threads(cpus)


# The function of the map that is running, in this process or in the
# pool whose workers inherit it; None while none runs.
_fn = None


def _run(task):
    return _fn(task)


def map_in_workers(fn, tasks, workers: int) -> list:
    """``[fn(t) for t in tasks]`` from at most ``workers`` forked processes.

    ``tasks`` may be any iterable, and it is read once, lazily: a task is
    queued as soon as the iterable yields it, a free worker takes the
    next, and the results come back in task order.  The workers fork once
    the first ``workers`` tasks are read, and inherit ``fn``; each task
    reaches a worker pickled.  The tasks run in this process when fewer
    than two workers can start: ``workers`` or the number of tasks is
    below 2, there is no ``fork``, other threads run, or another map is
    running, in this process or in the pool this process is a worker of,
    whose function a nested pool would overwrite.  If a worker dies, the
    tasks read so far run here again, and the rest of the iterable runs
    here as it is read.  An exception a task or the iterable raises
    propagates.  Every worker is joined before this returns or raises.
    """
    global _fn
    if _fn is not None:
        return [fn(t) for t in tasks]
    tasks = iter(tasks)
    read = []
    _fn = fn
    try:
        if workers >= 2 and hasattr(os, "fork") and threading.active_count() == 1:
            read.extend(itertools.islice(tasks, workers))
            if len(read) >= 2:
                pooled = _map_pooled(read, tasks, len(read))
                if pooled is not None:
                    return pooled
        return [fn(t) for t in itertools.chain(read, tasks)]
    finally:
        _fn = None


def _map_pooled(read, tasks, workers):
    """The results of the tasks in ``read`` and then those ``tasks`` yields,
    each appended to ``read`` as it is queued, from ``workers`` forked
    processes; None if a worker dies."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        queued = [pool.submit(_run, t) for t in read]
        for t in tasks:
            read.append(t)
            queued.append(pool.submit(_run, t))
        return [f.result() for f in queued]
    except BrokenProcessPool:
        return None
    finally:
        pool.shutdown(cancel_futures=True)
