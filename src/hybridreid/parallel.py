"""Exact block loops on every allowed CPU.

A loop of independent blocks, each writing only its own slices of the
outputs, gives the same bits on any schedule. ``run_blocks`` runs one on
``WORKERS`` workers: the calling thread is worker 0, and daemon helper
threads, started at the first parallel call and kept, are the others. For
the length of a call each worker is pinned to its own CPU of the caller's
allowed set (unpinned threads may share one core) and takes the next block
from a shared counter. BLAS is pinned to one thread, process-wide, by
``trainer.train`` or else before the first parallel call, so that the
workers' GEMMs do not oversubscribe the cores; where it cannot be pinned,
the blocks run one after another in the caller.

A block must call no public hybridreid function, ``run_blocks`` included: a
tracer that wraps those keeps one span stack per process, and a helper
waiting on helpers would wait for itself.
"""

from __future__ import annotations

import contextlib
import ctypes
import logging
import os
import threading

import numpy as np

logger = logging.getLogger(__name__)

# One worker per CPU this process may run on; run under ``taskset -c 0``
# for one.
WORKERS = len(os.sched_getaffinity(0))

_pinned = None  # whether pin_blas pinned BLAS; None before it first runs
_helpers = []  # (wake-up semaphore, mailbox list) of each helper thread
os.register_at_fork(after_in_child=_helpers.clear)  # a forked child has no helpers


def _numpy_openblas_setter():
    """The thread-count setter of the OpenBLAS bundled in numpy's wheel
    (``numpy.libs/libscipy_openblas*``), or None where none is found."""
    libs = os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(np.__file__))),
                        "numpy.libs")
    for name in sorted(os.listdir(libs)) if os.path.isdir(libs) else ():
        if not name.startswith("libscipy_openblas"):
            continue
        try:
            lib = ctypes.CDLL(os.path.join(libs, name))
        except OSError:
            continue
        for symbol in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads"):
            if hasattr(lib, symbol):
                return getattr(lib, symbol)
    return None


def _blas_setter():
    """A function that sets BLAS's thread count process-wide: through
    threadpoolctl, or else numpy's own OpenBLAS; None where neither is found."""
    try:
        import threadpoolctl
    except ImportError:
        return _numpy_openblas_setter()
    return lambda n: threadpoolctl.threadpool_limits(limits=n)


def pin_blas() -> bool:
    """Pin BLAS to one thread, process-wide (a GEMM's summation split may
    depend on the thread count); records in ``_pinned`` whether it could.
    Where it cannot, it logs one WARNING, unless the call before failed too."""
    global _pinned
    setter = _blas_setter()
    if setter is not None:
        setter(1)
    elif _pinned is not False:
        logger.warning("neither threadpoolctl nor numpy's bundled OpenBLAS is found, so BLAS "
                       "threads are not pinned; results may depend on the thread count")
    _pinned = setter is not None
    return _pinned


def workers() -> int:
    """The workers a block loop runs on: WORKERS, or 1 where BLAS cannot be
    pinned to one thread."""
    return WORKERS if WORKERS == 1 or _blas_setter() is not None else 1


class _Job:
    """One call's blocks, taken in order by its workers."""

    def __init__(self, starts, fn, buffers):
        self.starts, self.fn, self.buffers = starts, fn, buffers
        self.next = 0
        self.lock = threading.Lock()
        self.errors = []
        self.done = threading.Semaphore(0)

    def work(self, worker, cpu):
        try:
            with contextlib.suppress(OSError):  # unpinned, a worker only runs slower
                os.sched_setaffinity(0, {cpu})
            while not self.errors:
                with self.lock:
                    i = self.next
                    self.next += 1
                if i >= len(self.starts):
                    return
                self.fn(self.starts[i], self.buffers[worker])
        except BaseException as exc:  # re-raised by the caller
            self.errors.append(exc)


def _helper(wake, mailbox):
    while True:
        wake.acquire()
        job, worker, cpu = mailbox.pop()
        done = job.done
        job.work(worker, cpu)
        del job  # an idle helper holds none of a call's arrays
        done.release()


def run_blocks(starts, fn, scratch=None):
    """Call ``fn(start, buffer)`` for each of ``starts``, on up to WORKERS
    workers, and return once every call has. Each worker's ``buffer`` is
    its own ``scratch()``, allocated here by the caller (None without
    ``scratch``). Every call must write only its own slices of the outputs.
    If a call raises, no block starts after it, and its exception is
    re-raised once every worker has stopped."""
    if _pinned is None and WORKERS > 1:
        pin_blas()
    n = min(WORKERS if _pinned else 1, len(starts))
    if n <= 1:
        buffer = None if scratch is None else scratch()
        for start in starts:
            fn(start, buffer)
        return
    job = _Job(starts, fn, [None if scratch is None else scratch() for _ in range(n)])
    while len(_helpers) < n - 1:
        _helpers.append((threading.Semaphore(0), []))
        threading.Thread(target=_helper, args=_helpers[-1], daemon=True,
                         name=f"hybridreid-worker-{len(_helpers)}").start()
    mask = os.sched_getaffinity(0)
    cpus = sorted(mask)
    for worker, (wake, mailbox) in enumerate(_helpers[:n - 1], start=1):
        mailbox.append((job, worker, cpus[worker % len(cpus)]))
        wake.release()
    try:
        job.work(0, cpus[0])
    finally:
        for _ in range(n - 1):
            job.done.acquire()
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, mask)
    if job.errors:
        raise job.errors[0]
