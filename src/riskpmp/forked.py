"""Forked worker processes: one owner for starting, joining and failing them.

``start`` runs calls in forked children while the caller goes on, and
``run_spans`` cuts the paths of a Brownian ensemble or source into one
contiguous span per worker, at most one per usable CPU, walks each span's
blocks and waits for them all.  A child hands its results back by writing
into arrays that the parent made with ``shared_empty`` before the fork.
Where the platform cannot fork, the calls run in the calling process, one
after another, so their results are the same either way.
"""

from __future__ import annotations

import math
import mmap
import os
from contextlib import suppress
from typing import Callable, Iterable, Tuple

import numpy as np


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def shared_empty(shape: Tuple[int, ...], dtype=float) -> np.ndarray:
    """An array in anonymous shared memory (zero-filled): a forked child's
    writes to it reach the parent, which writes to heap memory would not."""
    dtype = np.dtype(dtype)
    count = math.prod(shape)
    buffer = mmap.mmap(-1, max(count * dtype.itemsize, 1))
    return np.frombuffer(buffer, dtype, count).reshape(shape)


def start(calls: Iterable[Tuple[str, Callable, tuple]]) -> Callable[[], None]:
    """Start each (name, fn, args) call in its own forked child while the
    caller goes on, and return the join: it waits for every child, then
    raises RuntimeError naming each call whose child failed (the child
    prints its traceback).  If a child cannot be started, the children
    already started are joined before the error is raised.  Without
    ``fork`` the calls run here, in order, and the join has nothing to wait
    for."""
    calls = list(calls)
    if not calls:
        return lambda: None
    import multiprocessing  # only a run that forks pays for the import

    # fork, not spawn: a child reads the parent's arrays in place instead of
    # receiving them pickled, and it runs only NumPy arithmetic and file
    # writes, taking no lock that another thread of the parent (a BLAS pool,
    # say) could hold
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        for _, fn, args in calls:
            fn(*args)
        return lambda: None
    children = []

    def join() -> None:
        for _, child in children:
            child.join()
        failed = [name for name, child in children if child.exitcode != 0]
        if failed:
            raise RuntimeError(f"{'; '.join(failed)} failed in a child process")

    try:
        for name, fn, args in calls:
            child = context.Process(target=fn, args=args)
            child.start()
            children.append((name, child))
    except BaseException:
        with suppress(RuntimeError):
            join()
        raise
    return join


def run_spans(brownian, workers: int, work: Callable[[int, object], None]) -> None:
    """Run work(lo, block) on each block of paths lo.. that brownian (a
    BrownianEnsemble or a BrownianSource) gives: its paths are cut into
    contiguous spans of ceil(n_paths / w) paths, w = min(workers,
    usable_cpus()), the last one ragged, the first walked in this process
    while a forked child walks each other, drawing each block when it
    reaches it and releasing it before the next.  work writes its results
    into ``shared_empty`` arrays.  Returns when every span is done; a failed
    child raises RuntimeError naming its span, unless the span run here
    raised, whose error is then the one raised.  An ensemble without paths
    is refused by name."""
    n_paths = brownian.n_paths
    if n_paths == 0:
        raise ValueError("the Brownian ensemble holds no paths")

    def span(lo: int, hi: int) -> None:
        for block in brownian.blocks(lo, hi):
            work(lo, block)
            lo += block.n_paths
            del block  # released before the next block is drawn

    size = -(-n_paths // min(workers, usable_cpus()))
    spans = [(lo, min(lo + size, n_paths)) for lo in range(0, n_paths, size)]
    join = start((f"paths {lo}..{hi - 1}", span, (lo, hi)) for lo, hi in spans[1:])
    try:
        span(*spans[0])
    except BaseException:
        with suppress(RuntimeError):
            join()
        raise
    join()
