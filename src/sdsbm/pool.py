"""The thread pool that the block loops of the E-step and of ``ingest`` share.

Each loop maps a function over independent blocks and merges the results on
the calling thread, in block order, so its output is the same bits however
many threads ran.  NumPy releases the interpreter lock inside most of a
block's work, so blocks overlap on several CPUs.  The pool is created on
first use: importing the package starts no thread.  The calling thread runs
blocks too, so the pool has one thread fewer than there are workers: each
pool thread gets a malloc arena of its own, which keeps the high-water mark
of what its blocks allocated.
"""
from __future__ import annotations

import functools
import itertools
import os
from collections import deque

#: the most threads a block loop runs on, the calling thread included: both
#: ``wall_s`` and ``peak_rss_mb`` were measured with two, none with more
MAX_WORKERS = 2


def _workers():
    """The CPUs this process may run on, at most ``MAX_WORKERS``."""
    if hasattr(os, "sched_getaffinity"):
        return min(MAX_WORKERS, len(os.sched_getaffinity(0)))
    return min(MAX_WORKERS, os.cpu_count() or 1)


@functools.cache
def _executor(workers):
    # imported here: a process that never needs a pool does not pay for the import
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(workers, thread_name_prefix="sdsbm")


def ordered_map(func, blocks):
    """Yield ``func(block)`` for each of ``blocks``, in block order.

    With one worker, or a single block, every call runs on this thread and no
    thread starts.  Otherwise ``workers`` blocks are in flight on a pool of
    ``workers - 1`` threads, and this thread is the last worker: rather than
    wait for the oldest block, it runs the newest one that no pool thread has
    started.  So a caller whose merge is cheap runs about one block in
    ``workers``, and one whose merge is costly leaves the blocks to the pool.
    ``blocks`` is read on this thread only, one block as each result is handed
    out.  An exception raised by a call is raised here, at its block; once the
    caller stops early, no call is left running.
    """
    workers = _workers()
    blocks = iter(blocks)
    head = list(itertools.islice(blocks, 2 if workers > 1 else 0))
    if len(head) < 2:
        for block in itertools.chain(head, blocks):
            yield func(block)
        return
    executor = _executor(workers - 1)
    blocks = itertools.chain(head, blocks)
    window = deque()  # oldest first: [future, block], or [None, result] once run here

    def take(count):
        window.extend([executor.submit(func, block), block]
                      for block in itertools.islice(blocks, count))

    take(workers)
    try:
        while window:
            oldest = window[0]
            while oldest[0] is not None and not oldest[0].done():
                newest = next((entry for entry in reversed(window)
                               if entry[0] is not None and entry[0].cancel()), None)
                if newest is None:
                    break
                newest[:] = None, func(newest[1])
            future, value = window.popleft()
            result = value if future is None else future.result()
            take(1)
            yield result
    finally:
        for future, _ in window:
            if future is not None and not future.cancel():
                future.exception()  # waits for a call already running; its result is dropped
