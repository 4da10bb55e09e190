"""The one process fan-out behind ``--jobs``."""

from __future__ import annotations

import math
from typing import Callable, Sequence


def fan_out(fn: Callable, items: Sequence, jobs: int) -> list:
    """``[fn(x) for x in items]``, on min(jobs, len(items)) worker processes
    when that is at least 2.

    Each worker takes one contiguous run of the items and the results come
    back in input order, so the answer never depends on ``jobs``.  ``fn``
    is pickled by name: a module-level function, or a ``functools.partial``
    of one.  The pool, and with it ``multiprocessing``, is imported only
    when workers run.
    """
    k = min(jobs, len(items))
    if k < 2:
        return [fn(x) for x in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=k) as pool:
        return list(pool.map(fn, items, chunksize=math.ceil(len(items) / k)))
