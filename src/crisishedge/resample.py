"""Moving-block resampling and the order-preserving replicate map under it.

Bootstrap replicates are independent units of work: each draws its rows
from its own ``SeedSequence`` child (``block_resamples``), so the results do
not depend on where or in which order the replicates run.  ``ordered_map``
runs them on forked worker processes, one per CPU available to this process,
and returns the results in index order, so every aggregate the callers form
from them is the same as a serial loop's.  The function to map reaches the
workers through fork rather than pickling, which lets callers pass closures;
only indices and results cross the process boundary.  Logging, skip counting
and aggregation stay with the caller.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, TypeVar

import numpy as np

from .errors import DataError, DegenerateSampleError

T = TypeVar("T")

# Set only inside a pool worker, by the pool initializer; the parent's stays None.
_worker_fn: Callable[[int], object] | None = None

# Chunks per worker: enough to even out replicates of unequal cost, few
# enough that per-task overhead stays small.
_CHUNKS_PER_WORKER = 4


def default_block_length(n: int) -> int:
    """Cube-root block-length rule for moving-block schemes."""
    return max(1, math.ceil(n ** (1.0 / 3.0)))


def moving_block_indices(
    n: int, block_length: int, rng: np.random.Generator
) -> np.ndarray:
    """Index vector of length n assembled from random contiguous blocks."""
    if not 1 <= block_length <= n:
        raise DataError(f"block length {block_length} invalid for sample of {n}")
    k = math.ceil(n / block_length)
    starts = rng.integers(0, n - block_length + 1, size=k)
    idx = (starts[:, None] + np.arange(block_length)[None, :]).ravel()
    return idx[:n]


def _install(fn: Callable[[int], object]) -> None:
    global _worker_fn
    _worker_fn = fn


def _call(i: int) -> object:
    return _worker_fn(i)


def _workers(count: int) -> int:
    """Worker processes for ``count`` units; 1 or fewer means run inline.

    Inline when only one CPU is available to this process, when the platform
    cannot fork (the mapped function is inherited, never pickled), or when
    already inside a worker, which must not start a pool of its own.
    """
    if (
        not hasattr(os, "sched_getaffinity")
        or "fork" not in multiprocessing.get_all_start_methods()
        or _worker_fn is not None
        or multiprocessing.current_process().daemon
    ):
        return 1
    return min(len(os.sched_getaffinity(0)), count)


def ordered_map(fn: Callable[[int], T], count: int) -> list[T]:
    """``[fn(i) for i in range(count)]``, computed on forked worker processes.

    Results come back in index order.  An exception raised by ``fn`` reaches
    the caller with its type and message, and the pool is shut down before
    this returns or raises, so no worker outlives the call.
    """
    workers = _workers(count)
    if workers <= 1:
        return [fn(i) for i in range(count)]
    chunk = math.ceil(count / (_CHUNKS_PER_WORKER * workers))
    with ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_install,
        initargs=(fn,),
    ) as pool:
        return list(pool.map(_call, range(count), chunksize=chunk))


@dataclass(frozen=True)
class Replicates:
    """Replicate statistics in replicate order, and why the skipped ones failed."""

    values: tuple
    skipped: tuple[str, ...]


@dataclass(frozen=True)
class _Skip:
    reason: str


def block_resamples(
    n: int, *, replications: int, block_length: int | None = None, seed: int
) -> np.ndarray:
    """(replications, n) row indices of moving-block resamples.

    Replicate ``r`` draws its rows (blocks of ``block_length``, default the
    cube-root rule) from the ``r``-th child of ``SeedSequence(seed)``, so its
    rows depend only on its own seed, not on ``replications``.
    """
    length = default_block_length(n) if block_length is None else int(block_length)
    if length > n:
        raise DataError(f"block length {length} exceeds sample size {n}")
    if length < 1:
        raise DataError("block length must be >= 1")
    children = np.random.SeedSequence(seed).spawn(replications)
    return np.array(
        [moving_block_indices(n, length, np.random.default_rng(c)) for c in children],
        dtype=np.intp,
    ).reshape(replications, n)


def block_bootstrap(
    fn: Callable[[np.ndarray], T],
    n: int,
    *,
    replications: int,
    block_length: int | None = None,
    seed: int,
) -> Replicates:
    """Evaluate ``fn`` on the rows of each of ``block_resamples``' replicates.

    A replicate whose ``fn`` raises ``DegenerateSampleError`` is skipped and
    its message kept; any other exception propagates.
    """
    rows = block_resamples(
        n, replications=replications, block_length=block_length, seed=seed
    )

    def replicate(r: int) -> T | _Skip:
        try:
            return fn(rows[r])
        except DegenerateSampleError as exc:
            return _Skip(str(exc))

    results = ordered_map(replicate, replications)
    return Replicates(
        values=tuple(v for v in results if not isinstance(v, _Skip)),
        skipped=tuple(v.reason for v in results if isinstance(v, _Skip)),
    )
